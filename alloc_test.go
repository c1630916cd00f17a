//go:build !race

package dltprivacy_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"dltprivacy/internal/middleware"
	"dltprivacy/internal/netedge"
	"dltprivacy/internal/telemetry"
)

// TestAllocationBudget holds what the submit path allocates, configuration
// by configuration, on the fixture the ablations in bench_gateway_test.go
// run on. Timings are gated by benchmark/ + BENCHMARK.json over a real
// socket; allocation counts are exact and repeat run after run, so they are
// an ordinary test. Each row names the rule of the retired bench-gate CI job
// it replaces, or the bench_baseline.json row whose allocs/op it carries.
//
// Every ceiling is the exact reading on go1.24.0 linux/amd64. Rows that
// cross crypto/ecdsa, crypto/ecdh or crypto/aes count allocations the
// toolchain owns, so CI runs this test on 1.24.x only; the equalities are
// about this repository's code alone. To move a ceiling, edit the row in
// the PR that moves the allocation and say why in the row. The race
// detector makes sync.Pool drop items at random, hence the build tag.
//
// Every row that orders a block stands one below its bench_baseline.json
// figure since the solo orderer became a one-operator ordering.Cluster: the
// cluster's subscriber list is copied on Subscribe, where Service.Flush
// copied it for every block it cut.
func TestAllocationBudget(t *testing.T) {
	env := newGatewayBenchEnv(t)
	pipeline := func(stages ...middleware.StageConfig) middleware.Config {
		return middleware.Config{Stages: stages}
	}
	sig := pipeline(sessionStage(map[string]string{"reqauth": "sig"}), keycacheEncrypt)
	mac := pipeline(sessionStage(map[string]string{"reqauth": "mac"}), keycacheEncrypt)
	traced := mac
	traced.Trace = "64"
	// The batch_groupseal pipeline: 64 deferred seals released as one group,
	// stage timings sampled 1-in-64 as that workload's are.
	grouped := pipeline(mac.Stages[0], keycacheEncrypt, middleware.StageConfig{
		Name:   middleware.StageBatch,
		Params: map[string]string{"size": fmt.Sprint(groupSize), "groupseal": "on"},
	})
	grouped.TimingSample = "64"
	// session_churn's session stage: the per-principal cap keeps the table at
	// a steady size however many sessions a principal opens.
	churn := pipeline(sessionStage(map[string]string{"reqauth": "mac", "maxperprincipal": "4"}), keycacheEncrypt)

	rows := []struct {
		name     string
		replaces string
		cfg      middleware.Config
		metrics  bool // attach a metrics registry to the gateway
		allocs   func(*testing.T, *gatewayBenchEnv, *fastPathEnv) float64
		ceiling  float64
		equals   string // an earlier row whose reading this one must repeat
	}{
		{
			// The 22 over the mac row are one ecdsa.Verify (go1.24.0). 32
			// until the block cut stopped copying the subscriber list; 31
			// until the five of the mac row below went; 26 until its digest
			// memo did.
			name:     "sig-session",
			replaces: "baseline SessionMAC/reqauth=sig 32; the reference of the two mac >= 2x rules",
			cfg:      sig,
			allocs:   submitAllocs,
			ceiling:  25,
		},
		{
			// The HMAC runs on pooled state (dcrypto.MACKey) and allocates
			// nothing. 10 until the block cut stopped copying the subscriber
			// list; the same one in the row below. 9 until a transaction's
			// two notes stopped costing five: the encrypt stage made a map for
			// "envelope" (2), Gateway.order copied it to add "gateway" (2) and
			// the digest sorted the two keys in a heap slice (1). Now order
			// hands out a map built once in NewGateway and the digest sorts on
			// the stack. 4 until the transaction held its primed digest by
			// value instead of in a heap *[32]byte. What is left: the sealed
			// frame, the block's Txs slice and the fixture's own copy of its
			// template.
			name:     "mac",
			replaces: "speedup SessionMAC/reqauth=mac and reqauth=mac+codec=binary vs Session/keycache >= 2.0 allocs (one reading: neither decodes a frame)",
			cfg:      mac,
			allocs:   submitAllocs,
			ceiling:  3,
		},
		{
			name:     "mac+metrics",
			replaces: "speedup SessionTelemetry/metrics vs mac+codec=binary >= 1.0 allocs (+0)",
			cfg:      mac,
			metrics:  true,
			allocs:   submitAllocs,
			equals:   "mac",
		},
		{
			// The sampled 1-in-64 request allocates its trace, the other 63
			// nothing; the reading is allocations over submissions, floored.
			name:     "mac+metrics+trace=64",
			replaces: "speedup SessionTelemetry/metrics+trace=64 vs mac+codec=binary >= 1.0 allocs (+0)",
			cfg:      traced,
			metrics:  true,
			allocs:   submitAllocs,
			equals:   "mac",
		},
		{
			// Per sealed group, not per member: the rule allowed 5 per
			// member, 320 a group. 9 until the group's one block cut stopped
			// copying the subscriber list; 8 until the digest sorted the
			// vehicle's two meta keys on the stack (the vehicle's map is its
			// own, as it was); 7 until the vehicle's primed digest stopped
			// being a heap *[32]byte.
			name:     "groupseal(64)",
			replaces: "ceiling BatchSeal/batch=64 <= 5 allocs",
			cfg:      grouped,
			allocs:   groupAllocs,
			ceiling:  6,
		},
		{
			// Both ends of a loopback connection together. 16 until the wire
			// decoder stopped copying the three strings every session
			// submission carries: token and principal are the held session's
			// own (SessionManager.names), the channel comes from the gateway's
			// table of directory channels (Gateway.channelName). The rows
			// above submit in process and never decoded a frame, so they
			// stood where they stood. Then 13, until the block cut stopped
			// copying the subscriber list. Then 12: the mac row's five, and
			// the intermediate struct ServeWire decoded a frame into before
			// building the Request; the frame now decodes into the Request.
			// Then 6, until the mac row's digest memo went and the reply ID
			// moved into the Request (ServeWire returned a stack array that
			// escaped).
			name:     "edge-tcp",
			replaces: "ceiling EdgeTCP/pipeline=8 <= 16 allocs",
			cfg:      mac,
			allocs:   edgeAllocs,
			ceiling:  4,
		},
		{
			// The gateway's half of one resumed handshake, session.open frame
			// in to grant frame out: decode, HMAC check, token, HKDF, session
			// insert at the per-principal cap (so one eviction), grant encode.
			// No crypto/ecdsa and no crypto/ecdh, so the count is this
			// repository's alone. The full handshake it stands in for reads 98
			// (certificate JSON, ecdsa.Verify, the ECDH seal). Nothing is
			// ordered, so the block cut's saving does not reach this row. 23
			// until the resume hello stopped carrying a codec name for the
			// decoder to copy out; 22 until the open allocated only what it
			// hands on — the session record (its MAC key inline), the token
			// string, the grant frame. Gone, per open in a profile of the 22:
			// the resume hello on the heap (1), the transcript's escaping
			// slices (3), the nonce table's hex key (2), the token's random
			// bytes and intermediate hex (2), the info‖token label (2), HKDF's
			// output and block (2), the MAC key's pointer, hashes and
			// marshaled states (5), the transcript digest, which escaped on
			// every open because the full handshake seals under it (1).
			name:     "resumed-open",
			replaces: "new with session resumption; nothing older",
			cfg:      churn,
			allocs:   resumedOpenAllocs,
			ceiling:  3,
		},
		{
			// Both halves of a resumed handshake in process: Handshaker.Open
			// on a held secret, through ServeWire and back. The gateway's
			// three of the row above, and the client's: the resume frame,
			// the grant's token and its MAC key. The principal is the
			// client's own string when the grant echoes it.
			name:     "resumed-open-client",
			replaces: "new: the client half the row above does not count",
			cfg:      churn,
			allocs:   handshakerOpenAllocs,
			ceiling:  6,
		},
		{
			// One ecdsa.Verify, the request's (go1.24.0); 26 more when
			// pki.Verifier misses and the CA's signature is checked again.
			// One fewer than the baseline figure: the block cut no longer
			// copies the subscriber list. 34 until Gateway.order stopped
			// making a map for "gateway" (2) and the digest a slice for its
			// one key (1); 31 until the transaction's digest memo went.
			name:     "authn",
			replaces: "baseline Chain/stages=1(+authn) 35",
			cfg:      pipeline(authnStage),
			allocs:   submitAllocs,
			ceiling:  30,
		},
		{
			// The uncached seal wraps the data key for every member on every
			// request (crypto/ecdh, crypto/aes; go1.24.0); audit adds none.
			// 107 until the wrap drew one ephemeral key per request instead
			// of one per member (dcrypto.WrapToRecipients): the fixture's
			// three members now cost one key generation, one ephemeral-key
			// encoding and one wrap buffer between them, not three of each.
			// 89 until the mac row's five went; 84 until its digest memo did.
			// 83 until a wrap became the data key XOR its key-encryption key
			// under one commitment: three fewer per member, no AES cipher or
			// GCM built, the KEK hashed on pooled state.
			name:     "authn|encrypt|audit",
			replaces: "baseline Chain/stages=3(+audit) 108",
			cfg:      pipeline(authnStage, encryptStage, auditStage),
			allocs:   submitAllocs,
			ceiling:  74,
		},
	}
	got := make(map[string]float64, len(rows))
	for _, row := range rows {
		fp := newFastPathEnv(t, env, row.cfg)
		if row.metrics {
			if err := fp.gw.RegisterMetrics(telemetry.NewRegistry()); err != nil {
				t.Fatal(err)
			}
		}
		n := row.allocs(t, env, fp)
		got[row.name] = n
		t.Logf("%-28s %v", row.name, n)
		switch {
		case row.equals != "" && n != got[row.equals]:
			t.Errorf("%s: %v allocations, want exactly %s's %v (replaces: %s)", row.name, n, row.equals, got[row.equals], row.replaces)
		case row.equals == "" && n > row.ceiling:
			t.Errorf("%s: %v allocations, budget %v (replaces: %s)", row.name, n, row.ceiling, row.replaces)
		}
	}
	// The "mac allocates >= 2x fewer than the signature session" rule, as the
	// relation it was.
	if 2*got["mac"] > got["sig-session"] {
		t.Errorf("mac: %v allocations, want at most half of sig-session's %v", got["mac"], got["sig-session"])
	}
}

// submitAllocs reads the allocations of one in-process Gateway.Submit. A
// first pass over every template fills what a steady state has filled —
// verified certificates, the epoch key, pools — and the measured passes are
// whole ones, so a 1-in-64 sample lands the same number of times in each.
func submitAllocs(t *testing.T, _ *gatewayBenchEnv, fp *fastPathEnv) float64 {
	ctx := context.Background()
	i := 0
	submit := func() {
		req := fp.templates[i%len(fp.templates)]
		i++
		if err := fp.gw.Submit(ctx, &req); err != nil {
			t.Fatal(err)
		}
	}
	for range fp.templates {
		submit()
	}
	return testing.AllocsPerRun(2*len(fp.templates)-1, submit)
}

// groupSize is the batch size of the groupseal row, batch_groupseal's.
const groupSize = 64

// groupAllocs reads the allocations of one full group: groupSize
// submissions through a recycled request ring — the batch stage holds at
// most groupSize members, so twice that is always free again when the ring
// wraps — the last of which seals and orders the group. Each submission
// fills exactly the fields a MAC-path client sends, the way a submitter
// reusing request objects would.
func groupAllocs(t *testing.T, _ *gatewayBenchEnv, fp *fastPathEnv) float64 {
	ctx := context.Background()
	ring := make([]middleware.Request, 2*groupSize)
	i := 0
	group := func() {
		for n := 0; n < groupSize; n++ {
			tmpl := &fp.templates[i%len(fp.templates)]
			req := &ring[i%len(ring)]
			i++
			req.Channel = tmpl.Channel
			req.Principal = tmpl.Principal
			req.Payload = tmpl.Payload
			req.SessionToken = tmpl.SessionToken
			req.MAC = tmpl.MAC
			if err := fp.gw.Submit(ctx, req); err != nil {
				t.Fatal(err)
			}
		}
	}
	group()
	allocs := testing.AllocsPerRun(8, group)
	// One group above, one AllocsPerRun warms up with, eight it measures.
	if stats := fp.gw.Stats(); stats.BatchGroupsSealed != 10 || stats.BatchGroupTxs != 10*groupSize {
		t.Fatalf("sealed %d groups of %d txs in all, want 10 full groups", stats.BatchGroupsSealed, stats.BatchGroupTxs)
	}
	return allocs
}

// edgeAllocs reads the allocations of one synchronous submission round trip
// over loopback TCP: client, stream framing, frame decode, the session
// fast path and the reply.
func edgeAllocs(t *testing.T, env *gatewayBenchEnv, fp *fastPathEnv) float64 {
	srv, err := netedge.Listen("127.0.0.1:0", fp.gw)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := netedge.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	// A session lives on the connection that opened it, so the fixture's
	// in-process sessions do not serve here.
	req := fp.templates[0]
	grant, err := c.OpenSession(ctx, req.Principal, env.certs[req.Principal], env.keys[req.Principal], "")
	if err != nil {
		t.Fatal(err)
	}
	req.SessionToken = grant.Token
	middleware.MACRequest(&req, grant.MacKey)
	wire, err := middleware.EncodeWireRequest(&req, "")
	if err != nil {
		t.Fatal(err)
	}
	// Client.SubmitRaw is this Call plus the reply's conversion to a string,
	// which the compiler keeps or drops depending on where the caller
	// discards the ID; Call reads 16 either way.
	return testing.AllocsPerRun(200, func() {
		if _, err := c.Call(ctx, middleware.TopicSubmit, wire); err != nil {
			t.Fatal(err)
		}
	})
}

// resumedOpenAllocs reads the allocations ServeWire makes for one resume
// hello. The hellos are built beforehand by a client whose wire holds them
// back, so the client's half is not in the count; the gateway then serves
// them one per run.
func resumedOpenAllocs(t *testing.T, env *gatewayBenchEnv, fp *fastPathEnv) float64 {
	ctx := context.Background()
	who := fp.templates[0].Principal
	serve := func(ctx context.Context, hello []byte) ([]byte, error) {
		return fp.gw.ServeWire(ctx, middleware.TopicSessionOpen, hello, "tcp:1:alloc")
	}
	var client middleware.Handshaker
	if _, err := client.Open(ctx, who, env.certs[who], env.keys[who], serve); err != nil {
		t.Fatal(err)
	}
	const runs = 100
	heldBack := errors.New("held back")
	var hellos [][]byte
	// One per measured run, one AllocsPerRun warms up with, and the four
	// that fill the principal's cap first.
	for len(hellos) < runs+1+4 {
		_, err := client.Open(ctx, who, env.certs[who], env.keys[who], func(_ context.Context, hello []byte) ([]byte, error) {
			hellos = append(hellos, hello)
			return nil, heldBack
		})
		if !errors.Is(err, heldBack) {
			t.Fatalf("building resume hello %d: %v", len(hellos), err)
		}
	}
	next := func() {
		if _, err := serve(ctx, hellos[0]); err != nil {
			t.Fatal(err)
		}
		hellos = hellos[1:]
	}
	for i := 0; i < 4; i++ {
		next()
	}
	allocs := testing.AllocsPerRun(runs, next)
	if st := fp.gw.Stats().Sessions; st.Resumed != runs+1+4 || st.ResumeMisses != 0 {
		t.Fatalf("resumed %d, missed %d; want every one of the %d hellos resumed", st.Resumed, st.ResumeMisses, runs+1+4)
	}
	return allocs
}

// handshakerOpenAllocs reads the allocations of one Handshaker.Open on a
// held secret, the client's half and the gateway's together: the round trip
// is ServeWire, in process.
func handshakerOpenAllocs(t *testing.T, env *gatewayBenchEnv, fp *fastPathEnv) float64 {
	ctx := context.Background()
	who := fp.templates[0].Principal
	serve := func(ctx context.Context, hello []byte) ([]byte, error) {
		return fp.gw.ServeWire(ctx, middleware.TopicSessionOpen, hello, "tcp:1:alloc")
	}
	var client middleware.Handshaker
	open := func() {
		grant, err := client.Open(ctx, who, env.certs[who], env.keys[who], serve)
		if err != nil || grant.Principal != who || len(grant.MacKey) == 0 {
			t.Fatalf("open: %+v, %v", grant, err)
		}
	}
	// The full handshake, then four resumed opens that fill the cap.
	for i := 0; i < 5; i++ {
		open()
	}
	const runs = 100
	allocs := testing.AllocsPerRun(runs, open)
	if st := fp.gw.Stats().Sessions; st.Resumed != runs+1+4 || st.ResumeMisses != 0 {
		t.Fatalf("resumed %d, missed %d; want every open after the first resumed", st.Resumed, st.ResumeMisses)
	}
	return allocs
}

//go:build !race

package dltprivacy_test

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"dltprivacy/internal/dcrypto"
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
	mac := pipeline(sessionStage(nil), keycacheEncrypt)
	traced := mac
	traced.Trace = fmt.Sprint(sampleEvery)
	// The batch_groupseal pipeline: 64 deferred seals released as one group,
	// stage timings sampled 1-in-64 as that workload's are.
	grouped := pipeline(mac.Stages[0], keycacheEncrypt, middleware.StageConfig{
		Name:   middleware.StageBatch,
		Params: map[string]string{"size": fmt.Sprint(groupSize), "groupseal": "on"},
	})
	grouped.TimingSample = "64"
	// session_churn's session stage: the per-principal cap keeps the table at
	// a steady size however many sessions a principal opens.
	churn := pipeline(sessionStage(map[string]string{"maxperprincipal": "4"}), keycacheEncrypt)

	rows := []struct {
		name     string
		replaces string
		cfg      middleware.Config
		metrics  bool // attach a metrics registry to the gateway
		allocs   func(*testing.T, *gatewayBenchEnv, *fastPathEnv) float64
		ceiling  float64
		exact    bool   // the reading must be the ceiling, not only within it
		equals   string // an earlier row whose reading this one must repeat
	}{
		{
			// The HMAC runs on pooled state (dcrypto.MACKey) and allocates
			// nothing. 10 until the block cut stopped copying the subscriber
			// list; the same one in the row below. 9 until a transaction's
			// two notes stopped costing five: the encrypt stage made a map for
			// "envelope" (2), Gateway.order copied it to add "gateway" (2) and
			// the digest sorted the two keys in a heap slice (1). Now order
			// hands out a map built once in NewGateway and the digest sorts on
			// the stack. 4 until the transaction held its primed digest by
			// value instead of in a heap *[32]byte. 3 until the block's Txs
			// slice was carved from the orderer's 21-transaction queue chunk
			// (one chunk per 21 blocks, floored away). 2 until the row sent
			// frames through AppendWire instead of handing Gateway.Submit a
			// copy of the fixture's template, which allocated; the session
			// frame decodes into a pooled Request without allocating (the
			// edge-tcp row). 1, the sealed frame's own exact allocation,
			// until sealed frames were carved from shared slabs (a 9,472-byte
			// slab per eighteen or so of the fixture's 492- to 511-byte
			// frames, sixteen to an 8 KB slab until slabs held whole frames
			// of the size that opens them; floored away, and the
			// seal-cadence row counts them).
			name:     "mac",
			replaces: "speedup SessionMAC/reqauth=mac and reqauth=mac+codec=binary vs Session/keycache >= 2.0 allocs (one reading)",
			cfg:      mac,
			allocs:   submitAllocs,
			ceiling:  0,
		},
		{
			// What the rows above floor away: twenty submissions on a
			// channel of the benchmark's width, 50 members and a 96-byte
			// trade, whose sealed frames (1,856 bytes on the fixture's
			// channel) are cut five to a 9,472-byte slab, the size class of
			// five whole frames. Exactly one slab per five seals, with the
			// block's share of a queue chunk (20 in 21) floored away: 8 KB
			// slabs of four frames read 5, 16 KB slabs 2. 1 per four seals
			// until slabs held whole frames of the size that opens them.
			name:     "seal-cadence",
			replaces: "new: the sealed frame's carve, which the mac row floors",
			cfg:      mac,
			allocs: func(t *testing.T, env *gatewayBenchEnv, _ *fastPathEnv) float64 {
				return sealCadenceAllocs(t, env, mac)
			},
			ceiling: 4,
			exact:   true,
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
			// What the one sampled request in 64 adds to the mac row's
			// count, which the row above floors away: 64 submissions on the
			// traced gateway less 64 on the mac row's, the difference of
			// two totals over 21 runs, per run and rounded. Nothing: its trace,
			// with the spans of its two stages in the trace's inline array,
			// is a slot of the tracer's 15-trace slab (telemetry.Tracer.For),
			// one slab per 15 samples, floored away. 1, the trace, until
			// traces were carved; 3 while the spans grew on the heap, one
			// array per doubling.
			name:     "sampled-trace",
			replaces: "new: the row above floors a sampled request's trace away",
			cfg:      traced,
			metrics:  true,
			allocs: func(t *testing.T, env *gatewayBenchEnv, fp *fastPathEnv) float64 {
				return math.Round((sampleAllocs(t, fp) - sampleAllocs(t, newFastPathEnv(t, env, mac))) / sampleRuns)
			},
			ceiling: 0,
		},
		{
			// Per sealed group, not per member: the rule allowed 5 per
			// member, 320 a group. 9 until the group's one block cut stopped
			// copying the subscriber list; 8 until the digest sorted the
			// vehicle's two meta keys on the stack (the vehicle's map is its
			// own, as it was); 7 until the vehicle's primed digest stopped
			// being a heap *[32]byte; 6 until the group's block took its Txs
			// from the orderer's queue chunk; 5 until the release vehicle
			// was borrowed from the wire pool; 4 until a release under the
			// last release's parent context reused its detached context
			// (Batch.detach). 3, the sealed frame and the vehicle's Meta map
			// (2), per group of the fixture's own 15 KB trades, until the
			// row counted sixteen groups at the benchmark's shape: 50
			// members and 96-byte trades, whose 7,968-byte group frames are
			// cut two to a 16,384-byte slab. Exactly the two Meta
			// allocations a group and one slab per two groups, with the
			// groups' share of a queue chunk (16 in 21) floored away; 48
			// while a frame over 2 KB was an allocation of its own.
			name:     "groupseal(64)",
			replaces: "ceiling BatchSeal/batch=64 <= 5 allocs",
			cfg:      grouped,
			allocs: func(t *testing.T, env *gatewayBenchEnv, _ *fastPathEnv) float64 {
				return groupAllocs(t, env, grouped)
			},
			ceiling: 2*cadenceGroups + cadenceGroups/2,
			exact:   true,
		},
		{
			// Both ends of a loopback connection together. 16 until the wire
			// decoder stopped copying the three strings every session
			// submission carries: token and principal are the held session's
			// own (since, the decoder hands the stage the session record
			// itself), the channel comes from the gateway's
			// table of directory channels (Gateway.channelName). The rows
			// above submitted in process then and never decoded a frame, so
			// they stood where they stood. Then 13, until the block cut stopped
			// copying the subscriber list. Then 12: the mac row's five, and
			// the intermediate struct ServeWire decoded a frame into before
			// building the Request; the frame now decodes into the Request.
			// Then 6, until the mac row's digest memo went and the reply ID
			// moved into the Request (ServeWire returned a stack array that
			// escaped). Still 4 once the wire path recycled its Request: the
			// Request went out and a 32-byte reply slice came in, 320 B
			// fewer at the same count (TestServeWireAllocatedBytes). 3 since
			// the edge hands the gateway its outbound frame and the ID is
			// appended to it (Gateway.AppendWire), until the block's Txs
			// slice came from the orderer's queue chunk and the client's
			// copy of the reply from its 4 KB reply chunk
			// (netedge.TestCallAllocations). 1, the sealed frame of the mac
			// row, until it was carved with the mac row's.
			name:     "edge-tcp",
			replaces: "ceiling EdgeTCP/pipeline=8 <= 16 allocs",
			cfg:      mac,
			allocs:   edgeAllocs,
			ceiling:  0,
		},
		{
			// The gateway's half of one resumed handshake, session.open frame
			// in to grant frame out: decode, HMAC check, token, HKDF, session
			// insert at the per-principal cap (so one eviction), grant encode.
			// No crypto/ecdsa and no crypto/ecdh, so the count is this
			// repository's alone. The gateway's half of the full handshake it
			// stands in for reads 67 (ecdsa.Verify, the ECDH seal, the
			// certificate's decode), 81 while the certificate crossed as
			// JSON and the transcript was spelled in heap strings. Nothing is
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
			// every open because the full handshake seals under it (1). 3
			// until the grant was appended to the caller's frame
			// (Gateway.AppendWire, measured here into one reused buffer as
			// the edge's pooled frame). 2 until the table was keyed on the
			// token's bytes and the grant frame spelled the token from them;
			// 1, the session record, until records were cut from the
			// manager's 11-record slab (one slab per 11 opens, floored
			// away).
			name:     "resumed-open",
			replaces: "new with session resumption; nothing older",
			cfg:      churn,
			allocs:   resumedOpenAllocs,
			ceiling:  0,
		},
		{
			// Both halves of a resumed handshake in process: Handshaker.Open
			// on a held secret, through ServeWire and back. What is left is
			// the grant frame ServeWire returns: the row above allocates
			// nothing, and the client's grant — its token and its MAC key —
			// is a slot of the Handshaker's 42-grant chunk. The principal is
			// the client's own string when the grant echoes it. 6 until the
			// resume frame was carved from a slab shared with the frames
			// after it (see the encode row); 5 until the gateway's token
			// string went (the row above); 4 until the client's token and
			// MAC key became one allocation, the key derived into the tail
			// of the token's bytes; 3 until the session record and that
			// allocation were carved.
			name:     "resumed-open-client",
			replaces: "new: the client half the row above does not count",
			cfg:      churn,
			allocs:   handshakerOpenAllocs,
			ceiling:  1,
		},
		{
			// A visit by a principal over a connection, neither of which
			// holds another session: the row above, then a session.close
			// through AppendWire. The close allocates nothing (the
			// session-close row), and the session joins and leaves its
			// principal's and its connection's index rings without
			// allocating. 9 while each index was a map of maps: the
			// principal's and the connection's inner maps were deleted with
			// their last session and rebuilt by the next open, a map and its
			// first group each, 2 + 2 over the row above's 5. 4 until the
			// row above went to 3, 3 until it went to 1.
			name:     "open-close-alone",
			replaces: "new: the index maps a lone visit rebuilt",
			cfg:      churn,
			allocs:   openCloseAloneAllocs,
			ceiling:  1,
		},
		{
			// Both halves of a full handshake over the wire: Handshaker.Open
			// with no held secret (a client that has never opened), through
			// AppendWire into a reused buffer. Two ECDSA operations, the
			// ECDH seal and unseal, and the certificate's round trip; most of
			// it is crypto/ecdsa's and crypto/ecdh's (go1.24.0). 201 while
			// the certificate crossed as JSON (23 of them), the transcript
			// was spelled in heap strings on both sides, the client derived
			// it twice, decoded the grant's three byte fields into three
			// allocations and rebuilt its ECDH key on every unseal. 160
			// until the session record was cut from the gateway's slab;
			// the client's grant is still one allocation here, a fresh
			// Handshaker's first 4 KB grant chunk where it was 96 bytes.
			name:     "full-open",
			replaces: "new: the handshake a principal's first open from a client process to a gateway pays",
			cfg:      churn,
			allocs:   fullOpenAllocs,
			ceiling:  159,
		},
		{
			// The client's request frame: carved from a slab of some 16 KB
			// shared with the frames encoded after it, a slab per forty-odd
			// frames of the fixture's size, floored away. 1, the frame's own
			// exact allocation, until frames were carved.
			name:     "encode",
			replaces: "new: EncodeWireRequest stopped allocating its frame",
			cfg:      mac,
			allocs:   encodeAllocs,
			ceiling:  0,
		},
		{
			// A session.close through AppendWire, as the edge makes it: the
			// session goes under its own token string, looked up by the
			// frame's bytes. 1 while the gateway copied the frame into a
			// token string to close it.
			name:     "session-close",
			replaces: "new: a close stopped copying its token",
			cfg:      mac,
			allocs:   sessionCloseAllocs,
			ceiling:  0,
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
			// GCM built, the KEK hashed on pooled state. 74 until the table
			// stopped naming its members: the wraps by name (a map, 2) and the
			// sorted names the frame listed them in (1) became one slice of
			// wraps sorted by their bytes. 72 until the block's Txs slice was
			// carved from the queue chunk; 71 until the row sent frames
			// through AppendWire, whose decode of the signed frame added 12
			// (83). 83 until the row was authn|encrypt|audit: the signed
			// frame's decode (12) and the authn stage's certificate and
			// signature check (29) went with the sessionless path, and the
			// session's MAC check allocates nothing (the mac row). 42 until
			// the frame was carved from a slab, the throwaway key's seal
			// being the one seal.
			name:     "session|encrypt|audit",
			replaces: "baseline Chain/stages=3(+audit) 108",
			cfg:      pipeline(sessionStage(nil), encryptStage, auditStage),
			allocs:   submitAllocs,
			ceiling:  41,
		},
		{
			// A ledger reader's decode of one sealed frame at the benchmark's
			// shape, 50 members: the channel name, and crypto/ecdh's five for
			// the check that the ephemeral key is a P-256 point (go1.24.0).
			// The scheme is the package's constant and every byte field,
			// the wraps included, aliases the frame. 61 (3.6 KB) while the
			// table named its members: the scheme, a map of the 50 wraps and
			// the 50 names it was keyed by.
			name:     "parse-envelope",
			replaces: "new: ParseEnvelope stopped building a map of the members' wraps",
			cfg:      mac,
			allocs:   parseEnvelopeAllocs,
			ceiling:  6,
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
		case row.exact && n != row.ceiling:
			t.Errorf("%s: %v allocations, want exactly %v (replaces: %s)", row.name, n, row.ceiling, row.replaces)
		case row.equals == "" && n > row.ceiling:
			t.Errorf("%s: %v allocations, budget %v (replaces: %s)", row.name, n, row.ceiling, row.replaces)
		}
	}
}

// serveWireBytesBudget is what one in-process gateway.submit through
// ServeWire may allocate on the mac pipeline, in bytes: 300 below the 1,056 B
// it read before the wire path recycled its requests (go1.24.0 linux/amd64).
// The 352-byte Request went back to a pool and the 32-byte reply moved out of
// the request into a slice of its own, -320 B at the same count (736 B); the
// block's one-transaction Txs slice, 192 B, became a 21st of a 4,096-byte
// queue chunk, +3 B (739 B); the orderer reused its chunks, -195 B (544 B).
// The 17 B left are slack for the pool's refills after a garbage collection.
const serveWireBytesBudget = 1056 - 300 - 195

// appendWireBytesBudget is the same submission through AppendWire into a
// reused buffer, as the edge makes it: the reply slice is gone, -32 B
// (512 B), with the same 17 B of slack.
const appendWireBytesBudget = serveWireBytesBudget - 32

// TestServeWireAllocatedBytes holds the bytes, not only the count, of a wire
// submission: TestAllocationBudget's edge-tcp row reads the same count
// whether the gateway allocates a Request or a reply in its place. It reads
// ServeWire, which in-process callers use, and AppendWire, which the edge
// does.
func TestServeWireAllocatedBytes(t *testing.T) {
	env := newGatewayBenchEnv(t)
	fp := newFastPathEnv(t, env, middleware.Config{Stages: []middleware.StageConfig{sessionStage(nil), keycacheEncrypt}})
	frames := fp.frames
	ctx := context.Background()
	var dst []byte
	for _, tc := range []struct {
		name   string
		budget float64
		submit func(frame []byte) error
	}{
		{"ServeWire", serveWireBytesBudget, func(frame []byte) error {
			_, err := fp.gw.ServeWire(ctx, middleware.TopicSubmit, frame, "")
			return err
		}},
		{"AppendWire", appendWireBytesBudget, func(frame []byte) (err error) {
			dst, err = fp.gw.AppendWire(ctx, dst[:0], middleware.TopicSubmit, frame, "")
			return err
		}},
	} {
		serve := func(n int) {
			for i := 0; i < n; i++ {
				if err := tc.submit(frames[i%len(frames)]); err != nil {
					t.Fatal(err)
				}
			}
		}
		serve(len(frames))
		const runs = 8192
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		serve(runs)
		runtime.ReadMemStats(&after)
		perSubmission := float64(after.TotalAlloc-before.TotalAlloc) / runs
		t.Logf("%.1f B per %s submission (budget %v)", perSubmission, tc.name, tc.budget)
		if perSubmission > tc.budget {
			t.Errorf("%.1f B per %s submission, budget %v: does the gateway allocate its Request or its reply again?", perSubmission, tc.name, tc.budget)
		}
	}
}

// submitAllocs reads the allocations of one submission through AppendWire,
// over whole passes of the frames, so a 1-in-64 sample lands the same
// number of times in each.
func submitAllocs(t *testing.T, _ *gatewayBenchEnv, fp *fastPathEnv) float64 {
	return testing.AllocsPerRun(2*len(fp.frames)-1, submitter(t, fp))
}

// submitter returns a call that submits the fixture's next frame through
// AppendWire into one reused reply buffer, as the edge does, after a first
// pass over every frame has filled what a steady state has filled —
// verified certificates, the epoch key, pools.
func submitter(t *testing.T, fp *fastPathEnv) func() {
	ctx := context.Background()
	var dst []byte
	i := 0
	submit := func() {
		var err error
		dst, err = fp.gw.AppendWire(ctx, dst[:0], middleware.TopicSubmit, fp.frames[i%len(fp.frames)], "")
		i++
		if err != nil {
			t.Fatal(err)
		}
	}
	for range fp.frames {
		submit()
	}
	return submit
}

// sampleEvery is the traced row's sampling: one request in 64 is traced.
const sampleEvery = 64

// sampleRuns is how many runs of sampleEvery submissions sampleAllocs
// counts: the orderer carves a block's transactions from a chunk that serves
// 21 blocks, so 21 runs hold the same number of chunks on every gateway.
const sampleRuns = 21

// sampleAllocs reads the allocations of sampleRuns runs of sampleEvery wire
// submissions, one in each run of which a gateway tracing 1 in sampleEvery
// traces: a total, not floored per run. The sealed frames' slabs are a
// share of a run that is no whole number and starts wherever the shared
// slab's tail does, so two gateways' totals may differ by a slab either way,
// and two per-run floors by one. The collector is off while it counts: a
// cycle empties the sync.Pools, and their refill, some ten allocations that
// no submission makes, would land in whichever total the cycle fell in.
func sampleAllocs(t *testing.T, fp *fastPathEnv) float64 {
	submit := submitter(t, fp)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(1, func() {
		for n := 0; n < sampleRuns*sampleEvery; n++ {
			submit()
		}
	})
}

// sealCadenceAllocs reads the allocations of twenty submissions through
// AppendWire on a gateway of the benchmark's shape (benchShaped).
func sealCadenceAllocs(t *testing.T, env *gatewayBenchEnv, cfg middleware.Config) float64 {
	submit := submitter(t, newFastPathEnv(t, benchShaped(t, env), cfg))
	return testing.AllocsPerRun(100, func() {
		for n := 0; n < 20; n++ {
			submit()
		}
	})
}

// benchShaped is env on the benchmark's shape: a channel of 50 members — the
// fixture's three and 47 who never submit — and 96-byte trades.
func benchShaped(t *testing.T, env *gatewayBenchEnv) *gatewayBenchEnv {
	wide := *env
	wide.memberKeys = maps.Clone(env.memberKeys)
	for len(wide.memberKeys) < 50 {
		key, err := dcrypto.GenerateKey()
		if err != nil {
			t.Fatal(err)
		}
		wide.memberKeys[fmt.Sprintf("wide-%02d", len(wide.memberKeys))] = key.Public()
	}
	wide.templates = slices.Clone(env.templates)
	for i := range wide.templates {
		wide.templates[i].Payload = make([]byte, 96)
	}
	return &wide
}

// groupSize is the batch size of the groupseal row, batch_groupseal's.
const groupSize = 64

// cadenceGroups is how many groups one run of the groupseal row seals: an
// even number, so a run holds whole slabs of two group frames.
const cadenceGroups = 16

// groupAllocs reads the allocations of cadenceGroups full groups, each
// groupSize submissions through AppendWire the last of which seals and orders
// the group, on a gateway of the benchmark's shape (benchShaped). The
// submitter's first pass over the frames seals a whole group of its own
// before the count starts. The collector is off while it counts, as in
// sampleAllocs: a run is a thousand submissions, and a cycle's pool refills
// would land in it.
func groupAllocs(t *testing.T, env *gatewayBenchEnv, cfg middleware.Config) float64 {
	fp := newFastPathEnv(t, benchShaped(t, env), cfg)
	submit := submitter(t, fp)
	before := fp.gw.Stats()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 8
	allocs := testing.AllocsPerRun(runs, func() {
		for n := 0; n < cadenceGroups*groupSize; n++ {
			submit()
		}
	})
	// AllocsPerRun warms up with one run more than it measures.
	if stats, want := fp.gw.Stats(), uint64((runs+1)*cadenceGroups); stats.BatchGroupsSealed-before.BatchGroupsSealed != want || stats.BatchGroupTxs-before.BatchGroupTxs != want*groupSize {
		t.Fatalf("sealed %d groups of %d txs since the first pass, want %d full groups",
			stats.BatchGroupsSealed-before.BatchGroupsSealed, stats.BatchGroupTxs-before.BatchGroupTxs, want)
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

// resumedOpenAllocs reads the allocations the gateway makes for one resume
// hello, appending each grant to one reused buffer as the edge appends it to
// its pooled frame. The hellos are built beforehand by a client whose wire
// holds them back, so the client's half is not in the count; the gateway
// then serves them one per run.
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
	var dst []byte
	next := func() {
		var err error
		if dst, err = fp.gw.AppendWire(ctx, dst[:0], middleware.TopicSessionOpen, hellos[0], "tcp:1:alloc"); err != nil {
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

// openCloseAloneAllocs reads the allocations of one visit by a principal
// enrolled for it, over a connection of its own: a resumed Handshaker.Open
// through ServeWire, and the session.close of its session appended to a
// reused buffer, as the edge appends it. Between visits neither the
// principal nor the connection holds a session.
func openCloseAloneAllocs(t *testing.T, env *gatewayBenchEnv, fp *fastPathEnv) float64 {
	ctx := context.Background()
	const who, conn = "loner", "tcp:1:alone"
	key, err := dcrypto.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	cert, err := env.ca.Enroll(who, key.Public())
	if err != nil {
		t.Fatal(err)
	}
	serve := func(ctx context.Context, hello []byte) ([]byte, error) {
		return fp.gw.ServeWire(ctx, middleware.TopicSessionOpen, hello, conn)
	}
	live := fp.gw.Stats().Sessions.Live
	var client middleware.Handshaker
	var token, dst []byte
	visit := func() {
		grant, err := client.Open(ctx, who, cert, key, serve)
		if err != nil {
			t.Fatal(err)
		}
		key, _ := middleware.EncodeSessionClose(grant.Token)
		token = append(token[:0], key[:]...)
		if dst, err = fp.gw.AppendWire(ctx, dst[:0], middleware.TopicSessionClose, token, conn); err != nil {
			t.Fatal(err)
		}
	}
	visit() // the full handshake
	const runs = 100
	allocs := testing.AllocsPerRun(runs, visit)
	if st := fp.gw.Stats().Sessions; st.Resumed != runs+1 || st.Live != live {
		t.Fatalf("resumed %d with %d live, want %d resumed and the %d live before", st.Resumed, st.Live, runs+1, live)
	}
	return allocs
}

// fullOpenAllocs reads the allocations of one Handshaker.Open by a client
// that holds no secret, the client's half and the gateway's together: the
// full signed hello, the gateway's verification and seal, the client's
// unseal. The gateway answers into one reused buffer, as the edge does.
func fullOpenAllocs(t *testing.T, env *gatewayBenchEnv, fp *fastPathEnv) float64 {
	ctx := context.Background()
	who := fp.templates[0].Principal
	var dst []byte
	serve := func(ctx context.Context, hello []byte) (reply []byte, err error) {
		dst, err = fp.gw.AppendWire(ctx, dst[:0], middleware.TopicSessionOpen, hello, "tcp:1:alloc")
		return dst, err
	}
	open := func() {
		var client middleware.Handshaker
		grant, err := client.Open(ctx, who, env.certs[who], env.keys[who], serve)
		if err != nil || grant.Resumed || len(grant.MacKey) == 0 {
			t.Fatalf("open: %+v, %v", grant, err)
		}
	}
	// Four opens fill the principal's cap, so each measured one evicts one.
	// The count is not a whole number: it falls among the growths of the
	// nonce and resumption tables, the session slabs and the pool refills
	// after a collection; a pass of 300 read 160.6 to 160.8 before the
	// session record was carved.
	for i := 0; i < 4; i++ {
		open()
	}
	const runs = 300
	resumed := fp.gw.Stats().Sessions.Resumed
	allocs := testing.AllocsPerRun(runs, open)
	if st := fp.gw.Stats().Sessions; st.Resumed != resumed {
		t.Fatalf("%d opens resumed, want every one full", st.Resumed-resumed)
	}
	return allocs
}

// encodeAllocs reads the allocations of one EncodeWireRequest of a session
// submission.
func encodeAllocs(t *testing.T, _ *gatewayBenchEnv, fp *fastPathEnv) float64 {
	i := 0
	return testing.AllocsPerRun(1000, func() {
		if _, err := middleware.EncodeWireRequest(&fp.templates[i%len(fp.templates)], ""); err != nil {
			t.Fatal(err)
		}
		i++
	})
}

// sessionCloseAllocs reads the allocations of one session.close appended to
// a reused buffer, as the edge appends it to its pooled frame, of a live
// session bound to the connection that closes it. The sessions are opened
// beforehand.
func sessionCloseAllocs(t *testing.T, env *gatewayBenchEnv, fp *fastPathEnv) float64 {
	ctx := context.Background()
	const conn = "tcp:1:alloc"
	who := fp.templates[0].Principal
	serve := func(ctx context.Context, hello []byte) ([]byte, error) {
		return fp.gw.ServeWire(ctx, middleware.TopicSessionOpen, hello, conn)
	}
	live := fp.gw.Stats().Sessions.Live
	const runs = 100
	var client middleware.Handshaker
	var tokens [][]byte
	for len(tokens) < runs+1 {
		grant, err := client.Open(ctx, who, env.certs[who], env.keys[who], serve)
		if err != nil {
			t.Fatal(err)
		}
		key, _ := middleware.EncodeSessionClose(grant.Token)
		tokens = append(tokens, key[:])
	}
	var dst []byte
	allocs := testing.AllocsPerRun(runs, func() {
		var err error
		if dst, err = fp.gw.AppendWire(ctx, dst[:0], middleware.TopicSessionClose, tokens[0], conn); err != nil {
			t.Fatal(err)
		}
		tokens = tokens[1:]
	})
	if got := fp.gw.Stats().Sessions.Live; got != live {
		t.Fatalf("%d sessions live after the closes, want the %d before the opens", got, live)
	}
	return allocs
}

// parseEnvelopeAllocs reads the allocations of one ParseEnvelope of a frame
// sealed to 50 members on the benchmark's channel name.
func parseEnvelopeAllocs(t *testing.T, _ *gatewayBenchEnv, _ *fastPathEnv) float64 {
	members := make(map[string]dcrypto.PublicKey, 50)
	for i := 0; i < 50; i++ {
		key, err := dcrypto.GenerateKey()
		if err != nil {
			t.Fatal(err)
		}
		members[fmt.Sprintf("org-%02d", i)] = key.Public()
	}
	env, err := middleware.SealEnvelope("deals-0", make([]byte, 96), members)
	if err != nil {
		t.Fatal(err)
	}
	frame := middleware.EncodeEnvelope(env)
	return testing.AllocsPerRun(100, func() {
		if _, err := middleware.ParseEnvelope(frame); err != nil {
			t.Fatal(err)
		}
	})
}

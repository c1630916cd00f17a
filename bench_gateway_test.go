package dltprivacy_test

import (
	"context"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"testing"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/ledger"
	"dltprivacy/internal/middleware"
	"dltprivacy/internal/ordering"
	"dltprivacy/internal/pki"
	"dltprivacy/internal/workload"
)

// The gateway ablations: configurations the benchmark of record
// (benchmark/ + BENCHMARK.json) does not run, compared in process on one
// fixture. They are a developer's tool — run them with
//
//	go test -run '^$' -bench BenchmarkGateway -benchtime 300x .
//
// Nothing gates their timings and no file records them; the allocation
// counts that must not move are held by TestAllocationBudget.

// benchChannel is the one channel every ablation submits to.
const benchChannel = "deals"

// countingBackend counts commits without platform simulation, so the
// benches isolate chain overhead from backend cost.
type countingBackend struct{ txs atomic.Int64 }

func (c *countingBackend) Name() string { return "null" }

func (c *countingBackend) Commit(b ledger.Block) error {
	c.txs.Add(int64(len(b.Txs)))
	return nil
}

// gatewayBenchEnv is the shared consortium: an enrolled CA, three members
// and a pool of workload submissions, bare: a pipeline with a session stage
// MACs each on its member's session (newFastPathEnv).
type gatewayBenchEnv struct {
	ca         *pki.CA
	keys       map[string]*dcrypto.PrivateKey
	certs      map[string]pki.Certificate
	memberKeys map[string]dcrypto.PublicKey
	templates  []middleware.Request
}

func newGatewayBenchEnv(tb testing.TB) *gatewayBenchEnv {
	tb.Helper()
	wl := workload.New(1)
	members := wl.Orgs(3)
	trades, err := wl.Trades(members, 64, 96)
	if err != nil {
		tb.Fatal(err)
	}
	ca, err := pki.NewCA("bench-ca")
	if err != nil {
		tb.Fatal(err)
	}
	keys := make(map[string]*dcrypto.PrivateKey, len(members))
	certs := make(map[string]pki.Certificate, len(members))
	memberKeys := make(map[string]dcrypto.PublicKey, len(members))
	for _, m := range members {
		key, err := dcrypto.GenerateKey()
		if err != nil {
			tb.Fatal(err)
		}
		cert, err := ca.Enroll(m, key.Public())
		if err != nil {
			tb.Fatal(err)
		}
		keys[m], certs[m], memberKeys[m] = key, cert, key.Public()
	}
	templates := make([]middleware.Request, len(trades))
	for i, tr := range trades {
		payload, err := json.Marshal(tr)
		if err != nil {
			tb.Fatal(err)
		}
		templates[i] = middleware.Request{Channel: benchChannel, Principal: tr.Buyer, Payload: payload}
	}
	return &gatewayBenchEnv{ca: ca, keys: keys, certs: certs, memberKeys: memberKeys, templates: templates}
}

// fastPathEnv is one gateway assembled over the consortium — the pipeline
// under test on a solo orderer and a counting backend — with the requests
// a client of that pipeline sends.
type fastPathEnv struct {
	gw   *middleware.Gateway
	sink *countingBackend
	// templates are the consortium's submissions in the form this pipeline
	// authenticates: token + MAC with a session stage, bare without one;
	// frames are the gateway.submit frames a client sends them as.
	templates []middleware.Request
	frames    [][]byte
}

func newFastPathEnv(tb testing.TB, env *gatewayBenchEnv, cfg middleware.Config) *fastPathEnv {
	tb.Helper()
	dir := middleware.NewSyncDirectory()
	for id, key := range env.memberKeys {
		dir.AddMember(benchChannel, id, key)
	}
	gwEnv := middleware.Env{
		CAKey:     env.ca.PublicKey(),
		Directory: dir,
		Log:       audit.NewLog(),
		Revoker:   env.ca,
	}
	gw, err := middleware.NewGateway("bench-gw", cfg, gwEnv, ordering.New("bench-orderer", ordering.VisibilityEnvelope))
	if err != nil {
		tb.Fatal(err)
	}
	// The CA pushes revocations into every gateway built over it until the
	// gateway is closed.
	tb.Cleanup(gw.Close)
	fp := &fastPathEnv{gw: gw, sink: &countingBackend{}, templates: env.templates}
	gw.Bind(benchChannel, fp.sink)

	if mgr := gw.Sessions(); mgr != nil {
		// One handshake per member, outside any timed loop: the cost a
		// session amortizes is paid here, and the grant carries the
		// per-session key the requests are authenticated with.
		grants := make(map[string]middleware.SessionGrant, len(env.keys))
		for member, key := range env.keys {
			hello, err := middleware.NewSessionHello(member, env.certs[member], key)
			if err != nil {
				tb.Fatal(err)
			}
			if grants[member], err = mgr.Open(hello); err != nil {
				tb.Fatal(err)
			}
		}
		fp.templates = make([]middleware.Request, len(env.templates))
		for i, req := range env.templates {
			grant := grants[req.Principal]
			req.SessionToken = grant.Token
			middleware.MACRequest(&req, grant.MacKey)
			fp.templates[i] = req
		}
	}
	fp.frames = make([][]byte, len(fp.templates))
	for i := range fp.templates {
		b, err := middleware.EncodeWireRequest(&fp.templates[i], "")
		if err != nil {
			tb.Fatal(err)
		}
		fp.frames[i] = b
	}
	return fp
}

// benchSubmit times the pipeline's frames through AppendWire into one reused
// reply buffer, as the edge submits them, and checks that every submission
// was ordered and committed.
func benchSubmit(b *testing.B, env *gatewayBenchEnv, cfg middleware.Config) {
	b.Helper()
	fp := newFastPathEnv(b, env, cfg)
	ctx := context.Background()
	var dst []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if dst, err = fp.gw.AppendWire(ctx, dst[:0], middleware.TopicSubmit, fp.frames[i%len(fp.frames)], ""); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := fp.gw.Flush(ctx); err != nil {
		b.Fatal(err)
	}
	if stats := fp.gw.Stats(); stats.Ordered != uint64(b.N) || fp.sink.txs.Load() != int64(b.N) {
		b.Fatalf("ordered %d, backend committed %d, want %d", stats.Ordered, fp.sink.txs.Load(), b.N)
	}
}

// sessionStage is a session stage with the given parameters on top of
// hour-long lifetimes, so nothing expires inside a run.
func sessionStage(params map[string]string) middleware.StageConfig {
	session := map[string]string{"ttl": "1h", "idle": "1h"}
	for k, v := range params {
		session[k] = v
	}
	return middleware.StageConfig{Name: middleware.StageSession, Params: session}
}

// The stages the ablations and TestAllocationBudget assemble pipelines from.
// encryptStage wraps a fresh data key for every member on every request;
// keycacheEncrypt wraps once per epoch — with sessionStage in front of it,
// the session fast path.
var (
	encryptStage    = middleware.StageConfig{Name: middleware.StageEncrypt}
	keycacheEncrypt = middleware.StageConfig{Name: middleware.StageEncrypt, Params: map[string]string{"keyttl": "1h"}}
	auditStage      = middleware.StageConfig{Name: middleware.StageAudit, Params: map[string]string{"observer": "bench-op"}}
)

// BenchmarkGatewayChain measures the pipeline at increasing depth: each
// sub-benchmark adds one stage to the chain, so the per-stage overhead is
// the ns/op difference between consecutive lines. The baseline is a
// gateway whose only stage is audit (Config rejects an empty pipeline);
// its cost is visible directly as the +audit delta at depth 3. Traffic is
// the seeded workload generator's trade stream; the backend is a commit
// counter, so the numbers isolate middleware cost.
func BenchmarkGatewayChain(b *testing.B) {
	env := newGatewayBenchEnv(b)
	stages := []middleware.StageConfig{
		sessionStage(nil),
		encryptStage,
		auditStage,
		{Name: middleware.StageBatch, Params: map[string]string{"size": "8"}},
	}
	b.Run("baseline(audit-only)", func(b *testing.B) {
		benchSubmit(b, env, middleware.Config{Stages: []middleware.StageConfig{auditStage}})
	})
	for depth := 1; depth <= len(stages); depth++ {
		cfg := middleware.Config{Stages: stages[:depth]}
		b.Run(fmt.Sprintf("stages=%d(+%s)", depth, stages[depth-1].Name), func(b *testing.B) {
			benchSubmit(b, env, cfg)
		})
	}
}

// BenchmarkGatewaySession compares the per-request key wrap against the
// epoch key cache on a session pipeline: certificate verification is paid
// once at session open and each submission verifies one HMAC under the
// session's key — symmetric, pooled, allocation-free — while the channel
// data key is wrapped for every member on every request, or once per epoch
// and reused.
func BenchmarkGatewaySession(b *testing.B) {
	env := newGatewayBenchEnv(b)
	for _, tc := range []struct {
		name   string
		stages []middleware.StageConfig
	}{
		{"session(amortized-authn)", []middleware.StageConfig{sessionStage(nil), encryptStage}},
		{"session(amortized-authn+keycache)", []middleware.StageConfig{sessionStage(nil), keycacheEncrypt}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			benchSubmit(b, env, middleware.Config{Stages: tc.stages})
		})
	}
}

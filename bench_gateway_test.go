package dltprivacy_test

import (
	"context"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

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
// and a pool of workload submissions, each carrying its member's
// certificate and signature — what a sessionless client sends.
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
		req := middleware.Request{
			Channel:   benchChannel,
			Principal: tr.Buyer,
			Payload:   payload,
			Cert:      certs[tr.Buyer],
		}
		if err := middleware.SignRequest(&req, keys[tr.Buyer]); err != nil {
			tb.Fatal(err)
		}
		templates[i] = req
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
	// authenticates: certificate + signature without a session stage,
	// token + signature under reqauth=sig, token + MAC under reqauth=mac.
	templates []middleware.Request
}

func newFastPathEnv(tb testing.TB, env *gatewayBenchEnv, cfg middleware.Config) *fastPathEnv {
	tb.Helper()
	dir := middleware.NewSyncDirectory()
	dir.SetChannel(benchChannel, env.memberKeys)
	gwEnv := middleware.Env{
		CAKey:     env.ca.PublicKey(),
		Directory: dir,
		Log:       audit.NewLog(),
		Revoker:   env.ca,
		Sleep:     func(time.Duration) {},
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

	mgr := gw.Sessions()
	if mgr == nil {
		return fp
	}
	// One handshake per member, outside any timed loop: the cost a session
	// amortizes is paid here, and under reqauth=mac the grant carries the
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
		// Token instead of certificate: the session path never touches the
		// cert. The signature does not cover either, so it stays valid.
		req.Cert = pki.Certificate{}
		req.SessionToken = grant.Token
		if len(grant.MacKey) > 0 {
			req.Sig = dcrypto.Signature{} // the MAC path never consults it
			middleware.MACRequest(&req, grant.MacKey)
		}
		fp.templates[i] = req
	}
	return fp
}

// benchSubmit times Gateway.Submit over the pipeline's templates and checks
// that every submission was ordered and committed.
func benchSubmit(b *testing.B, env *gatewayBenchEnv, cfg middleware.Config) {
	b.Helper()
	fp := newFastPathEnv(b, env, cfg)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := fp.templates[i%len(fp.templates)]
		if err := fp.gw.Submit(ctx, &req); err != nil {
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
	authnStage      = middleware.StageConfig{Name: middleware.StageAuthn}
	encryptStage    = middleware.StageConfig{Name: middleware.StageEncrypt}
	keycacheEncrypt = middleware.StageConfig{Name: middleware.StageEncrypt, Params: map[string]string{"keyttl": "1h"}}
	auditStage      = middleware.StageConfig{Name: middleware.StageAudit, Params: map[string]string{"observer": "bench-op"}}
)

// BenchmarkGatewayChain measures the pipeline at increasing depth: each
// sub-benchmark adds one stage to the chain, so the per-stage overhead is
// the ns/op difference between consecutive lines. The baseline is a
// gateway whose only stage is a permissive rate limiter (Config rejects
// an empty pipeline); its cost is visible directly as the +ratelimit
// delta at depth 4 and is negligible next to the crypto stages. Traffic
// is the seeded workload generator's trade stream; the backend is a
// commit counter, so the numbers isolate middleware cost.
func BenchmarkGatewayChain(b *testing.B) {
	env := newGatewayBenchEnv(b)
	ratelimit := middleware.StageConfig{Name: middleware.StageRateLimit, Params: map[string]string{"rate": "1e12", "burst": "1e12"}}
	stages := []middleware.StageConfig{
		authnStage,
		encryptStage,
		auditStage,
		ratelimit,
		{Name: middleware.StageRetry, Params: map[string]string{"attempts": "3", "backoff": "1ms"}},
		{Name: middleware.StageBreaker, Params: map[string]string{"threshold": "5", "cooldown": "1s"}},
		{Name: middleware.StageBatch, Params: map[string]string{"size": "8"}},
	}
	b.Run("baseline(ratelimit-only)", func(b *testing.B) {
		benchSubmit(b, env, middleware.Config{Stages: []middleware.StageConfig{ratelimit}})
	})
	for depth := 1; depth <= len(stages); depth++ {
		cfg := middleware.Config{Stages: stages[:depth]}
		b.Run(fmt.Sprintf("stages=%d(+%s)", depth, stages[depth-1].Name), func(b *testing.B) {
			benchSubmit(b, env, cfg)
		})
	}
}

// BenchmarkGatewaySession compares the per-request security path against
// the session-amortized one on an otherwise identical pipeline:
//
//   - per-request: every submission pays full certificate verification
//     (authn) and a fresh per-member hybrid key-wrap (encrypt).
//   - session: certificate verification is paid once at session open; each
//     submission verifies one signature against the cached principal, and
//     the channel data key is wrapped once per epoch and reused.
//
// The middle variant isolates the two contributions by amortizing authn
// while still paying the per-request wrap.
func BenchmarkGatewaySession(b *testing.B) {
	env := newGatewayBenchEnv(b)
	for _, tc := range []struct {
		name   string
		stages []middleware.StageConfig
	}{
		{"per-request(authn+wrap)", []middleware.StageConfig{authnStage, encryptStage}},
		{"session(amortized-authn)", []middleware.StageConfig{sessionStage(nil), encryptStage}},
		{"session(amortized-authn+keycache)", []middleware.StageConfig{sessionStage(nil), keycacheEncrypt}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			benchSubmit(b, env, middleware.Config{Stages: tc.stages})
		})
	}
}

// BenchmarkGatewaySessionMAC compares steady-state request authentication
// on an otherwise identical session+keycache pipeline:
//
//   - reqauth=sig: every submission verifies an ECDSA P-256 signature
//     against the session's cached key.
//   - reqauth=mac: every submission verifies an HMAC under the per-session
//     key from the grant — symmetric, pooled, allocation-free.
//
// reqauth=mac allocates at most half of what reqauth=sig does; that relation
// is a row of TestAllocationBudget.
func BenchmarkGatewaySessionMAC(b *testing.B) {
	env := newGatewayBenchEnv(b)
	for _, reqauth := range []string{"sig", "mac"} {
		b.Run("reqauth="+reqauth, func(b *testing.B) {
			benchSubmit(b, env, middleware.Config{
				Stages: []middleware.StageConfig{sessionStage(map[string]string{"reqauth": reqauth}), keycacheEncrypt},
			})
		})
	}
}

// BenchmarkGatewayRevokeCheck prices the revocation plane on the session
// hot path, on BenchmarkGatewaySession's session(amortized-authn+keycache)
// pipeline with each checking mode:
//
//   - checks=off: the revoker is configured but never consulted on the
//     hot path (the pre-revocation-plane cost, for reference).
//   - checks=resolve: every token resolution probes the revoker's
//     version (one atomic load while nothing is revoked).
//   - checks=sweep: every resolution compares the sweep deadline instead
//     of touching the revoker.
//
// No certificate is revoked during the timed loop: the benchmark measures
// the steady-state cost of being able to notice a revocation, not the
// one-off cost of processing one.
func BenchmarkGatewayRevokeCheck(b *testing.B) {
	env := newGatewayBenchEnv(b)
	for _, mode := range []string{"off", "resolve", "sweep"} {
		params := map[string]string{"revokecheck": mode}
		if mode == "sweep" {
			params["revokesweep"] = "1m"
		}
		b.Run("checks="+mode, func(b *testing.B) {
			benchSubmit(b, env, middleware.Config{Stages: []middleware.StageConfig{sessionStage(params), keycacheEncrypt}})
		})
	}
}

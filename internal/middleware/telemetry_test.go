package middleware

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/ledger"
	"dltprivacy/internal/ordering"
	"dltprivacy/internal/telemetry"
	"dltprivacy/internal/transport"
)

// fnStage is a scriptable stage for instrumentation tests.
type fnStage struct {
	name string
	fn   func(ctx context.Context, req *Request, next Handler) error
}

func (s *fnStage) Name() string { return s.name }
func (s *fnStage) Handle(ctx context.Context, req *Request, next Handler) error {
	return s.fn(ctx, req, next)
}

// spin burns CPU for roughly d without sleeping, so stage timings stay
// meaningful even under heavy scheduler noise.
func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// TestExclusiveStageTiming pins the exclusive-time identity for a linear
// chain: a stage's inclusive time splits exactly into its exclusive time
// plus its direct downstream's inclusive time — both sides computed from
// the same measurements, so the assertion is exact, not approximate.
func TestExclusiveStageTiming(t *testing.T) {
	outer := &fnStage{name: "outer", fn: func(ctx context.Context, req *Request, next Handler) error {
		spin(2 * time.Millisecond)
		return next(ctx, req)
	}}
	inner := &fnStage{name: "inner", fn: func(ctx context.Context, req *Request, next Handler) error {
		spin(2 * time.Millisecond)
		return next(ctx, req)
	}}
	c := NewChain(nil, outer, inner)
	if err := c.Execute(context.Background(), &Request{Channel: "c", Principal: "p"}); err != nil {
		t.Fatal(err)
	}
	stats := c.Stats()
	o, i := stats[0], stats[1]
	if o.Nanos != o.ExclusiveNanos+i.Nanos {
		t.Errorf("outer inclusive %d != exclusive %d + inner inclusive %d", o.Nanos, o.ExclusiveNanos, i.Nanos)
	}
	// The innermost stage's downstream (the terminal) is uninstrumented,
	// so its exclusive and inclusive times coincide.
	if i.Nanos != i.ExclusiveNanos {
		t.Errorf("inner inclusive %d != exclusive %d", i.Nanos, i.ExclusiveNanos)
	}
	if o.ExclusiveNanos < uint64(time.Millisecond) {
		t.Errorf("outer exclusive %d implausibly small for a 2ms spin", o.ExclusiveNanos)
	}
	// The latency histogram observed the same exclusive value.
	if s := c.StageLatency("outer").Snapshot(); s.Count != 1 || s.Sum != o.ExclusiveNanos {
		t.Errorf("outer histogram sum/count = %d/%d, want %d/1", s.Sum, s.Count, o.ExclusiveNanos)
	}
}

// TestExclusiveStageTimingReentrant pins the semantics satellite: a
// re-entrant stage invoking its downstream several times (retry) must not
// have those attempts double-counted in its exclusive time, and the
// identity incl == excl + sum-of-direct-downstream-incl still holds.
func TestExclusiveStageTimingReentrant(t *testing.T) {
	const attempts = 3
	reentrant := &fnStage{name: "retry", fn: func(ctx context.Context, req *Request, next Handler) error {
		var err error
		for a := 0; a < attempts; a++ {
			spin(time.Millisecond)
			err = next(ctx, req)
		}
		return err
	}}
	inner := &fnStage{name: "inner", fn: func(ctx context.Context, req *Request, next Handler) error {
		spin(time.Millisecond)
		return next(ctx, req)
	}}
	c := NewChain(nil, reentrant, inner)
	if err := c.Execute(context.Background(), &Request{Channel: "c", Principal: "p"}); err != nil {
		t.Fatal(err)
	}
	stats := c.Stats()
	r, i := stats[0], stats[1]
	if i.Calls != attempts {
		t.Fatalf("inner calls = %d, want %d", i.Calls, attempts)
	}
	// All three downstream invocations accumulate before subtraction.
	if r.Nanos != r.ExclusiveNanos+i.Nanos {
		t.Errorf("retry inclusive %d != exclusive %d + inner inclusive %d (across %d attempts)",
			r.Nanos, r.ExclusiveNanos, i.Nanos, attempts)
	}
	// The inclusive sum alone would read as ~2x wall time here; the
	// exclusive sums approximate it instead.
	wall := r.Nanos
	exclSum := r.ExclusiveNanos + i.ExclusiveNanos
	if exclSum != wall {
		t.Errorf("sum of exclusive times %d != wall %d", exclSum, wall)
	}
}

// TestExclusiveStageTimingBatch covers the zero-invoke direction of
// re-entrancy: a buffering batch stage calls next zero times at
// submission, so its exclusive time equals its inclusive time — and the
// later group release (to the uninstrumented terminal) is re-homed into
// the releasing call's downstream accumulator, so the batch stage's
// exclusive time stays the buffering bookkeeping rather than absorbing
// the whole group's delivery work.
func TestExclusiveStageTimingBatch(t *testing.T) {
	var ordered atomic.Uint64
	terminal := func(context.Context, *Request) error {
		ordered.Add(1)
		return nil
	}
	b, err := NewBatch(2)
	if err != nil {
		t.Fatal(err)
	}
	c := NewChain(terminal, b)
	for n := 0; n < 2; n++ {
		if err := c.Execute(context.Background(), &Request{Channel: "c", Principal: "p"}); err != nil {
			t.Fatal(err)
		}
	}
	if got := ordered.Load(); got != 2 {
		t.Fatalf("terminal saw %d requests, want 2 after the batch released", got)
	}
	s := c.Stats()[0]
	if s.Calls != 2 {
		t.Fatalf("batch calls = %d, want 2", s.Calls)
	}
	if s.ExclusiveNanos > s.Nanos {
		t.Errorf("batch exclusive %d > inclusive %d", s.ExclusiveNanos, s.Nanos)
	}
	// The filling call's frame must have seen the release loop as
	// downstream time: exclusive is strictly less than inclusive once a
	// release has run under an instrumented Handle.
	if s.ExclusiveNanos == s.Nanos {
		t.Errorf("batch exclusive %d == inclusive %d: group release was not re-homed into the flusher's downstream time", s.ExclusiveNanos, s.Nanos)
	}
}

func TestTraceIDCodecRoundTrips(t *testing.T) {
	req := &Request{Channel: "deals", Principal: "alice", Payload: []byte("p"),
		SessionToken: "tok", TraceID: 0xfeedface}
	traced, err := EncodeWireRequest(req, "")
	if err != nil {
		t.Fatal(err)
	}
	var got Request
	if err := decodeRequestBinary(traced, &got, nil); err != nil {
		t.Fatal(err)
	}
	if got.TraceID != req.TraceID {
		t.Errorf("trace ID %#x, want %#x", got.TraceID, req.TraceID)
	}
	// The untraced common case costs the frame one byte.
	req.TraceID = 0
	untraced, err := EncodeWireRequest(req, "")
	if err != nil {
		t.Fatal(err)
	}
	if want := len(traced) - uvarintSize(0xfeedface) + 1; len(untraced) != want {
		t.Errorf("untraced frame is %d bytes, want %d", len(untraced), want)
	}
}

// TestGatewayTracingEndToEnd drives a traced submission over the binary
// wire and asserts the trace ID survives the frame round-trip into the
// gateway's ring with per-stage spans attached.
func TestGatewayTracingEndToEnd(t *testing.T) {
	ca, ps := enroll(t, "alice")
	cfg := Config{
		Stages: []StageConfig{
			{Name: StageSession, Params: map[string]string{"ttl": "1h", "idle": "1h", "reqauth": "mac"}},
			{Name: StageAuthn},
		},
		Trace: "1000000", // local sampler effectively off: only carried IDs below
	}
	backend := ordering.New("op", ordering.VisibilityFull)
	backend.Subscribe("deals", func(ledger.Block) error { return nil })
	gw, err := NewGateway("gw", cfg, Env{CAKey: ca.PublicKey()}, backend)
	if err != nil {
		t.Fatal(err)
	}
	net := transport.New()
	if err := gw.AttachTransport(context.Background(), net, "gateway"); err != nil {
		t.Fatal(err)
	}
	grant, err := OpenSessionOver(net, "alice", "gateway", ps["alice"].cert, ps["alice"].key)
	if err != nil {
		t.Fatal(err)
	}

	req := &Request{Channel: "deals", Principal: "alice", Payload: []byte("x"),
		SessionToken: grant.Token, TraceID: 0xabc123}
	MACRequest(req, grant.MacKey)
	if _, err := SubmitOver(net, "alice", "gateway", req); err != nil {
		t.Fatal(err)
	}
	recs := gw.Tracer().Snapshot()
	if len(recs) != 1 {
		t.Fatalf("trace ring has %d records, want 1 (the wire-carried ID)", len(recs))
	}
	rec := recs[0]
	if rec.ID != "0000000000abc123" {
		t.Fatalf("trace ID %s, want 0000000000abc123 (wire-carried)", rec.ID)
	}
	stages := make([]string, len(rec.Spans))
	for i, s := range rec.Spans {
		stages[i] = s.Stage
	}
	// Spans land in completion order: the innermost stage finishes first.
	if len(rec.Spans) != 2 || stages[0] != StageAuthn || stages[1] != StageSession {
		t.Fatalf("spans = %v, want [authn session]", stages)
	}
	if rec.DurationNanos <= 0 {
		t.Errorf("trace duration %d, want > 0", rec.DurationNanos)
	}
}

// TestGatewaySampledTracing checks the 1-in-N local sampler end to end
// and that unsampled requests carry no trace.
func TestGatewaySampledTracing(t *testing.T) {
	ca, ps := enroll(t, "alice")
	cfg := Config{
		Stages: []StageConfig{{Name: StageAuthn}},
		Trace:  "4",
	}
	backend := ordering.New("op", ordering.VisibilityFull)
	backend.Subscribe("deals", func(ledger.Block) error { return nil })
	gw, err := NewGateway("gw", cfg, Env{CAKey: ca.PublicKey()}, backend)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 16; n++ {
		req := signedRequest(t, ps["alice"], "deals", []byte(fmt.Sprintf("p%d", n)))
		if err := gw.Submit(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	if got := gw.Stats().TracesSampled; got != 4 {
		t.Fatalf("sampled %d of 16 at trace=4, want 4", got)
	}
	recs := gw.Tracer().Snapshot()
	if len(recs) != 4 {
		t.Fatalf("ring holds %d traces, want 4", len(recs))
	}
	for _, r := range recs {
		if len(r.Spans) != 1 || r.Spans[0].Stage != StageAuthn {
			t.Fatalf("trace %s spans = %+v, want one authn span", r.ID, r.Spans)
		}
	}
}

func TestConfigTraceValidation(t *testing.T) {
	base := []StageConfig{{Name: StageAuthn}}
	for _, bad := range []string{"0", "-3", "fast", "1.5"} {
		cfg := Config{Stages: base, Trace: bad}
		if err := cfg.validate(); !errors.Is(err, ErrBadConfig) {
			t.Errorf("trace=%q validated, want ErrBadConfig (got %v)", bad, err)
		}
	}
	for _, good := range []string{"", "off", "1", "64"} {
		cfg := Config{Stages: base, Trace: good}
		if err := cfg.validate(); err != nil {
			t.Errorf("trace=%q rejected: %v", good, err)
		}
	}
}

// TestGatewayRegisterMetrics wires a full pipeline into a registry and
// checks the Prometheus exposition carries every subsystem's families.
func TestGatewayRegisterMetrics(t *testing.T) {
	ca, ps := enroll(t, "alice", "bob")
	dir := StaticDirectory{"deals": {"alice": ps["alice"].key.Public(), "bob": ps["bob"].key.Public()}}
	shards := []ordering.Backend{
		ordering.New("op-0", ordering.VisibilityEnvelope),
		ordering.New("op-1", ordering.VisibilityEnvelope),
	}
	sharded, err := ordering.NewSharded(shards)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Stages: []StageConfig{
			{Name: StageSession, Params: map[string]string{"ttl": "1h", "idle": "1h"}},
			{Name: StageAuthn},
			{Name: StageEncrypt, Params: map[string]string{"keyttl": "1h"}},
			{Name: StageAudit},
		},
		Shards: 2,
		Trace:  "2",
	}
	gw, err := NewGateway("gw", cfg, Env{CAKey: ca.PublicKey(), Directory: dir, Log: audit.NewLog()}, sharded)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	if err := gw.RegisterMetrics(reg); err != nil {
		t.Fatal(err)
	}
	// Re-registering the same gateway must fail loudly, not double-count.
	if err := gw.RegisterMetrics(reg); err == nil {
		t.Fatal("second RegisterMetrics into the same registry succeeded")
	}
	sharded.Subscribe("deals", func(ledger.Block) error { return nil })
	for n := 0; n < 4; n++ {
		if err := gw.Submit(context.Background(), signedRequest(t, ps["alice"], "deals", []byte(fmt.Sprintf("p%d", n)))); err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`confmw_stage_latency_seconds_bucket{stage="session",le="+Inf"}`,
		`confmw_stage_calls_total{stage="authn"} 4`,
		"confmw_gateway_submitted_total 4",
		"confmw_gateway_ordered_total 4",
		"confmw_gateway_rejected_total 0",
		"confmw_sessions_live 0",
		"confmw_sessions_opened_total 0",
		// Four certificate-bearing requests by one principal: the authn
		// stage's verifier checked the CA signature once. Nothing opened a
		// session, so the manager's verifier saw no certificate.
		"confmw_authn_cert_verifications_total 1",
		"confmw_authn_cert_cache_hits_total 3",
		"confmw_session_cert_verifications_total 0",
		"confmw_session_cert_cache_hits_total 0",
		"confmw_key_epochs_rotated_total 1",
		// The live epoch's head by the OPERATIONS.md sizing rule: 30 fixed
		// for channel "deals", 66 for the ephemeral key, 33 for the key
		// commitment, len(id)+34 for each of alice and bob.
		"confmw_envelope_head_bytes 205",
		`confmw_shard_routed_txs_total{shard="`,
		"confmw_revocation_sweeps_total 0",
		"confmw_traces_sampled_total 2",
		"confmw_backend_committed_blocks_total 0",
		// The audit stage saw four envelopes and one submitter identity.
		"confmw_audit_log_observations 5",
		"confmw_audit_log_bytes ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	st := gw.Stats()
	if st.AuditLogObservations != 5 || st.AuditLogBytes == 0 {
		t.Errorf("Stats: AuditLogObservations = %d, AuditLogBytes = %d, want 5 and a size", st.AuditLogObservations, st.AuditLogBytes)
	}
	if st.AuthnCertVerifications != 1 || st.AuthnCertCacheHits != 3 || st.Sessions.CertVerifications != 0 || st.Sessions.CertCacheHits != 0 {
		t.Errorf("Stats: authn verifications %d hits %d, session verifications %d hits %d; want 1, 3, 0, 0",
			st.AuthnCertVerifications, st.AuthnCertCacheHits, st.Sessions.CertVerifications, st.Sessions.CertCacheHits)
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", out)
	}
}

// TestGatewayStatsConsistencyUnderRace is the snapshot-consistency
// satellite: submitters, session churners, and closers hammer the gateway
// while a poller reads Stats(), asserting every total is monotonic across
// polls and the cross-counter invariants hold in every snapshot —
// sessions opened >= expired+evicted+revoked, and per shard routed txs
// >= delivered blocks (single subscriber, one-tx blocks). Run with -race
// this also proves the snapshot path is data-race free.
func TestGatewayStatsConsistencyUnderRace(t *testing.T) {
	ca, ps := enroll(t, "alice", "bob")
	shards := []ordering.Backend{
		ordering.New("op-0", ordering.VisibilityFull),
		ordering.New("op-1", ordering.VisibilityFull),
	}
	sharded, err := ordering.NewSharded(shards)
	if err != nil {
		t.Fatal(err)
	}
	channels := []string{"c0", "c1", "c2", "c3"}
	for _, ch := range channels {
		sharded.Subscribe(ch, func(ledger.Block) error { return nil })
	}
	cfg := Config{
		Stages: []StageConfig{
			{Name: StageSession, Params: map[string]string{"ttl": "1h", "idle": "1h", "reqauth": "mac", "maxperprincipal": "1"}},
			{Name: StageAuthn},
		},
		Shards: 2,
		Trace:  "16",
	}
	gw, err := NewGateway("gw", cfg, Env{CAKey: ca.PublicKey()}, sharded)
	if err != nil {
		t.Fatal(err)
	}
	mgr := gw.Sessions()
	grant, err := mgr.Open(mustTestHello(t, ps["bob"]))
	if err != nil {
		t.Fatal(err)
	}

	const iters = 400
	var workers sync.WaitGroup
	// Submitters: MAC-authenticated session traffic from bob across all
	// channels and both shards.
	for w := 0; w < 2; w++ {
		workers.Add(1)
		go func(seed int) {
			defer workers.Done()
			for i := 0; i < iters; i++ {
				req := &Request{
					Channel: channels[(seed+i)%len(channels)], Principal: "bob",
					Payload: []byte{byte(i), byte(seed)}, SessionToken: grant.Token,
				}
				MACRequest(req, grant.MacKey)
				// bob's session may be closed by the closer below mid-run;
				// rejections are part of the churn being measured.
				_ = gw.Submit(context.Background(), req)
			}
		}(w)
	}
	// Churner: alice opens sessions past her cap of 1, forcing evictions.
	workers.Add(1)
	go func() {
		defer workers.Done()
		for i := 0; i < iters/4; i++ {
			if _, err := mgr.Open(mustTestHello(t, ps["alice"])); err != nil {
				t.Errorf("open: %v", err)
				return
			}
		}
	}()
	workersDone := make(chan struct{})
	go func() { workers.Wait(); close(workersDone) }()
	// Poller: every snapshot must be internally consistent and monotonic
	// against the previous one. It runs until the workers finish, then
	// takes one final racing-free look.
	var pollerDone sync.WaitGroup
	pollerDone.Add(1)
	go func() {
		defer pollerDone.Done()
		var prev GatewayStats
		for done := false; !done; {
			select {
			case <-workersDone:
				done = true
			default:
			}
			s := gw.Stats()
			if s.Submitted < prev.Submitted || s.Ordered < prev.Ordered || s.Rejected < prev.Rejected {
				t.Errorf("gateway totals went backwards: %+v then %+v", prev, s)
			}
			if s.Sessions != nil {
				ss := s.Sessions
				if ss.Opened < ss.Expired+ss.Evicted+ss.Revoked {
					t.Errorf("session invariant violated: opened %d < expired %d + evicted %d + revoked %d",
						ss.Opened, ss.Expired, ss.Evicted, ss.Revoked)
				}
				if prev.Sessions != nil && ss.Opened < prev.Sessions.Opened {
					t.Errorf("sessions opened went backwards: %d then %d", prev.Sessions.Opened, ss.Opened)
				}
			}
			for i, sh := range s.Shards {
				if sh.RoutedTxs < sh.DeliveredBlocks {
					t.Errorf("shard %d invariant violated: routed %d < delivered %d", i, sh.RoutedTxs, sh.DeliveredBlocks)
				}
				if len(prev.Shards) > i && sh.RoutedTxs < prev.Shards[i].RoutedTxs {
					t.Errorf("shard %d routed went backwards: %d then %d", i, prev.Shards[i].RoutedTxs, sh.RoutedTxs)
				}
			}
			prev = s
			runtime.Gosched()
		}
	}()
	pollerDone.Wait()

	// Final snapshot sanity: everything submitted was either ordered or
	// rejected, and the session churn showed up.
	s := gw.Stats()
	if s.Submitted+s.Rejected != 2*iters {
		t.Errorf("submitted %d + rejected %d != %d requests sent", s.Submitted, s.Rejected, 2*iters)
	}
	if s.Sessions.Evicted == 0 {
		t.Errorf("cap churner produced no evictions: %+v", s.Sessions)
	}
}

func mustTestHello(t *testing.T, p *principal) SessionHello {
	t.Helper()
	return mustHelloAt(t, p, time.Now())
}

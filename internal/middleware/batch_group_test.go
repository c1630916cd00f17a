package middleware

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/ledger"
	"dltprivacy/internal/ordering"
	"dltprivacy/internal/telemetry"
)

// groupCfg is the canonical group-seal pipeline: authn, cached-key encrypt
// in deferred mode, terminal batch sealing (channel, epoch) groups.
func groupCfg(size int) Config {
	return Config{
		Stages: []StageConfig{
			{Name: StageAuthn},
			{Name: StageEncrypt, Params: map[string]string{"keyttl": "1h"}},
			{Name: StageBatch, Params: map[string]string{"size": fmt.Sprint(size), "groupseal": "on"}},
		},
	}
}

// TestGroupSealReleasesOneEnvelope drives group seal end to end: N
// submissions release as ONE synthetic group transaction whose
// envelope opens back to the original payloads, byte-identical to what the
// per-envelope seal of the same plaintext decrypts to.
func TestGroupSealReleasesOneEnvelope(t *testing.T) {
	t.Run(CodecBinary, func(t *testing.T) {
		ca, ps := enroll(t, "alice", "bob")
		dir := StaticDirectory{"deals": {
			"alice": ps["alice"].key.Public(),
			"bob":   ps["bob"].key.Public(),
		}}
		env := Env{CAKey: ca.PublicKey(), Directory: dir}
		sink := &accept{}
		chain, err := groupCfg(3).Build(env, sink.handler)
		if err != nil {
			t.Fatal(err)
		}
		payloads := [][]byte{[]byte("trade-0"), []byte("trade-1"), []byte("trade-2")}
		for i, p := range payloads {
			if err := chain.Execute(context.Background(), signedRequest(t, ps["alice"], "deals", p)); err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
		}
		if sink.count() != 1 {
			t.Fatalf("terminal saw %d requests, want 1 group release for 3 submissions", sink.count())
		}
		greq := sink.seen[0]
		if greq.Principal != BatchPrincipal {
			t.Errorf("group principal = %q, want %q", greq.Principal, BatchPrincipal)
		}
		if got, want := greq.Meta[MetaBatch], GroupEnvelopeScheme+" n=3"; got != want {
			t.Errorf("batch meta = %q, want %q", got, want)
		}
		if !bytes.HasPrefix(greq.Payload, []byte{binaryMagic, binaryKindGroupEnvelope}) {
			t.Fatalf("group payload starts % x, want a group envelope frame", greq.Payload[:2])
		}
		genv, err := ParseGroupEnvelope(greq.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if genv.Channel != "deals" || genv.Count != 3 {
			t.Fatalf("group envelope channel/count = %s/%d, want deals/3", genv.Channel, genv.Count)
		}
		// Every channel member opens the group back to the exact
		// submission payloads.
		for _, member := range []string{"alice", "bob"} {
			segs, err := OpenGroupEnvelope(genv, member, ps[member].key)
			if err != nil {
				t.Fatalf("open as %s: %v", member, err)
			}
			if len(segs) != len(payloads) {
				t.Fatalf("%s recovered %d payloads, want %d", member, len(segs), len(payloads))
			}
			for i := range payloads {
				if !bytes.Equal(segs[i], payloads[i]) {
					t.Errorf("%s payload %d = %q, want %q", member, i, segs[i], payloads[i])
				}
			}
		}
		// Non-members stay locked out.
		if _, err := OpenGroupEnvelope(genv, "mallory", ps["alice"].key); !errors.Is(err, ErrNotRecipient) {
			t.Errorf("non-member open = %v, want ErrNotRecipient", err)
		}

		// The per-envelope path over the same plaintext decrypts to the
		// same bytes: group sealing changes the framing, not the data.
		single := &accept{}
		cfg := Config{
			Stages: []StageConfig{
				{Name: StageAuthn},
				{Name: StageEncrypt, Params: map[string]string{"keyttl": "1h"}},
			},
		}
		schain, err := cfg.Build(env, single.handler)
		if err != nil {
			t.Fatal(err)
		}
		if err := schain.Execute(context.Background(), signedRequest(t, ps["alice"], "deals", payloads[0])); err != nil {
			t.Fatal(err)
		}
		senv, err := ParseEnvelope(single.seen[0].Payload)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := OpenEnvelope(senv, "bob", ps["bob"].key)
		if err != nil {
			t.Fatal(err)
		}
		gsegs, err := OpenGroupEnvelope(genv, "bob", ps["bob"].key)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(plain, gsegs[0]) {
			t.Errorf("per-envelope plaintext %q != group segment %q", plain, gsegs[0])
		}
	})
}

// TestGroupSealFlushDrainsOpenBuckets covers the partial-bucket path: a
// flush seals and releases whatever each (channel, epoch) bucket holds.
func TestGroupSealFlushDrainsOpenBuckets(t *testing.T) {
	ca, ps := enroll(t, "alice")
	dir := StaticDirectory{
		"deals":  {"alice": ps["alice"].key.Public()},
		"trades": {"alice": ps["alice"].key.Public()},
	}
	sink := &accept{}
	chain, err := groupCfg(8).Build(Env{CAKey: ca.PublicKey(), Directory: dir}, sink.handler)
	if err != nil {
		t.Fatal(err)
	}
	b, ok := chain.stages[len(chain.stages)-1].(*Batch)
	if !ok || !b.GroupSeal() {
		t.Fatal("batch stage not in group-seal mode")
	}
	for _, ch := range []string{"deals", "trades", "deals"} {
		if err := chain.Execute(context.Background(), signedRequest(t, ps["alice"], ch, []byte("p-"+ch))); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.Pending(); got != 3 {
		t.Fatalf("pending = %d, want 3 buffered across two channel buckets", got)
	}
	if err := b.Flush(context.Background()); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if sink.count() != 2 {
		t.Fatalf("terminal saw %d releases, want 2 (one per channel bucket)", sink.count())
	}
	if b.Pending() != 0 {
		t.Fatalf("pending = %d after flush, want 0", b.Pending())
	}
	if b.GroupsSealed() != 2 || b.GroupTxs() != 3 {
		t.Fatalf("sealed/txs = %d/%d, want 2/3", b.GroupsSealed(), b.GroupTxs())
	}
}

// TestBatchReleaseSpanOnOwnTrace is the trace re-homing regression
// (satellite 1): each buffered member's "batch.release" span must land on
// that member's OWN trace — the old code attributed every member's
// delivery to the filling request's trace and the batch stage's exclusive
// time.
func TestBatchReleaseSpanOnOwnTrace(t *testing.T) {
	ca, ps := enroll(t, "alice")
	cfg := Config{
		Stages: []StageConfig{
			{Name: StageAuthn},
			{Name: StageBatch, Params: map[string]string{"size": "3"}},
		},
		Trace: "1000000", // local sampler effectively off: carried IDs only
	}
	backend := ordering.New("op", ordering.VisibilityFull)
	backend.Subscribe("deals", func(ledger.Block) error { return nil })
	gw, err := NewGateway("gw", cfg, Env{CAKey: ca.PublicKey()}, backend)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		req := signedRequest(t, ps["alice"], "deals", []byte{byte(i)})
		req.TraceID = uint64(0xb0 + i)
		if err := gw.Submit(context.Background(), req); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	recs := gw.Tracer().Snapshot()
	if len(recs) != 3 {
		t.Fatalf("trace ring has %d records, want 3", len(recs))
	}
	for _, rec := range recs {
		var releases int
		for _, s := range rec.Spans {
			if s.Stage == "batch.release" {
				releases++
				if s.Err != "" {
					t.Errorf("trace %s release span carries error %q", rec.ID, s.Err)
				}
			}
		}
		if releases != 1 {
			t.Errorf("trace %s has %d batch.release spans, want exactly 1 (its own delivery)", rec.ID, releases)
		}
	}
}

// TestGroupReleaseSpanAmortizedShare checks the group-mode spans: every
// member's trace gets one release span whose inclusive time is the whole
// group release and whose exclusive time is the 1/N amortized share.
func TestGroupReleaseSpanAmortizedShare(t *testing.T) {
	ca, ps := enroll(t, "alice")
	dir := StaticDirectory{"deals": {"alice": ps["alice"].key.Public()}}
	sink := &accept{}
	chain, err := groupCfg(2).Build(Env{CAKey: ca.PublicKey(), Directory: dir}, sink.handler)
	if err != nil {
		t.Fatal(err)
	}
	tracer := telemetry.NewTracer(1, 8)
	traces := make([]*telemetry.Trace, 2)
	for i := range traces {
		req := signedRequest(t, ps["alice"], "deals", []byte{byte(i)})
		traces[i] = tracer.For(uint64(0xc0 + i))
		req.trace = traces[i]
		if err := chain.Execute(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		tracer.Finish(traces[i], nil)
	}
	for i := range traces {
		rec := tracer.Snapshot()[i]
		var span *telemetry.Span
		for j := range rec.Spans {
			if rec.Spans[j].Stage == "batch.release" {
				span = &rec.Spans[j]
			}
		}
		if span == nil {
			t.Fatalf("trace %s has no batch.release span: %+v", rec.ID, rec.Spans)
		}
		if span.ExclusiveNanos != span.Nanos/2 {
			t.Errorf("trace %s release excl %d, want amortized half of incl %d", rec.ID, span.ExclusiveNanos, span.Nanos)
		}
	}
}

// TestAuditSkipsRejectedSubmission is the record-after-accept regression
// (satellite 2): a submission the downstream rejects — here a tripped
// breaker — never reached the observable surface and must leave NO entry
// in the leakage log, not even metadata.
func TestAuditSkipsRejectedSubmission(t *testing.T) {
	log := audit.NewLog()
	au, err := NewAudit(log, "gw-op")
	if err != nil {
		t.Fatal(err)
	}
	clock := newFakeClock()
	br, err := NewBreaker(1, time.Second, clock.now)
	if err != nil {
		t.Fatal(err)
	}
	down := true
	terminal := func(ctx context.Context, req *Request) error {
		if down {
			return errors.New("backend down")
		}
		return nil
	}
	chain := NewChain(terminal, au, br)
	submit := func(payload string) error {
		return chain.Execute(context.Background(), &Request{
			Channel: "c", Principal: "alice", Backend: "fabric",
			Payload: []byte(payload), authenticated: true,
		})
	}
	// Trip the breaker, then hit the open circuit: both rejected, neither
	// may appear in the log.
	if err := submit("tripping"); err == nil {
		t.Fatal("failing backend accepted")
	}
	if err := submit("rejected"); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open-circuit submit = %v, want ErrCircuitOpen", err)
	}
	if log.Len() != 0 {
		t.Fatalf("leakage log holds %d observations of rejected submissions: %v", log.Len(), log.All())
	}
	// Once the backend recovers and the cooldown passes, accepted traffic
	// records normally — including the plaintext leak, since no encrypt
	// stage runs here.
	down = false
	clock.advance(2 * time.Second)
	if err := submit("accepted"); err != nil {
		t.Fatal(err)
	}
	if !log.SawAny("gw-op", audit.ClassTxMetadata) || !log.Saw("gw-op", audit.ClassIdentity, "alice") {
		t.Fatal("accepted submission not recorded")
	}
	if !log.SawAny("gw-op", audit.ClassTxData) {
		t.Fatal("plaintext submission must record a tx-data observation")
	}
}

// TestRetryBatchTransientMidGroup is satellite 3: with retry ahead of
// batch, a TRANSIENT failure in the middle of a released group must
// surface as the permanent ErrBatchRelease — one delivery attempt per
// member, no replay of the batch stage.
func TestRetryBatchTransientMidGroup(t *testing.T) {
	retry := mustRetry(t)
	b, err := NewBatch(3)
	if err != nil {
		t.Fatal(err)
	}
	attempts := make(map[byte]int)
	terminal := func(ctx context.Context, req *Request) error {
		attempts[req.Payload[0]]++
		if req.Payload[0] == 1 {
			return fmt.Errorf("partition: %w", ErrTransient)
		}
		return nil
	}
	chain := NewChain(terminal, retry, b)
	var last error
	for i := 0; i < 3; i++ {
		last = chain.Execute(context.Background(), &Request{
			Channel: "c", Principal: "p", Payload: []byte{byte(i)},
		})
		if i < 2 && last != nil {
			t.Fatalf("buffered submit %d: %v", i, last)
		}
	}
	if !errors.Is(last, ErrBatchRelease) {
		t.Fatalf("filling submit = %v, want ErrBatchRelease", last)
	}
	if IsTransient(last) {
		t.Fatalf("release error leaked its transient marker: %v", last)
	}
	for i := byte(0); i < 3; i++ {
		if attempts[i] != 1 {
			t.Fatalf("member %d delivered %d times, want exactly 1 (attempts: %v)", i, attempts[i], attempts)
		}
	}
	if b.Pending() != 0 {
		t.Fatalf("pending = %d after release, want 0", b.Pending())
	}
}

// TestSubmitAsyncResolvesPerMember covers the completion futures: inline
// outcomes resolve before SubmitAsync returns, buffered members resolve at
// release with their OWN delivery outcome in plain mode.
func TestSubmitAsyncResolvesPerMember(t *testing.T) {
	ca, ps := enroll(t, "alice")
	cfg := Config{Stages: []StageConfig{
		{Name: StageAuthn},
		{Name: StageBatch, Params: map[string]string{"size": "2"}},
	}}
	backend := ordering.New("op", ordering.VisibilityFull)
	backend.Subscribe("deals", func(ledger.Block) error { return nil })
	gw, err := NewGateway("gw", cfg, Env{CAKey: ca.PublicKey()}, backend)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	f1, err := gw.SubmitAsync(ctx, signedRequest(t, ps["alice"], "deals", []byte("m0")))
	if err != nil {
		t.Fatal(err)
	}
	// Buffered: the future is unresolved until the group releases.
	short, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
	defer cancel()
	if err := f1.Wait(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("buffered future resolved early: %v", err)
	}
	f2, err := gw.SubmitAsync(ctx, signedRequest(t, ps["alice"], "deals", []byte("m1")))
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range []*SubmitFuture{f1, f2} {
		if err := f.Wait(ctx); err != nil {
			t.Fatalf("member %d future: %v", i, err)
		}
	}
	// Inline rejection resolves immediately with the rejection.
	bad := signedRequest(t, ps["alice"], "deals", []byte("m2"))
	bad.Payload = []byte("tampered")
	f3, err := gw.SubmitAsync(ctx, bad)
	if err == nil {
		t.Fatal("tampered submission accepted")
	}
	if werr := f3.Wait(ctx); !errors.Is(werr, ErrBadSignature) {
		t.Fatalf("rejected future = %v, want ErrBadSignature", werr)
	}
}

// TestSubmitAsyncGroupShareFate: in group-seal mode the group travels as
// one transaction, so every member future resolves with the group's
// outcome — nil on success, the ErrBatchRelease-wrapped error on failure.
func TestSubmitAsyncGroupShareFate(t *testing.T) {
	ca, ps := enroll(t, "alice")
	dir := StaticDirectory{"deals": {"alice": ps["alice"].key.Public()}}
	fail := false
	terminal := func(ctx context.Context, req *Request) error {
		if fail {
			return errors.New("orderer down")
		}
		return nil
	}
	chain, err := groupCfg(2).Build(Env{CAKey: ca.PublicKey(), Directory: dir}, terminal)
	if err != nil {
		t.Fatal(err)
	}
	submitAsync := func(payload string) (*SubmitFuture, error) {
		req := signedRequest(t, ps["alice"], "deals", []byte(payload))
		req.done = make(chan error, 1)
		f := &SubmitFuture{ch: req.done}
		err := chain.Execute(context.Background(), req)
		if !req.buffered {
			req.complete(err)
		}
		return f, err
	}
	ctx := context.Background()
	var futures []*SubmitFuture
	for i := 0; i < 2; i++ {
		f, err := submitAsync(fmt.Sprintf("ok-%d", i))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		futures = append(futures, f)
	}
	for i, f := range futures {
		if err := f.Wait(ctx); err != nil {
			t.Fatalf("member %d of successful group: %v", i, err)
		}
	}
	fail = true
	f1, err := submitAsync("doomed-0")
	if err != nil {
		t.Fatal(err)
	}
	f2, ferr := submitAsync("doomed-1")
	if !errors.Is(ferr, ErrBatchRelease) {
		t.Fatalf("filling submit = %v, want ErrBatchRelease", ferr)
	}
	for i, f := range []*SubmitFuture{f1, f2} {
		if err := f.Wait(ctx); !errors.Is(err, ErrBatchRelease) {
			t.Fatalf("member %d future = %v, want the group's ErrBatchRelease", i, err)
		}
	}
}

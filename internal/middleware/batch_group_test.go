package middleware

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/dcrypto"
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
		ca, ps := enroll(t, "alice", "bob", "mallory")
		dir := StaticDirectory{"deals": {
			"alice": ps["alice"].key.Public(),
			"bob":   ps["bob"].key.Public(),
		}}
		env := Env{CAKey: ca.PublicKey(), Directory: dir}
		sink := &accept{}
		chain, err := groupCfg(3).build(env, sink.handler)
		if err != nil {
			t.Fatal(err)
		}
		payloads := [][]byte{[]byte("trade-0"), []byte("trade-1"), []byte("trade-2")}
		for i, p := range payloads {
			if err := chain.execute(context.Background(), signedRequest(t, ps["alice"], "deals", p)); err != nil {
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
		if got, want := greq.Meta[MetaBatch], EnvelopeScheme+" n=3"; got != want {
			t.Errorf("batch meta = %q, want %q", got, want)
		}
		genv, err := ParseEnvelope(greq.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if genv.Channel != "deals" {
			t.Fatalf("group envelope channel = %s, want deals", genv.Channel)
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
		// Non-members stay locked out, whatever name they open under.
		if _, err := OpenGroupEnvelope(genv, "alice", ps["mallory"].key); !errors.Is(err, ErrNotRecipient) {
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
		schain, err := cfg.build(env, single.handler)
		if err != nil {
			t.Fatal(err)
		}
		if err := schain.execute(context.Background(), signedRequest(t, ps["alice"], "deals", payloads[0])); err != nil {
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
	chain, err := groupCfg(8).build(Env{CAKey: ca.PublicKey(), Directory: dir}, sink.handler)
	if err != nil {
		t.Fatal(err)
	}
	b, ok := chain.stages[len(chain.stages)-1].(*batchStage)
	if !ok || b.enc == nil {
		t.Fatal("batch stage not in group-seal mode")
	}
	for _, ch := range []string{"deals", "trades", "deals"} {
		if err := chain.execute(context.Background(), signedRequest(t, ps["alice"], ch, []byte("p-"+ch))); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.pendingCount(); got != 3 {
		t.Fatalf("pending = %d, want 3 buffered across two channel buckets", got)
	}
	if err := b.Flush(context.Background()); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if sink.count() != 2 {
		t.Fatalf("terminal saw %d releases, want 2 (one per channel bucket)", sink.count())
	}
	if b.pendingCount() != 0 {
		t.Fatalf("pending = %d after flush, want 0", b.pendingCount())
	}
	if sealed, txs := b.groupsSealed.Load(), b.groupTxs.Load(); sealed != 2 || txs != 3 {
		t.Fatalf("sealed/txs = %d/%d, want 2/3", sealed, txs)
	}
}

// TestRotationReleasesStrandedGroup: once a channel's epoch rotates,
// nothing is tagged with the old key again, so the first submission under
// the new key releases the old key's part-filled bucket instead of leaving
// it unordered until Flush. Another channel's open bucket is left alone.
func TestRotationReleasesStrandedGroup(t *testing.T) {
	clock := newFakeClock()
	ca, ps := enrollAt(t, clock.now, "alice", "bob", "carol")
	dir := StaticDirectory{
		"c": {"alice": ps["alice"].key.Public(), "bob": ps["bob"].key.Public()},
		"d": {"alice": ps["alice"].key.Public()},
	}
	cfg := Config{Stages: []StageConfig{
		{Name: StageAuthn},
		{Name: StageEncrypt, Params: map[string]string{"keyttl": "1m"}},
		{Name: StageBatch, Params: map[string]string{"size": "8", "groupseal": "on"}},
	}}
	sink := &accept{}
	chain, err := cfg.build(Env{CAKey: ca.PublicKey(), Directory: dir, Now: clock.now}, sink.handler)
	if err != nil {
		t.Fatal(err)
	}
	b := chain.stages[len(chain.stages)-1].(*batchStage)
	submit := func(channel, payload string) {
		t.Helper()
		if err := chain.execute(context.Background(), signedRequest(t, ps["alice"], channel, []byte(payload))); err != nil {
			t.Fatalf("submit on %s: %v", channel, err)
		}
	}
	old := []string{"old-0", "old-1", "old-2"}
	for _, p := range old {
		submit("c", p)
	}
	submit("d", "d-0")
	// Rotate c: its key expires, and bob leaves it for carol.
	dir["c"] = map[string]dcrypto.PublicKey{"alice": ps["alice"].key.Public(), "carol": ps["carol"].key.Public()}
	clock.advance(2 * time.Minute)
	submit("c", "new-0")

	if sink.count() != 1 {
		t.Fatalf("terminal saw %d releases after the rotation, want c's stranded group", sink.count())
	}
	genv, err := ParseEnvelope(sink.seen[0].Payload)
	if err != nil {
		t.Fatal(err)
	}
	if genv.Channel != "c" {
		t.Fatalf("released group on %s, want c", genv.Channel)
	}
	// Sealed under the old key: bob opens it, carol does not.
	segs, err := OpenGroupEnvelope(genv, "bob", ps["bob"].key)
	if err != nil {
		t.Fatalf("old member cannot open the stranded group: %v", err)
	}
	if len(segs) != len(old) {
		t.Fatalf("stranded group holds %d members, want %d", len(segs), len(old))
	}
	for i := range old {
		if string(segs[i]) != old[i] {
			t.Errorf("member %d = %q, want %q", i, segs[i], old[i])
		}
	}
	if _, err := OpenGroupEnvelope(genv, "carol", ps["carol"].key); !errors.Is(err, ErrNotRecipient) {
		t.Errorf("new member opened the old key's group: %v", err)
	}
	// c's fresh bucket holds new-0; d's bucket, stranded too but never
	// reopened, still holds d-0.
	if got := b.pendingCount(); got != 2 {
		t.Fatalf("pending = %d, want c's new member and d's open one", got)
	}
	if err := b.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if txs := b.groupTxs.Load(); sink.count() != 3 || txs != 5 {
		t.Fatalf("after flush: %d releases carrying %d txs, want 3 carrying 5", sink.count(), txs)
	}
}

// TestFailedReleasesAreCounted makes every kind of group release fail at
// a backend that refuses and checks that each acknowledged member is
// counted, on the stage and in GatewayStats: a bucket stranded by a
// rotation, whose failure no caller sees, a full bucket's, whose failure
// only its filler sees, and a flushed one.
func TestFailedReleasesAreCounted(t *testing.T) {
	clock := newFakeClock()
	ca, ps := enrollAt(t, clock.now, "alice", "bob")
	dir := StaticDirectory{"c": {"alice": ps["alice"].key.Public(), "bob": ps["bob"].key.Public()}}
	cfg := Config{Stages: []StageConfig{
		{Name: StageAuthn},
		{Name: StageEncrypt, Params: map[string]string{"keyttl": "1m"}},
		{Name: StageBatch, Params: map[string]string{"size": "4", "groupseal": "on"}},
	}}
	refused := errors.New("backend refuses")
	releases := 0
	chain, err := cfg.build(Env{CAKey: ca.PublicKey(), Directory: dir, Now: clock.now}, func(context.Context, *Request) error {
		releases++
		return refused
	})
	if err != nil {
		t.Fatal(err)
	}
	b := chain.stages[len(chain.stages)-1].(*batchStage)
	submit := func(payload string) error {
		return chain.execute(context.Background(), signedRequest(t, ps["alice"], "c", []byte(payload)))
	}
	failed := func() uint64 {
		var st GatewayStats
		for _, row := range b.statRows() {
			if row.name == "confmw_batch_release_failed_txs_total" {
				row.set(&st, row.load())
				return st.BatchReleaseFailedTxs
			}
		}
		t.Fatal("no confmw_batch_release_failed_txs_total row")
		return 0
	}
	for i := 0; i < 3; i++ {
		if err := submit("old"); err != nil {
			t.Fatalf("buffered submission %d refused: %v", i, err)
		}
	}
	// The key expires: the next submission opens a bucket under a fresh
	// epoch and strands the three under the old one. Their release fails,
	// and the new submission, buffered on its own, is still accepted.
	clock.advance(2 * time.Minute)
	if err := submit("new-0"); err != nil {
		t.Fatalf("submission that stranded the old bucket: %v", err)
	}
	if releases != 1 || failed() != 3 {
		t.Fatalf("after the stranded release: %d releases, %d failed members counted, want 1 and 3", releases, failed())
	}
	for i := 1; i < 3; i++ {
		if err := submit("new"); err != nil {
			t.Fatal(err)
		}
	}
	if err := submit("filler"); !errors.Is(err, ErrBatchRelease) {
		t.Fatalf("filling submission = %v, want ErrBatchRelease", err)
	}
	if failed() != 7 {
		t.Fatalf("after the full bucket's release: %d failed members counted, want 7", failed())
	}
	if err := submit("last"); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(context.Background()); !errors.Is(err, ErrBatchRelease) {
		t.Fatalf("flush = %v, want ErrBatchRelease", err)
	}
	if releases != 3 || failed() != 8 {
		t.Fatalf("after the flush: %d releases, %d failed members counted, want 3 and 8", releases, failed())
	}
	if b.groupTxs.Load() != 0 {
		t.Fatalf("group_txs = %d after only failed releases, want 0", b.groupTxs.Load())
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
		if _, err := frontOf(gw).submit(req); err != nil {
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
	chain, err := groupCfg(2).build(Env{CAKey: ca.PublicKey(), Directory: dir}, sink.handler)
	if err != nil {
		t.Fatal(err)
	}
	tracer := telemetry.NewTracer(1, 8)
	traces := make([]*telemetry.Trace, 2)
	for i := range traces {
		req := signedRequest(t, ps["alice"], "deals", []byte{byte(i)})
		traces[i] = tracer.For(uint64(0xc0 + i))
		req.trace = traces[i]
		if err := chain.execute(context.Background(), req); err != nil {
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
	log := audit.NewHistory()
	au, err := newAudit(log, "gw-op")
	if err != nil {
		t.Fatal(err)
	}
	clock := newFakeClock()
	br, err := newBreaker(1, time.Second, clock.now)
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
	chain := newChain(terminal, au, br)
	submit := func(payload string) error {
		return chain.execute(context.Background(), &Request{
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

// TestRetryBatchTransientMidGroup: a member that fails mid-group with
// ordering.ErrNoLeader, the error a caller may resubmit on, surfaces to the
// filling caller only as the final ErrBatchRelease. Every member gets
// exactly one delivery attempt and nothing stays buffered.
func TestRetryBatchTransientMidGroup(t *testing.T) {
	b, err := newBatch(3)
	if err != nil {
		t.Fatal(err)
	}
	var attempted []byte
	terminal := func(ctx context.Context, req *Request) error {
		attempted = append(attempted, req.Payload[0])
		if req.Payload[0] == 1 {
			return fmt.Errorf("shard 0: %w", ordering.ErrNoLeader)
		}
		return nil
	}
	chain := newChain(terminal, b)
	var last error
	for i := 0; i < 3; i++ {
		last = chain.execute(context.Background(), &Request{
			Channel: "c", Principal: "p", Payload: []byte{byte(i)},
		})
		if i < 2 && last != nil {
			t.Fatalf("buffered submit %d: %v", i, last)
		}
	}
	if !errors.Is(last, ErrBatchRelease) {
		t.Fatalf("filling submit = %v, want ErrBatchRelease", last)
	}
	// The caller's own member committed: the member's "not ordered" must
	// not be readable through the release error.
	if errors.Is(last, ordering.ErrNoLeader) {
		t.Fatalf("release error wraps a member's ordering error: %v", last)
	}
	if !bytes.Equal(attempted, []byte{0, 1, 2}) {
		t.Fatalf("delivery attempts = %v, want one per member in order", attempted)
	}
	if b.pendingCount() != 0 {
		t.Fatalf("pending = %d after release, want 0", b.pendingCount())
	}
}

// TestGroupSealReleaseFailureReachesFiller is the group-seal half of
// TestRetryBatchTransientMidGroup: the group travels as one transaction, so
// a failed release reaches the filling caller as ErrBatchRelease, which
// does not wrap the orderer's error, and leaves nothing buffered. A group
// whose release succeeds acknowledges every member with nil.
func TestGroupSealReleaseFailureReachesFiller(t *testing.T) {
	ca, ps := enroll(t, "alice")
	dir := StaticDirectory{"deals": {"alice": ps["alice"].key.Public()}}
	ordererDown := errors.New("orderer down")
	fail := false
	terminal := func(ctx context.Context, req *Request) error {
		if fail {
			return ordererDown
		}
		return nil
	}
	chain, err := groupCfg(2).build(Env{CAKey: ca.PublicKey(), Directory: dir}, terminal)
	if err != nil {
		t.Fatal(err)
	}
	submit := func(payload string) error {
		return chain.execute(context.Background(), signedRequest(t, ps["alice"], "deals", []byte(payload)))
	}
	for i := 0; i < 2; i++ {
		if err := submit(fmt.Sprintf("ok-%d", i)); err != nil {
			t.Fatalf("member %d of a successful group: %v", i, err)
		}
	}
	fail = true
	if err := submit("doomed-0"); err != nil {
		t.Fatalf("buffered member: %v", err)
	}
	ferr := submit("doomed-1")
	if !errors.Is(ferr, ErrBatchRelease) {
		t.Fatalf("filling submit = %v, want ErrBatchRelease", ferr)
	}
	if errors.Is(ferr, ordererDown) {
		t.Fatalf("release error wraps the orderer's error: %v", ferr)
	}
	if n := chain.stages[len(chain.stages)-1].(*batchStage).pendingCount(); n != 0 {
		t.Fatalf("pending = %d after release, want 0", n)
	}
}

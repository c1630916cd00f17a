package middleware

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/ledger"
	"dltprivacy/internal/ordering"
)

// TestAsyncAuditRecordsOffPath checks the ring's happy path: Handle only
// enqueues, Flush catches the drainer up, and every accepted submission's
// observation lands in the log.
func TestAsyncAuditRecordsOffPath(t *testing.T) {
	log := audit.NewLog()
	au, err := NewAsyncAudit(log, "gw-op", 64)
	if err != nil {
		t.Fatal(err)
	}
	defer au.Close()
	if !au.Async() {
		t.Fatal("NewAsyncAudit built a synchronous stage")
	}
	chain := NewChain((&accept{}).handler, au)
	const n = 32
	for i := 0; i < n; i++ {
		req := &Request{Channel: "c", Principal: "alice", Payload: []byte(fmt.Sprintf("p%d", i))}
		if err := chain.Execute(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	au.Flush(context.Background())
	if got := au.Drained(); got != n {
		t.Fatalf("drained %d after flush, want %d", got, n)
	}
	if items := log.ItemsSeen("gw-op", audit.ClassTxMetadata); len(items) != n {
		t.Fatalf("log holds %d metadata observations, want %d", len(items), n)
	}
	if au.Shed() != 0 {
		t.Fatalf("shed %d with an idle ring, want 0", au.Shed())
	}
}

// TestAsyncAuditShedExact pins the shed accounting: with the drainer held
// off, a depth-D ring accepts exactly D entries and sheds — counted, never
// blocking — everything past them. The drainer then recovers exactly the
// accepted entries.
func TestAsyncAuditShedExact(t *testing.T) {
	log := audit.NewLog()
	const depth = 4
	// Build the ring by hand WITHOUT starting the drainer, so the fill is
	// deterministic; start it afterwards to drain.
	au, err := NewAudit(log, "gw-op")
	if err != nil {
		t.Fatal(err)
	}
	au.ring = make(chan auditEntry, depth)
	au.flushCond = sync.NewCond(&au.flushMu)

	chain := NewChain((&accept{}).handler, au)
	const total = depth + 5
	for i := 0; i < total; i++ {
		req := &Request{Channel: "c", Principal: "alice", Payload: []byte(fmt.Sprintf("p%d", i))}
		if err := chain.Execute(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	if got := au.Shed(); got != total-depth {
		t.Fatalf("shed = %d, want exactly %d (ring depth %d, %d submissions)", got, total-depth, depth, total)
	}
	if got := au.Enqueued(); got != depth {
		t.Fatalf("enqueued = %d, want %d", got, depth)
	}
	au.wg.Add(1)
	go au.drain()
	au.Flush(context.Background())
	au.Close()
	if got := au.Drained(); got != depth {
		t.Fatalf("drained = %d, want %d", got, depth)
	}
	if items := log.ItemsSeen("gw-op", audit.ClassTxMetadata); len(items) != depth {
		t.Fatalf("log holds %d observations, want the %d accepted ones", len(items), depth)
	}
}

// TestAsyncAuditConcurrentHandleFlushClose is the -race suite for the
// ring's lifecycle: submitters, flushers, and a closer race, and the
// invariant at the end is exact — every entry that entered the ring was
// recorded (clean shutdown loses nothing), every other submission was
// either shed (counted) or recorded inline after close.
func TestAsyncAuditConcurrentHandleFlushClose(t *testing.T) {
	log := audit.NewLog()
	au, err := NewAsyncAudit(log, "gw-op", 8)
	if err != nil {
		t.Fatal(err)
	}
	chain := NewChain((&accept{}).handler, au)

	const workers = 4
	const perWorker = 200
	var handled sync.WaitGroup
	for w := 0; w < workers; w++ {
		handled.Add(1)
		go func(seed int) {
			defer handled.Done()
			for i := 0; i < perWorker; i++ {
				req := &Request{Channel: "c", Principal: "alice",
					Payload: []byte(fmt.Sprintf("w%d-p%d", seed, i))}
				if err := chain.Execute(context.Background(), req); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}(w)
	}
	// Flushers race the submitters and the close below.
	var aux sync.WaitGroup
	for f := 0; f < 2; f++ {
		aux.Add(1)
		go func() {
			defer aux.Done()
			for i := 0; i < 50; i++ {
				au.Flush(context.Background())
			}
		}()
	}
	// Close mid-traffic: submissions after it record inline, entries
	// already accepted drain before Close returns.
	aux.Add(1)
	go func() {
		defer aux.Done()
		au.Close()
	}()
	handled.Wait()
	aux.Wait()
	au.Close() // idempotent

	if got, want := au.Drained(), au.Enqueued(); got != want {
		t.Fatalf("drained %d of %d enqueued: clean shutdown lost ring entries", got, want)
	}
	recorded := len(log.ItemsSeen("gw-op", audit.ClassTxMetadata))
	accounted := uint64(recorded) + au.Shed()
	if accounted != workers*perWorker {
		t.Fatalf("recorded %d + shed %d = %d, want every one of %d submissions accounted for",
			recorded, au.Shed(), accounted, workers*perWorker)
	}
}

// TestAsyncAuditRingPendingBounded hammers the ring from two producers
// while a third goroutine polls the gauge, and requires every reading to
// lie within the ring: computed as enqueued - drained from two separate
// loads it went below zero (the drainer can count an entry before Handle
// does) and /metrics exported 18446744073709551613.
func TestAsyncAuditRingPendingBounded(t *testing.T) {
	const depth, producers, perProducer = 8, 2, 30_000
	au, err := NewAsyncAudit(audit.NewLog(), "gw-op", depth)
	if err != nil {
		t.Fatal(err)
	}
	defer au.Close()
	chain := NewChain((&accept{}).handler, au)
	var producing sync.WaitGroup
	for p := 0; p < producers; p++ {
		producing.Add(1)
		go func() {
			defer producing.Done()
			req := &Request{Channel: "c", Principal: "alice", Payload: []byte("p")}
			for i := 0; i < perProducer; i++ {
				if err := chain.Execute(context.Background(), req); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { producing.Wait(); close(done) }()
	for polling := true; polling; {
		select {
		case <-done:
			polling = false
		default:
		}
		if got := au.RingPending(); got > depth+producers {
			t.Fatalf("RingPending = %d with a ring of %d and %d producers", got, depth, producers)
		}
	}
	au.Flush(context.Background())
	if got := au.RingPending(); got != 0 {
		t.Fatalf("RingPending = %d after Flush, want 0", got)
	}
	if e, d := au.Enqueued(), au.Drained(); d != e || e+au.Shed() != producers*perProducer {
		t.Fatalf("enqueued %d, drained %d, shed %d of %d submissions", e, d, au.Shed(), producers*perProducer)
	}
}

// TestGatewayCloseFlushesAuditRing wires the async ring through Config and
// checks Gateway.Close drains it: after close, every accepted submission's
// observation is in the log.
func TestGatewayCloseFlushesAuditRing(t *testing.T) {
	ca, ps := enroll(t, "alice")
	cfg := Config{Stages: []StageConfig{
		{Name: StageAuthn},
		{Name: StageAudit, Params: map[string]string{"auditasync": "128"}},
	}}
	backend := ordering.New("op", ordering.VisibilityFull)
	backend.Subscribe("deals", func(ledger.Block) error { return nil })
	log := audit.NewLog()
	gw, err := NewGateway("gw", cfg, Env{CAKey: ca.PublicKey(), Log: log}, backend)
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	for i := 0; i < n; i++ {
		if err := gw.Submit(context.Background(), signedRequest(t, ps["alice"], "deals", []byte(fmt.Sprintf("p%d", i)))); err != nil {
			t.Fatal(err)
		}
	}
	gw.Close()
	if items := log.ItemsSeen("gateway", audit.ClassTxMetadata); len(items) != n {
		t.Fatalf("log holds %d observations after Close, want %d", len(items), n)
	}
}

// TestConfigAuditAsyncValidation rejects a negative ring depth and keeps 0
// synchronous.
func TestConfigAuditAsyncValidation(t *testing.T) {
	log := audit.NewLog()
	build := func(depth string) error {
		cfg := Config{Stages: []StageConfig{
			{Name: StageAudit, Params: map[string]string{"auditasync": depth}},
		}}
		_, err := cfg.Build(Env{Log: log}, (&accept{}).handler)
		return err
	}
	if err := build("-1"); err == nil {
		t.Fatal("negative auditasync accepted")
	}
	if err := build("0"); err != nil {
		t.Fatalf("auditasync=0 (synchronous) rejected: %v", err)
	}
	if err := build("256"); err != nil {
		t.Fatalf("auditasync=256 rejected: %v", err)
	}
}

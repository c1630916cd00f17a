package middleware

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"dltprivacy/internal/audit"
)

// Audit records what the gateway operator observes about each submission
// into the leakage log: envelope metadata and the submitting identity
// always, and full transaction data whenever the payload passes through
// unencrypted — making a pipeline without the encrypt stage show up as a
// leak in the audit matrix rather than going unnoticed.
//
// Observations are recorded only after the downstream chain ACCEPTS the
// submission: a request rejected downstream (rate limit, open breaker,
// backend error) never reached the observable surface — the orderer and
// backends saw nothing — so logging it would overstate leakage. What is
// observed is classified as of the audit point in the chain (the payload's
// encryption state and digest when it passed this stage), captured before
// the downstream runs so a later encrypt stage cannot retroactively launder
// a plaintext observation.
//
// In async mode (NewAsyncAudit, or the "auditasync" config parameter) the
// recording itself leaves the submit path: Handle enqueues a fixed-size
// entry into a bounded ring consumed by one drainer goroutine, and a full
// ring sheds the entry (counted, never blocking a submission). Flush waits
// for the drainer to catch up; Close — called by Gateway.Close — drains
// every enqueued entry before returning, so a clean shutdown loses nothing.
type Audit struct {
	log      *audit.Log
	observer string

	// ring is the bounded entry buffer of async mode, nil in synchronous
	// mode. closed flips under mu's write lock before the channel closes;
	// Handle's enqueue holds the read lock, so a send can never race the
	// close.
	ring   chan auditEntry
	mu     sync.RWMutex
	closed bool
	wg     sync.WaitGroup

	enqueued atomic.Uint64 // entries accepted into the ring
	drained  atomic.Uint64 // entries the drainer recorded
	shed     atomic.Uint64 // entries dropped because the ring was full

	// flushMu/flushCond let Flush wait for drained to catch enqueued; the
	// drainer broadcasts under flushMu after every record, so a waiter
	// cannot miss the final wakeup.
	flushMu   sync.Mutex
	flushCond *sync.Cond
}

// auditEntry is one deferred observation: everything Handle captured at the
// audit point, by value, so the ring holds no request references.
type auditEntry struct {
	id        [32]byte // the request ID's characters at the audit point
	principal string
	leaky     bool // payload was plaintext at the audit point (ClassTxData)
}

// NewAudit creates the audit stage recording synchronously for the named
// observer (normally the gateway operator).
func NewAudit(log *audit.Log, observer string) (*Audit, error) {
	if log == nil {
		return nil, errors.New("middleware: audit stage needs a log")
	}
	if observer == "" {
		observer = "gateway"
	}
	return &Audit{log: log, observer: observer}, nil
}

// NewAsyncAudit creates the audit stage with a bounded async ring of the
// given depth: recording happens on a drainer goroutine off the submit
// path, and a full ring sheds (and counts) instead of blocking. Callers
// must Close the stage (Gateway.Close does) to stop the drainer and flush
// the ring.
func NewAsyncAudit(log *audit.Log, observer string, depth int) (*Audit, error) {
	a, err := NewAudit(log, observer)
	if err != nil {
		return nil, err
	}
	if depth < 1 {
		return nil, fmt.Errorf("middleware: audit async ring needs depth >= 1, got %d", depth)
	}
	a.ring = make(chan auditEntry, depth)
	a.flushCond = sync.NewCond(&a.flushMu)
	a.wg.Add(1)
	go a.drain()
	return a, nil
}

// Name implements Stage.
func (a *Audit) Name() string { return StageAudit }

// Async reports whether the stage records through the async ring.
func (a *Audit) Async() bool { return a.ring != nil }

// Shed reports how many observations were dropped because the ring was
// full. Always 0 in synchronous mode.
func (a *Audit) Shed() uint64 { return a.shed.Load() }

// Enqueued reports how many observations entered the ring; Drained how many
// the drainer has recorded. Both 0 in synchronous mode.
func (a *Audit) Enqueued() uint64 { return a.enqueued.Load() }

// Drained reports how many ring observations have been recorded.
func (a *Audit) Drained() uint64 { return a.drained.Load() }

// RingPending reports the observations waiting in the ring, between 0 and
// its depth. (It is not enqueued - drained: Handle counts an entry after
// sending it, so the drainer can count it first and that difference of two
// separate loads underflows.)
func (a *Audit) RingPending() uint64 { return uint64(len(a.ring)) }

// statRows declares the async ring's counters; the synchronous stage
// exports none (its GatewayStats fields stay 0).
func (a *Audit) statRows() []statRow {
	if a.ring == nil {
		return nil
	}
	return []statRow{
		{"confmw_audit_enqueued_total", "Leakage observations accepted into the audit ring.", counter, a.Enqueued, nil, nil},
		{"confmw_audit_drained_total", "Leakage observations the audit drainer recorded.", counter, a.Drained, nil, nil},
		{"confmw_audit_shed_total", "Leakage observations dropped because the audit ring was full.", counter, a.Shed, func(s *GatewayStats, v uint64) { s.AuditShed = v }, nil},
		{"confmw_audit_ring_pending", "Leakage observations waiting in the audit ring.", gauge, a.RingPending, func(s *GatewayStats, v uint64) { s.AuditRingPending = v }, nil},
	}
}

// Handle implements Stage.
func (a *Audit) Handle(ctx context.Context, req *Request, next Handler) error {
	// Capture the observation BEFORE the downstream runs: the encrypt
	// stage replaces the payload (changing req.ID()) and flips encrypted,
	// and the observation must classify what passed the audit point.
	id := hexID(req.digest())
	leaky := !req.encrypted
	if err := next(ctx, req); err != nil {
		// Rejected downstream: the submission never reached the observable
		// surface, so it must not appear in the leakage log.
		return err
	}
	if a.ring == nil {
		a.record(auditEntry{id: id, principal: req.Principal, leaky: leaky})
		return nil
	}
	a.mu.RLock()
	if a.closed {
		// The gateway is shutting down; record inline rather than lose the
		// observation.
		a.mu.RUnlock()
		a.record(auditEntry{id: id, principal: req.Principal, leaky: leaky})
		return nil
	}
	select {
	case a.ring <- auditEntry{id: id, principal: req.Principal, leaky: leaky}:
		a.enqueued.Add(1)
	default:
		a.shed.Add(1)
	}
	a.mu.RUnlock()
	return nil
}

// record writes one observation into the leakage log. The log copies the
// item it is handed, so the ID never becomes a heap string.
func (a *Audit) record(e auditEntry) {
	id := string(e.id[:])
	a.log.Record(a.observer, audit.ClassTxMetadata, id)
	a.log.Record(a.observer, audit.ClassIdentity, e.principal)
	if e.leaky {
		a.log.Record(a.observer, audit.ClassTxData, id)
	}
}

// drain is the ring consumer: it records entries until Close closes the
// ring, then drains what remains and exits.
func (a *Audit) drain() {
	defer a.wg.Done()
	for e := range a.ring {
		a.record(e)
		a.drained.Add(1)
		a.flushMu.Lock()
		a.flushCond.Broadcast()
		a.flushMu.Unlock()
	}
}

// Flush blocks until every observation enqueued before the call has been
// recorded. A no-op in synchronous mode or after Close. It has the
// stageFlusher shape, but the wait needs no ctx and cannot fail: the
// drainer never blocks, so it is bounded by the ring depth.
func (a *Audit) Flush(context.Context) error {
	if a.ring == nil {
		return nil
	}
	target := a.enqueued.Load()
	a.flushMu.Lock()
	defer a.flushMu.Unlock()
	for a.drained.Load() < target {
		a.flushCond.Wait()
	}
	return nil
}

// Close stops accepting ring entries, drains everything already enqueued,
// and stops the drainer. Subsequent Handle calls record inline. Idempotent;
// a no-op in synchronous mode. Gateway.Close calls it, so a clean gateway
// shutdown never loses an accepted observation.
func (a *Audit) Close() {
	if a.ring == nil {
		return
	}
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	a.closed = true
	a.mu.Unlock()
	// No Handle holds the read lock past this point with a send pending,
	// and new ones see closed — the close cannot race a send.
	close(a.ring)
	a.wg.Wait()
	// The drainer exits without broadcasting for the final entries it
	// recorded after the last lock cycle; wake any Flush still waiting.
	a.flushMu.Lock()
	a.flushCond.Broadcast()
	a.flushMu.Unlock()
}

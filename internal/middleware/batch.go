package middleware

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// ErrBatchRelease wraps failures from a group release. It is deliberately
// permanent (never transient): members of the group were already
// acknowledged and attempted, so re-running the batch stage would
// re-buffer only the filling request and double-order the members that
// committed. The error text names each failed request by ID so operators
// can reconcile.
var ErrBatchRelease = errors.New("middleware: batch release failed")

// Batch aggregates accepted submissions and releases them downstream in
// groups of the configured size, the write-combining tier in front of the
// ordering service. A buffered request is acknowledged immediately (its
// Handle returns nil); the whole group travels downstream when the batch
// fills or Flush is called. Because any later stage would be skipped for
// batched requests, Config requires batch to be the final stage.
//
// In group-seal mode (groupseal=on, wired by Config.Build to the encrypt
// stage's epoch key cache) requests are bucketed per (channel, epoch) and a
// full bucket is sealed with ONE AEAD invocation over the concatenated
// payloads, sharing the epoch's precomputed wrapped-key table; the group
// crosses to the orderer as a single GroupEnvelope transaction under the
// BatchPrincipal. The per-transaction seal and ordering cost amortizes to
// 1/size.
//
// Error semantics follow the ordering service's batching: failures from a
// group release surface to the flushing caller (the filling submission or
// Flush), while earlier members of the group were already acknowledged.
// Submitters that need per-submission confirmation should use
// Gateway.SubmitAsync (each member's future resolves with its own delivery
// outcome at release), run batch size 1, or reconcile against backend
// commit stats.
type Batch struct {
	size int
	// enc is the encrypt stage sealing groups, non-nil exactly in
	// group-seal mode; set by Config.Build before traffic.
	enc *Encrypt
	// fullMeta is the MetaBatch value of a full-size group, precomputed so
	// the steady-state release allocates no formatting scratch.
	fullMeta string

	mu      sync.Mutex
	pending []*Request                   // plain mode buffer
	groups  map[*channelKey]*groupBucket // group-seal buckets per (channel, epoch)
	free    []*groupBucket               // released buckets, ready for reuse
	next    Handler

	groupsSealed atomic.Uint64 // group envelopes released (group-seal mode)
	groupTxs     atomic.Uint64 // member transactions inside those groups
}

// groupBucket is one open (channel, epoch) group. In deferred-seal mode the
// members' payloads are still the submitters' plaintext, and a payload that
// arrived over a stream transport aliases the connection's read buffer,
// which the next frame overwrites (netedge.Handler). The stage holds
// members past their Handle's return, so it owns what it holds: admission
// copies each payload into arena, and payloads views the copies in
// submission order, ready for the seal. A view taken before arena grew
// keeps the array it was cut from alive, so growth never invalidates one.
// Buckets are recycled whole, arena included, so the steady state
// allocates nothing per group.
type groupBucket struct {
	reqs     []*Request
	payloads [][]byte
	arena    []byte
}

// NewBatch creates the batch stage with the given group size.
func NewBatch(size int) (*Batch, error) {
	if size < 1 {
		return nil, fmt.Errorf("middleware: batch needs size >= 1, got %d", size)
	}
	return &Batch{size: size}, nil
}

// Name implements Stage.
func (b *Batch) Name() string { return StageBatch }

// bindEncrypt switches the stage into group-seal mode over the encrypt
// stage's epoch key cache. Called by Config.Build before traffic.
func (b *Batch) bindEncrypt(enc *Encrypt) {
	b.enc = enc
	b.groups = make(map[*channelKey]*groupBucket)
	b.fullMeta = GroupEnvelopeScheme + " n=" + strconv.Itoa(b.size)
}

// GroupSeal reports whether the stage runs in group-seal mode.
func (b *Batch) GroupSeal() bool { return b.enc != nil }

// takeBucketLocked returns an empty bucket with capacity for a full group,
// reusing a released one when one is free. Caller holds b.mu.
func (b *Batch) takeBucketLocked() *groupBucket {
	if n := len(b.free); n > 0 {
		g := b.free[n-1]
		b.free = b.free[:n-1]
		return g
	}
	return &groupBucket{
		reqs:     make([]*Request, 0, b.size),
		payloads: make([][]byte, 0, b.size),
	}
}

// recycleBucket scrubs a released bucket's member pointers and payload
// views and returns it to the freelist, bounded so a burst of concurrently
// open buckets cannot pin arrays forever.
func (b *Batch) recycleBucket(g *groupBucket) {
	for i := range g.reqs {
		g.reqs[i], g.payloads[i] = nil, nil
	}
	g.reqs, g.payloads, g.arena = g.reqs[:0], g.payloads[:0], g.arena[:0]
	b.mu.Lock()
	if len(b.free) < 4 {
		b.free = append(b.free, g)
	}
	b.mu.Unlock()
}

// GroupsSealed reports how many group envelopes the stage has released;
// GroupTxs how many member transactions those groups carried. Both 0
// outside group-seal mode.
func (b *Batch) GroupsSealed() uint64 { return b.groupsSealed.Load() }

// GroupTxs reports the member transactions released inside group envelopes.
func (b *Batch) GroupTxs() uint64 { return b.groupTxs.Load() }

// statRows declares the group-seal counters and the buffer gauge.
func (b *Batch) statRows() []statRow {
	return []statRow{
		{"confmw_batch_groups_sealed_total", "Group envelopes released by the batch stage (group-seal mode).", counter, b.groupsSealed.Load, func(s *GatewayStats, v uint64) { s.BatchGroupsSealed = v }},
		{"confmw_batch_group_txs_total", "Member transactions released inside group envelopes.", counter, b.groupTxs.Load, func(s *GatewayStats, v uint64) { s.BatchGroupTxs = v }},
		{"confmw_batch_pending", "Submissions currently buffered by the batch stage.", gauge, func() uint64 { return uint64(b.Pending()) }, func(s *GatewayStats, v uint64) { s.BatchPending = int(v) }},
	}
}

// Handle implements Stage.
func (b *Batch) Handle(ctx context.Context, req *Request, next Handler) error {
	b.mu.Lock()
	if b.next == nil {
		// The downstream continuation is identical for every request of a
		// built chain; learn it once instead of re-storing a closure
		// pointer (and paying its write barrier) per admission.
		b.next = next
	}
	if b.enc != nil {
		ck := req.groupKey
		if ck == nil {
			b.mu.Unlock()
			return errNoGroupKey
		}
		req.buffered = true
		g := b.groups[ck]
		if g == nil {
			// A fresh bucket starts at full capacity, recycled from the
			// last released group where possible: growing a pointer slice
			// member by member costs log2(size) reallocations, copies, and
			// write-barrier work per group, all on the admission path.
			g = b.takeBucketLocked()
			b.groups[ck] = g
		}
		start := len(g.arena)
		g.arena = append(g.arena, req.Payload...)
		g.reqs = append(g.reqs, req)
		g.payloads = append(g.payloads, g.arena[start:len(g.arena):len(g.arena)])
		if len(g.reqs) < b.size {
			b.mu.Unlock()
			return nil
		}
		delete(b.groups, ck)
		b.mu.Unlock()
		err := b.releaseGroup(ctx, ck, g, next, req)
		b.recycleBucket(g)
		return err
	}
	req.buffered = true
	if !req.encrypted {
		// No encrypt stage swapped the payload for an envelope of its own:
		// it may still alias a transport read buffer (see groupBucket).
		req.Payload = bytes.Clone(req.Payload)
	}
	b.pending = append(b.pending, req)
	if len(b.pending) < b.size {
		b.mu.Unlock()
		return nil
	}
	group := b.pending
	b.pending = nil
	b.mu.Unlock()
	return b.release(ctx, group, next, req)
}

// Flush releases any partially-filled batch downstream. In group-seal mode
// every open (channel, epoch) bucket is sealed and released — including
// buckets stranded by an epoch rotation mid-fill, which seal under the
// epoch current at their submission. It is a no-op on an empty buffer and
// an error if the stage has never seen a request (the downstream
// continuation is learned from the first Handle call).
func (b *Batch) Flush(ctx context.Context) error {
	b.mu.Lock()
	next := b.next
	if b.enc != nil {
		groups := b.groups
		b.groups = make(map[*channelKey]*groupBucket)
		b.mu.Unlock()
		if len(groups) == 0 {
			return nil
		}
		if next == nil {
			return errors.New("middleware: batch flush before any submission")
		}
		var errs []error
		for ck, g := range groups {
			if err := b.releaseGroup(ctx, ck, g, next, nil); err != nil {
				errs = append(errs, err)
			}
			b.recycleBucket(g)
		}
		return errors.Join(errs...)
	}
	group := b.pending
	b.pending = nil
	b.mu.Unlock()
	if len(group) == 0 {
		return nil
	}
	if next == nil {
		return errors.New("middleware: batch flush before any submission")
	}
	return b.release(ctx, group, next, nil)
}

// Pending reports the number of buffered submissions across all open
// buckets.
func (b *Batch) Pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(b.pending)
	for _, g := range b.groups {
		n += len(g.reqs)
	}
	return n
}

// release hands a group downstream one request at a time, preserving
// submission order. Every buffered request was already acknowledged to
// its submitter, so a failure must not abandon the rest of the group:
// each member gets exactly one delivery attempt, and the joined errors
// surface to the caller (the filling submission or Flush).
//
// Tracing and exclusive latency are re-homed per member: each member's
// delivery records a "batch.release" span on the member's OWN trace (the
// trace ring documents AddSpan as safe after Finish for exactly this), and
// the whole release duration lands in the flushing request's downstream
// accumulator — so the batch stage's exclusive time stays the buffering
// bookkeeping, not the group's deliveries, and no member's work is
// attributed to the filler's trace.
func (b *Batch) release(ctx context.Context, group []*Request, next Handler, flusher *Request) error {
	// Detach the flushing caller's cancellation (values survive): the
	// buffered members were acknowledged under their own, long-gone
	// contexts, and a canceled filling request must not fail them.
	ctx = context.WithoutCancel(ctx)
	releaseStart := time.Now()
	var errs []error
	for i, req := range group {
		start := time.Now()
		err := next(ctx, req)
		d := time.Since(start)
		if tr := req.trace; tr != nil {
			tr.AddSpan("batch.release", start, d, d, err)
		}
		// The member's future gets its own delivery outcome: a failed
		// member never committed, so its submitter may legitimately
		// resubmit (unlike the flushing caller, whose error is wrapped
		// non-transient below precisely because the rest of the group DID
		// commit).
		req.complete(err)
		if err != nil {
			errs = append(errs, fmt.Errorf("request %d/%d (%s): %v", i+1, len(group), req.ID(), err))
		}
	}
	if flusher != nil {
		flusher.downstreamNanos += int64(time.Since(releaseStart))
	}
	if joined := errors.Join(errs...); joined != nil {
		// %v, not %w: the underlying errors must not leak their transient
		// marker through ErrBatchRelease, or an upstream retry stage
		// would re-run the batch and double-order committed members.
		return fmt.Errorf("%w: %v", ErrBatchRelease, joined)
	}
	return nil
}

// releaseGroup seals one (channel, epoch) bucket with a single AEAD
// invocation under the bucket's epoch key and sends the group envelope
// downstream as one synthetic transaction (BatchPrincipal, MetaBatch
// scheme + count). The group shares one fate: every member's future
// resolves with the group's outcome, and every member's trace gets a
// "batch.release" span whose exclusive time is its amortized share of the
// release. Cancellation detaching and error wrapping mirror release.
func (b *Batch) releaseGroup(ctx context.Context, ck *channelKey, g *groupBucket, next Handler, flusher *Request) error {
	ctx = context.WithoutCancel(ctx)
	start := time.Now()
	group := g.reqs
	channel := group[0].Channel
	sealed, relErr := b.enc.sealGroup(ck, channel, g.payloads)
	if relErr == nil {
		val := b.fullMeta
		if len(group) != b.size {
			val = GroupEnvelopeScheme + " n=" + strconv.Itoa(len(group))
		}
		greq := &Request{
			Channel:       channel,
			Principal:     BatchPrincipal,
			Payload:       sealed,
			Meta:          map[string]string{MetaBatch: val},
			authenticated: true,
			encrypted:     true,
			metaOwned:     true,
		}
		relErr = next(ctx, greq)
	}
	elapsed := time.Since(start)
	var wrapped error
	if relErr != nil {
		// %v, not %w: transient markers must not leak through, or an
		// upstream retry would re-run the batch stage against a group
		// whose members were already acknowledged.
		wrapped = fmt.Errorf("%w: group %s/epoch %d n=%d: %v", ErrBatchRelease, channel, ck.epoch, len(group), relErr)
	} else {
		b.groupsSealed.Add(1)
		b.groupTxs.Add(uint64(len(group)))
	}
	share := elapsed / time.Duration(len(group))
	for _, r := range group {
		if tr := r.trace; tr != nil {
			// Inclusive time is the whole group release the member rode in;
			// exclusive is its amortized share, so Σ exclusive over members
			// ≈ the release wall time.
			tr.AddSpan("batch.release", start, elapsed, share, relErr)
		}
		r.complete(wrapped)
	}
	if flusher != nil {
		flusher.downstreamNanos += int64(elapsed)
	}
	return wrapped
}

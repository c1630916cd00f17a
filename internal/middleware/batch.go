package middleware

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// ErrBatchRelease wraps failures from a group release. It wraps nothing
// under it: members of the group were already acknowledged and attempted,
// so a caller that resubmitted on the underlying error would re-buffer only
// the filling request and double-order the members that committed. The
// error text names each failed request by ID so operators can reconcile.
var ErrBatchRelease = errors.New("middleware: batch release failed")

// batchStage aggregates accepted submissions and releases them downstream in
// groups of the configured size, the write-combining tier in front of the
// ordering service. A buffered request is acknowledged immediately (its
// Handle returns nil); the whole group travels downstream when the batch
// fills or Flush is called. Because any later stage would be skipped for
// batched requests, Config requires batch to be the final stage.
//
// In group-seal mode (groupseal=on, wired by Config.build to the encrypt
// stage's epoch key cache) requests are bucketed per (channel, epoch) and a
// full bucket is sealed with ONE AEAD invocation over the concatenated
// payloads behind the epoch's precomputed frame head; the group crosses to
// the orderer as one envelope of N payloads under the BatchPrincipal. The
// per-transaction seal and ordering cost amortizes to 1/size.
//
// Error semantics follow the ordering service's batching: failures from a
// group release surface to the flushing caller (the filling submission or
// Flush), while earlier members of the group were already acknowledged.
// Submitters that need per-submission confirmation should run batch size
// 1 or reconcile against backend commit stats.
type batchStage struct {
	size int
	// enc is the encrypt stage whose epoch keys tag the buffered requests,
	// non-nil exactly in group-seal mode; set by Config.build before traffic.
	enc *encryptStage
	// fullMeta is the MetaBatch value of a full-size group, precomputed so
	// the steady-state release allocates no formatting scratch.
	fullMeta string

	mu      sync.Mutex
	pending []*Request                   // plain mode buffer
	groups  map[*channelKey]*groupBucket // group-seal buckets per (channel, epoch)
	free    []*groupBucket               // released buckets, ready for reuse
	next    Handler
	// parent and detached are the last release's context and its
	// context.WithoutCancel (detach), reused while releases come under the
	// same parent — an edge's always do — so that a release allocates no
	// context. Holding parent keeps it alive until a release under another.
	parent, detached context.Context

	groupsSealed atomic.Uint64 // group envelopes released (group-seal mode)
	groupTxs     atomic.Uint64 // member transactions inside those groups
	// releaseFailedTxs counts acknowledged members a release did not order:
	// every member of a failed group release (a full bucket's, a stranded
	// bucket's, Flush's) and each failed member of a plain release.
	releaseFailedTxs atomic.Uint64
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
	key      *channelKey // the (channel, epoch) key the members are tagged with
	channel  string
	reqs     []*Request
	payloads [][]byte
	arena    []byte
}

// newBatch creates the batch stage with the given group size.
func newBatch(size int) (*batchStage, error) {
	if size < 1 {
		return nil, fmt.Errorf("middleware: batch needs size >= 1, got %d", size)
	}
	return &batchStage{size: size}, nil
}

// Name implements Stage.
func (b *batchStage) Name() string { return StageBatch }

// bindEncrypt switches the stage into group-seal mode over the encrypt
// stage's epoch key cache. Called by Config.build before traffic.
func (b *batchStage) bindEncrypt(enc *encryptStage) {
	b.enc = enc
	b.groups = make(map[*channelKey]*groupBucket)
	b.fullMeta = EnvelopeScheme + " n=" + strconv.Itoa(b.size)
}

// takeBucketLocked returns an empty bucket with capacity for a full group,
// reusing a released one when one is free. Caller holds b.mu.
func (b *batchStage) takeBucketLocked() *groupBucket {
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
func (b *batchStage) recycleBucket(g *groupBucket) {
	for i := range g.reqs {
		g.reqs[i], g.payloads[i] = nil, nil
	}
	g.key, g.channel = nil, ""
	g.reqs, g.payloads, g.arena = g.reqs[:0], g.payloads[:0], g.arena[:0]
	b.mu.Lock()
	if len(b.free) < 4 {
		b.free = append(b.free, g)
	}
	b.mu.Unlock()
}

// statRows declares the group-seal counters, the failed-release counter
// and the buffer gauge.
func (b *batchStage) statRows() []statRow {
	return []statRow{
		{"confmw_batch_groups_sealed_total", "Group envelopes released by the batch stage (group-seal mode).", counter, b.groupsSealed.Load, func(s *GatewayStats, v uint64) { s.BatchGroupsSealed = v }, nil},
		{"confmw_batch_group_txs_total", "Member transactions released inside group envelopes.", counter, b.groupTxs.Load, func(s *GatewayStats, v uint64) { s.BatchGroupTxs = v }, nil},
		{"confmw_batch_release_failed_txs_total", "Acknowledged submissions a batch release failed to order.", counter, b.releaseFailedTxs.Load, func(s *GatewayStats, v uint64) { s.BatchReleaseFailedTxs = v }, nil},
		{"confmw_batch_pending", "Submissions currently buffered by the batch stage.", gauge, func() uint64 { return uint64(b.pendingCount()) }, func(s *GatewayStats, v uint64) { s.BatchPending = int(v) }, nil},
	}
}

// Handle implements Stage.
func (b *batchStage) Handle(ctx context.Context, req *Request, next Handler) error {
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
		req.hold() // until releaseGroup delivers it
		g := b.groups[ck]
		var stranded []*groupBucket
		if g == nil {
			// A fresh bucket starts at full capacity, recycled from the
			// last released group where possible: growing a pointer slice
			// member by member costs log2(size) reallocations, copies, and
			// write-barrier work per group, all on the admission path.
			g = b.takeBucketLocked()
			g.key, g.channel = ck, req.Channel
			b.groups[ck] = g
			stranded = b.detachStrandedLocked(g)
		}
		start := len(g.arena)
		g.arena = append(g.arena, req.Payload...)
		g.reqs = append(g.reqs, req)
		g.payloads = append(g.payloads, g.arena[start:len(g.arena):len(g.arena)])
		full := len(g.reqs) == b.size
		if full {
			delete(b.groups, ck)
		}
		b.mu.Unlock()
		for _, s := range stranded {
			// No flusher: this submission is buffered in a bucket of its
			// own, and the stranded members were acknowledged when buffered.
			// A failure has no caller to reach; releaseFailedTxs counts it.
			_ = b.releaseGroup(ctx, s, next, nil)
			b.recycleBucket(s)
		}
		if !full {
			return nil
		}
		err := b.releaseGroup(ctx, g, next, req)
		b.recycleBucket(g)
		return err
	}
	req.hold() // until release delivers it
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

// detachStrandedLocked removes and returns every open bucket of fresh's
// channel under another key. A fresh bucket under a new key means the
// channel rotated (keyttl expiry, a membership change, a revocation): nothing
// is tagged with the old key again, so its bucket would hold acknowledged
// submissions unordered until Flush. Caller holds b.mu.
func (b *batchStage) detachStrandedLocked(fresh *groupBucket) []*groupBucket {
	var stranded []*groupBucket
	for ck, g := range b.groups {
		if g != fresh && g.channel == fresh.channel {
			delete(b.groups, ck)
			stranded = append(stranded, g)
		}
	}
	return stranded
}

// Flush releases any partially-filled batch downstream. In group-seal mode
// every open (channel, epoch) bucket is sealed and released under the
// epoch current at its members' submission. It is a no-op on an empty
// buffer and an error if the stage has never seen a request (the
// downstream continuation is learned from the first Handle call).
func (b *batchStage) Flush(ctx context.Context) error {
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
		for _, g := range groups {
			if err := b.releaseGroup(ctx, g, next, nil); err != nil {
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

// detach returns ctx without the flushing caller's cancellation (values
// survive): the buffered members were acknowledged under their own,
// long-gone contexts, and a canceled filling request must not fail them. A
// release under the parent of the last one reuses its detached context.
func (b *batchStage) detach(ctx context.Context) context.Context {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !sameContext(ctx, b.parent) {
		b.parent, b.detached = ctx, context.WithoutCancel(ctx)
	}
	return b.detached
}

// sameContext reports a == b for the contexts == compares without a chance
// of panicking: pointers, which every context the standard library derives
// is, and comparable types of size zero, such as context.Background's. A
// context of any other type is never the same, and pays its detached
// context.
func sameContext(a, b context.Context) bool {
	t := reflect.TypeOf(a)
	return t != nil && (t.Kind() == reflect.Pointer || (t.Size() == 0 && t.Comparable())) && a == b
}

// pendingCount reports the number of buffered submissions across all open
// buckets.
func (b *batchStage) pendingCount() int {
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
func (b *batchStage) release(ctx context.Context, group []*Request, next Handler, flusher *Request) error {
	ctx = b.detach(ctx)
	releaseStart := time.Now()
	var errs []error
	for i, req := range group {
		start := time.Now()
		err := next(ctx, req)
		d := time.Since(start)
		if tr := req.trace; tr != nil {
			tr.AddSpan("batch.release", start, d, d, err)
		}
		if err != nil {
			b.releaseFailedTxs.Add(1)
			errs = append(errs, fmt.Errorf("request %d/%d (%s): %v", i+1, len(group), req.id(), err))
		}
		req.drop()
	}
	if flusher != nil {
		flusher.downstreamNanos += int64(time.Since(releaseStart))
	}
	if joined := errors.Join(errs...); joined != nil {
		// %v, not %w: the flushing caller's own member may have committed.
		// Another member's ordering error matched through this one
		// (ordering.ErrNoLeader reads "not ordered") would invite a
		// resubmission that orders the caller's transaction twice.
		return fmt.Errorf("%w: %v", ErrBatchRelease, joined)
	}
	return nil
}

// releaseGroup seals one (channel, epoch) bucket with a single AEAD
// invocation under the bucket's epoch key and sends the group envelope
// downstream as one synthetic transaction (BatchPrincipal, MetaBatch
// scheme + count). The group shares one fate: every member's trace gets a
// "batch.release" span whose exclusive time is its amortized share of the
// release. Cancellation detaching and error wrapping mirror release.
func (b *batchStage) releaseGroup(ctx context.Context, g *groupBucket, next Handler, flusher *Request) error {
	ctx = b.detach(ctx)
	start := time.Now()
	group, channel, ck := g.reqs, g.channel, g.key
	sealed, sum, relErr := ck.seal(g.payloads)
	if relErr == nil {
		val := b.fullMeta
		if len(group) != b.size {
			val = EnvelopeScheme + " n=" + strconv.Itoa(len(group))
		}
		// The vehicle is borrowed from the wire pool and dropped once next
		// returns: no stage after batch keeps a request (the held fact), and
		// what the transaction keeps of it — the frame, the Meta map — is
		// not in the struct the pool takes back.
		greq := borrowRequest()
		greq.Channel, greq.Principal, greq.Payload = channel, BatchPrincipal, sealed
		greq.Meta = map[string]string{MetaBatch: val}
		greq.authenticated, greq.encrypted = true, true
		// The seal's sum primes the ledger digest: the group frame is never
		// hashed again.
		greq.setPayloadSum(sealed, sum)
		relErr = next(ctx, greq)
		greq.drop()
	}
	elapsed := time.Since(start)
	var wrapped error
	if relErr != nil {
		// %v, not %w, as in release: a release error matches
		// ErrBatchRelease and nothing under it.
		wrapped = fmt.Errorf("%w: group %s/epoch %d n=%d: %v", ErrBatchRelease, channel, ck.epoch, len(group), relErr)
		b.releaseFailedTxs.Add(uint64(len(group)))
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
		r.drop()
	}
	if flusher != nil {
		flusher.downstreamNanos += int64(elapsed)
	}
	return wrapped
}

package main

import (
	"context"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"dltprivacy/internal/ledger"
	"dltprivacy/internal/middleware"
	"dltprivacy/internal/netedge"
	"dltprivacy/internal/ordering"
)

// metaSpan is the request Meta key the traced client stamps with the
// request's sequence number. Gateway.order copies request Meta onto the
// ledger transaction, which is how the ordering-side decorators — which
// only ever see the sealed transaction — find the request a span belongs
// to.
const metaSpan = "bench.span"

// Span names, one per layer boundary the harness can see from outside the
// program. Nesting is strict: each is the only child kind of the one
// above it.
const (
	spanClient    = "client.submit"        // harness call: send frame -> ack
	spanServeWire = "middleware.servewire" // netedge.Handler.ServeWire
	spanOrder     = "ordering.submit"      // ShardedBackend.Submit
	spanShard     = "ordering.shard"       // one shard's Submit
	spanDeliver   = "ordering.deliver"     // the block subscriber
)

// spanNesting is the layer order, outermost first.
var spanNesting = []string{spanClient, spanServeWire, spanOrder, spanShard, spanDeliver}

// groupLayer is the span kind a group release's ordering span is charged
// to in the per-layer totals: the batch stage releases a group from inside
// some member's ServeWire call, but the released transaction carries the
// group's own Meta, not that member's.
const groupLayer = spanServeWire

// traceSpan is one recorded interval. ID is unique within the trace;
// Parent is the ID of the span that caused it, "" for a root. A group
// release's spans hang off a synthetic parent "g<k>" that matches no
// recorded span: a batch release's parent is its group.
type traceSpan struct {
	ID      string `json:"id"`
	Parent  string `json:"parent,omitempty"`
	Name    string `json:"name"`
	Request string `json:"request,omitempty"` // the request ID ServeWire returned
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	SelfNS  int64  `json:"self_ns"`
}

func (s traceSpan) dur() int64 { return s.EndNS - s.StartNS }

func isGroupID(id string) bool { return strings.HasPrefix(id, "g") }

// fillSelfTimes sets every span's SelfNS to its duration minus the
// durations of its direct children, and returns per-name totals of self
// time. A span whose parent is a group has no recorded parent span to
// subtract from, so its duration is subtracted from the groupLayer total
// instead: the layer totals still add up to the root spans' total.
func fillSelfTimes(spans []traceSpan) map[string]int64 {
	index := make(map[string]int, len(spans))
	for i := range spans {
		spans[i].SelfNS = spans[i].dur()
		index[spans[i].ID] = i
	}
	groupChildren := int64(0)
	for _, s := range spans {
		if s.Parent == "" {
			continue
		}
		if p, ok := index[s.Parent]; ok {
			spans[p].SelfNS -= s.dur()
		} else if isGroupID(s.Parent) {
			groupChildren += s.dur()
		}
	}
	self := make(map[string]int64)
	for _, s := range spans {
		self[s.Name] += s.SelfNS
	}
	self[groupLayer] -= groupChildren
	return self
}

// rawSpan is the fixed-size in-memory form: the recorder appends these
// from every goroutine on the request path without allocating.
type rawSpan struct {
	kind  uint8 // index into spanNesting
	group bool  // seq is a group number, not a request sequence
	seq   uint32
	start int64
	end   int64
}

// serveSpan is a ServeWire interval, keyed by the request ID the call
// returned (the one thing the handler decorator shares with the client).
type serveSpan struct {
	id    [32]byte
	start int64
	end   int64
}

// recorder keeps the traced repetition's spans in memory. Slots are
// claimed with an atomic counter, so recording is a clock read and a
// struct store; a full recorder drops (and counts) instead of growing.
type recorder struct {
	epoch time.Time

	spans   []rawSpan
	n       atomic.Int64
	serves  []serveSpan
	ns      atomic.Int64
	dropped atomic.Int64
	groups  atomic.Uint32
}

// newRecorder sizes the recorder for a repetition of ops requests.
func newRecorder(ops int) *recorder {
	return &recorder{
		epoch:  time.Now(),
		spans:  make([]rawSpan, 4*ops+1024),
		serves: make([]serveSpan, ops+1024),
	}
}

// reset forgets everything recorded so far (the warm-up's spans).
func (r *recorder) reset() {
	r.n.Store(0)
	r.ns.Store(0)
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(kind uint8, group bool, seq uint32, start, end int64) {
	i := r.n.Add(1) - 1
	if int(i) >= len(r.spans) {
		r.dropped.Add(1)
		return
	}
	r.spans[i] = rawSpan{kind: kind, group: group, seq: seq, start: start, end: end}
}

func (r *recorder) addServe(id []byte, start, end int64) {
	i := r.ns.Add(1) - 1
	if int(i) >= len(r.serves) || len(id) != 32 {
		r.dropped.Add(1)
		return
	}
	s := &r.serves[i]
	copy(s.id[:], id)
	s.start, s.end = start, end
}

// txOwner resolves the request (or group) an ordered transaction belongs
// to from its Meta. ok is false for transactions the harness did not
// submit. A group release carries the batch stage's own Meta rather than
// any member's, so the outermost ordering decorator (numberGroups) numbers
// it by adding the metaSpan key itself: the map belongs to the transaction
// being submitted, nothing has digested it yet, and the decorators nested
// inside that call read the number back.
func (r *recorder) txOwner(tx *ledger.Transaction, numberGroups bool) (seq uint32, group, ok bool) {
	v, found := tx.Meta[metaSpan]
	if !found {
		if _, batched := tx.Meta[middleware.MetaBatch]; !batched || !numberGroups {
			return 0, false, false
		}
		seq = r.groups.Add(1)
		tx.Meta[metaSpan] = "g" + strconv.FormatUint(uint64(seq), 10)
		return seq, true, true
	}
	group = isGroupID(v)
	if group {
		v = v[1:]
	}
	n, err := strconv.ParseUint(v, 10, 32)
	return uint32(n), group, err == nil
}

// tracedHandler decorates the netedge.Handler handed to Listen: one span
// per accepted submission, tagged with the request ID the call returned.
func tracedHandler(rec *recorder, next netedge.Handler) netedge.Handler {
	return netedge.HandlerFunc(func(ctx context.Context, topic string, payload []byte, transportID string) ([]byte, error) {
		if topic != middleware.TopicSubmit {
			return next.ServeWire(ctx, topic, payload, transportID)
		}
		start := rec.now()
		reply, err := next.ServeWire(ctx, topic, payload, transportID)
		if err == nil {
			rec.addServe(reply, start, rec.now())
		}
		return reply, err
	})
}

// tracedBackend decorates an ordering.Backend's Submit with a span of the
// given kind. The decorator around the ShardedBackend is the outermost one
// and numbers group releases (see txOwner).
type tracedBackend struct {
	ordering.Backend
	rec          *recorder
	kind         uint8
	numberGroups bool
}

func (b *tracedBackend) Submit(tx ledger.Transaction) error {
	seq, group, ok := b.rec.txOwner(&tx, b.numberGroups)
	if !ok {
		return b.Backend.Submit(tx)
	}
	start := b.rec.now()
	err := b.Backend.Submit(tx)
	b.rec.add(b.kind, group, seq, start, b.rec.now())
	return err
}

// Failovers forwards the replicated shard's election counter so
// ShardedBackend.Stats keeps reporting it through the decorator.
func (b *tracedBackend) Failovers() uint64 {
	if f, ok := b.Backend.(interface{ Failovers() uint64 }); ok {
		return f.Failovers()
	}
	return 0
}

// tracedDeliver decorates the block subscriber with a span charged to the
// block's first transaction (every workload here orders one transaction
// per block).
func tracedDeliver(rec *recorder, next ordering.DeliverFunc) ordering.DeliverFunc {
	kind := kindOf(spanDeliver)
	return func(b ledger.Block) error {
		if len(b.Txs) == 0 {
			return next(b)
		}
		seq, group, ok := rec.txOwner(&b.Txs[0], false)
		if !ok {
			return next(b)
		}
		start := rec.now()
		err := next(b)
		rec.add(kind, group, seq, start, rec.now())
		return err
	}
}

func kindOf(name string) uint8 {
	for i, n := range spanNesting {
		if n == name {
			return uint8(i)
		}
	}
	panic("benchmark: unknown span name " + name)
}

// clientTrace is the client side of the traced repetition: per request
// sequence number, when the frame was handed to the connection, when the
// ack came back, and the request ID the ack carried.
type clientTrace struct {
	start []int64
	end   []int64
	id    [][32]byte
}

func newClientTrace(ops int) *clientTrace {
	return &clientTrace{
		start: make([]int64, ops),
		end:   make([]int64, ops),
		id:    make([][32]byte, ops),
	}
}

func (c *clientTrace) record(seq int, start, end int64, reply []byte) {
	if seq >= len(c.start) || len(reply) != 32 {
		return
	}
	c.start[seq], c.end[seq] = start, end
	copy(c.id[seq][:], reply)
}

// buildTrace joins the recorder's raw spans with the client's records into
// one span list with parent links: client c<n> > servewire s<n> > ordering
// o<n> > shard h<n> > deliver d<n>, and for a group release og<k> > hg<k> >
// dg<k> under the unrecorded parent g<k>.
func buildTrace(rec *recorder, ct *clientTrace) []traceSpan {
	seqOf := make(map[[32]byte]uint32, len(ct.id))
	spans := make([]traceSpan, 0, int(rec.n.Load())+2*len(ct.id))
	for seq := range ct.id {
		if ct.end[seq] == 0 {
			continue
		}
		seqOf[ct.id[seq]] = uint32(seq)
		spans = append(spans, traceSpan{
			ID: "c" + strconv.Itoa(seq), Name: spanClient, Request: string(ct.id[seq][:]),
			StartNS: ct.start[seq], EndNS: ct.end[seq],
		})
	}
	ns := min(int(rec.ns.Load()), len(rec.serves))
	for _, s := range rec.serves[:ns] {
		seq, ok := seqOf[s.id]
		if !ok {
			continue
		}
		n := strconv.FormatUint(uint64(seq), 10)
		spans = append(spans, traceSpan{
			ID: "s" + n, Parent: "c" + n, Name: spanServeWire, Request: string(s.id[:]),
			StartNS: s.start, EndNS: s.end,
		})
	}
	// prefix[kind] is the ID letter of that kind's spans; a span's parent
	// is the same owner under the enclosing kind's letter.
	prefix := []string{"c", "s", "o", "h", "d"}
	n := min(int(rec.n.Load()), len(rec.spans))
	for _, r := range rec.spans[:n] {
		owner := strconv.FormatUint(uint64(r.seq), 10)
		request := ""
		if r.group {
			owner = "g" + owner
		} else if int(r.seq) < len(ct.id) {
			request = string(ct.id[r.seq][:])
		}
		parent := prefix[r.kind-1] + owner
		if r.group && spanNesting[r.kind] == spanOrder {
			parent = owner
		}
		spans = append(spans, traceSpan{
			ID: prefix[r.kind] + owner, Parent: parent, Name: spanNesting[r.kind], Request: request,
			StartNS: r.start, EndNS: r.end,
		})
	}
	return spans
}

// layerTimes reduces a trace to the per-layer timing metrics, each a mean
// per client request in microseconds, so the self times add up to the
// client-observed mean latency.
func layerTimes(spans []traceSpan) map[string]float64 {
	self := fillSelfTimes(spans)
	total := make(map[string]int64)
	requests := 0
	var order []traceSpan
	for _, s := range spans {
		total[s.Name] += s.dur()
		switch s.Name {
		case spanClient:
			requests++
		case spanOrder:
			order = append(order, s)
		}
	}
	if requests == 0 {
		return nil
	}
	perRequestUS := func(ns int64) float64 { return float64(ns) / float64(requests) / 1e3 }
	out := map[string]float64{
		"client.traced_mean_us":     perRequestUS(total[spanClient]),
		"netedge.roundtrip_self_us": perRequestUS(self[spanClient]),
		"middleware.servewire_us":   perRequestUS(total[spanServeWire]),
		"middleware.chain_self_us":  perRequestUS(self[spanServeWire]),
		"ordering.submit_us":        perRequestUS(total[spanOrder]),
		"ordering.route_self_us":    perRequestUS(self[spanOrder]),
		"ordering.shard_self_us":    perRequestUS(self[spanShard]),
		"ordering.deliver_us":       perRequestUS(total[spanDeliver]),
	}
	// Growth: how much longer an ordering submit takes at the end of the
	// run than at its start, as state (chains, replica logs, the audit
	// log) accumulates.
	sort.Slice(order, func(i, j int) bool { return order[i].StartNS < order[j].StartNS })
	if decile := len(order) / 10; decile > 0 {
		mean := func(ss []traceSpan) float64 {
			var sum int64
			for _, s := range ss {
				sum += s.dur()
			}
			return float64(sum) / float64(len(ss))
		}
		if first := mean(order[:decile]); first > 0 {
			out["ordering.submit_growth_ratio"] = mean(order[len(order)-decile:]) / first
		}
	}
	return out
}

// sampleTrace keeps every span of at most maxRequests evenly spaced
// requests (and of the groups released while they ran), so the trace file
// stays a few megabytes whatever the run length.
func sampleTrace(spans []traceSpan, maxRequests int) []traceSpan {
	requests := 0
	for _, s := range spans {
		if s.Name == spanClient {
			requests++
		}
	}
	every := 1
	if requests > maxRequests {
		every = (requests + maxRequests - 1) / maxRequests
	}
	keep := func(id string) bool {
		owner := strings.TrimLeft(id, "cshod")
		if isGroupID(owner) {
			owner = owner[1:]
		}
		n, err := strconv.Atoi(owner)
		return err == nil && n%every == 0
	}
	var out []traceSpan
	for _, s := range spans {
		if keep(s.ID) {
			out = append(out, s)
		}
	}
	return out
}

package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// Span is one recorded step of a sampled request: the stage name, its
// offset from the trace start, its inclusive and exclusive durations, and
// the error it returned, if any. Spans appear in completion order (the
// innermost stage finishes first).
type Span struct {
	Stage          string `json:"stage"`
	StartNanos     int64  `json:"startNanos"`
	Nanos          int64  `json:"nanos"`
	ExclusiveNanos int64  `json:"exclusiveNanos"`
	Err            string `json:"err,omitempty"`
}

// maxSpansPerTrace bounds a single trace's memory: any stage may add spans
// of its own beside its instrument frame's, and a trace must never grow
// without bound. Overflowing spans are counted, not stored.
const maxSpansPerTrace = 64

// Trace is one sampled request's record. Producers append spans with
// AddSpan; the tracer seals it with Finish. Safe for concurrent use — a
// batch stage may release a buffered request from another goroutine after
// the submitting call already finished the trace.
type Trace struct {
	// ID is the request's trace identifier, carried on the wire so
	// cross-process hops can share it.
	ID uint64
	// Start is when the tracer began recording the request.
	Start time.Time

	mu sync.Mutex
	// spans is backed by inline until the trace outgrows it: a trace of at
	// most inlineSpans spans allocates nothing beyond its slot of the
	// tracer's slab (Tracer.For). Past that, spans grow on the heap up to
	// maxSpansPerTrace.
	spans   []Span
	inline  [inlineSpans]Span
	dropped int
	err     string
	end     int64 // duration at Finish, nanos; 0 while open
}

// inlineSpans is how many spans a trace holds before it allocates for more.
const inlineSpans = 8

// AddSpan records one stage execution. start is the stage's entry time
// (offsets are computed against the trace start); incl and excl are the
// stage's inclusive and exclusive durations. Only sampled requests carry a
// *Trace, so this cost is never paid on the unsampled path.
func (tr *Trace) AddSpan(stage string, start time.Time, incl, excl time.Duration, err error) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	if len(tr.spans) >= maxSpansPerTrace {
		tr.dropped++
		tr.mu.Unlock()
		return
	}
	s := Span{
		Stage:          stage,
		StartNanos:     int64(start.Sub(tr.Start)),
		Nanos:          int64(incl),
		ExclusiveNanos: int64(excl),
	}
	if err != nil {
		s.Err = err.Error()
	}
	if tr.spans == nil {
		tr.spans = tr.inline[:0]
	}
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

// TraceRecord is the JSON-safe copy of a finished trace /tracez serves.
type TraceRecord struct {
	ID            string    `json:"id"`
	Start         time.Time `json:"start"`
	DurationNanos int64     `json:"durationNanos"`
	Err           string    `json:"err,omitempty"`
	DroppedSpans  int       `json:"droppedSpans,omitempty"`
	Spans         []Span    `json:"spans"`
}

// record copies the trace under its lock.
func (tr *Trace) record() TraceRecord {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return TraceRecord{
		ID:            formatTraceID(tr.ID),
		Start:         tr.Start,
		DurationNanos: tr.end,
		Err:           tr.err,
		DroppedSpans:  tr.dropped,
		Spans:         append([]Span(nil), tr.spans...),
	}
}

// formatTraceID renders a trace ID as fixed-width hex.
func formatTraceID(id uint64) string {
	const hexDigits = "0123456789abcdef"
	var b [16]byte
	for i := range b {
		b[i] = hexDigits[(id>>uint(60-4*i))&0xf]
	}
	return string(b[:])
}

// Tracer samples requests into a bounded ring of traces. All methods are
// nil-receiver safe, so callers hold a *Tracer that is simply nil when
// tracing is off and pay only a nil check.
type Tracer struct {
	every uint64 // sample 1 in every; 0 records only carried IDs
	seen  atomic.Uint64
	ids   atomic.Uint64

	mu       sync.Mutex
	ring     []*Trace // capacity-sized; pos indexes the next overwrite
	pos      uint64
	capacity int
	// slab is the rest of the slab the next traces are cut from (For).
	slab    []Trace
	sampled atomic.Uint64
}

// traceSlabLen is how many traces one slab holds: fifteen traces of 544
// bytes, 8,160 B, fill the 8,192-byte size class. The ring overwrites
// traces in the order they finish, about the order For cut them, so a slab
// dies whole once the ring has moved past it and no request still holds
// one of its traces.
// TestTraceSlabFillsItsSizeClass holds the arithmetic.
const traceSlabLen = 15

// NewTracer creates a tracer sampling one in every N requests into a ring
// of the given capacity. every <= 0 samples nothing locally but still
// records requests that arrive with a caller-carried trace ID; capacity
// <= 0 defaults to 256.
func NewTracer(every, capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 256
	}
	t := &Tracer{ring: make([]*Trace, capacity), capacity: capacity}
	if every > 0 {
		t.every = uint64(every)
	}
	// Seed the ID sequence with the wall clock so IDs from different
	// processes are distinguishable in merged trace dumps.
	t.ids.Store(uint64(time.Now().UnixNano()))
	return t
}

// For decides whether to record this request: a non-zero carried ID (a
// propagated cross-process trace) is always recorded; otherwise the 1-in-N
// sampler decides and mints a fresh ID. Returns nil — at the cost of one
// atomic increment — when the request is not sampled, or when the tracer
// itself is nil. A recorded trace is the next slot of the tracer's slab,
// handed out once and never again.
func (t *Tracer) For(carried uint64) *Trace {
	if t == nil {
		return nil
	}
	if carried == 0 {
		if t.every == 0 || (t.seen.Add(1)-1)%t.every != 0 {
			return nil
		}
		carried = t.ids.Add(1)
	}
	start := time.Now()
	t.mu.Lock()
	if len(t.slab) == 0 {
		t.slab = make([]Trace, traceSlabLen)
	}
	tr := &t.slab[0]
	t.slab = t.slab[1:]
	t.mu.Unlock()
	tr.ID, tr.Start = carried, start
	return tr
}

// Finish seals a trace with the request's outcome and pushes it into the
// ring, overwriting the oldest entry when full. Nil tracer or trace is a
// no-op.
func (t *Tracer) Finish(tr *Trace, err error) {
	if t == nil || tr == nil {
		return
	}
	tr.mu.Lock()
	tr.end = int64(time.Since(tr.Start))
	if err != nil {
		tr.err = err.Error()
	}
	tr.mu.Unlock()
	t.sampled.Add(1)
	t.mu.Lock()
	t.ring[t.pos%uint64(t.capacity)] = tr
	t.pos++
	t.mu.Unlock()
}

// Sampled reports how many traces have been finished into the ring over
// the tracer's lifetime (including ones since overwritten).
func (t *Tracer) Sampled() uint64 {
	if t == nil {
		return 0
	}
	return t.sampled.Load()
}

// SampleEvery reports the 1-in-N local sampling rate (0 = carried IDs
// only, or tracing off entirely for a nil tracer).
func (t *Tracer) SampleEvery() int {
	if t == nil {
		return 0
	}
	return int(t.every)
}

// Snapshot copies the ring's finished traces, oldest first.
func (t *Tracer) Snapshot() []TraceRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	n := t.pos
	if n > uint64(t.capacity) {
		n = uint64(t.capacity)
	}
	traces := make([]*Trace, 0, n)
	for i := uint64(0); i < n; i++ {
		// Oldest first: when the ring has wrapped, pos is also the oldest
		// live slot.
		traces = append(traces, t.ring[(t.pos-n+i)%uint64(t.capacity)])
	}
	t.mu.Unlock()
	out := make([]TraceRecord, len(traces))
	for i, tr := range traces {
		out[i] = tr.record()
	}
	return out
}

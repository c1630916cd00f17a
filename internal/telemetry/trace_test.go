package telemetry

import (
	"errors"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// TestTraceSlabFillsItsSizeClass holds the arithmetic of the slab sampled
// traces are cut from: traceSlabLen traces fit the 8,192-byte size class and
// one more would not, so a slab wastes less than a trace.
func TestTraceSlabFillsItsSizeClass(t *testing.T) {
	const class = 8192
	size := int(unsafe.Sizeof(Trace{}))
	if traceSlabLen*size > class || (traceSlabLen+1)*size <= class {
		t.Fatalf("a trace is %d bytes: %d of them are %d B, %d are %d B; want the slab of %d to fill the %d-byte size class",
			size, traceSlabLen, traceSlabLen*size, traceSlabLen+1, (traceSlabLen+1)*size, traceSlabLen, class)
	}
}

// TestCarvedTracesStayTheirOwn: four goroutines record traces carved from one
// tracer's slabs, three slabs' worth each, and write spans into each while
// the others carve its neighbours. Every trace in the ring reads its own ID
// and its own spans.
func TestCarvedTracesStayTheirOwn(t *testing.T) {
	const workers, each = 4, 3 * traceSlabLen
	tr := NewTracer(0, workers*each)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id := uint64(w*each + i + 1)
				x := tr.For(id)
				for s := 0; s < inlineSpans+1; s++ {
					x.AddSpan("stage", x.Start, time.Duration(id), time.Duration(s), nil)
				}
				tr.Finish(x, nil)
			}
		}()
	}
	wg.Wait()
	records := tr.Snapshot()
	if len(records) != workers*each {
		t.Fatalf("%d traces in the ring, want %d", len(records), workers*each)
	}
	seen := make(map[string]bool, len(records))
	for _, r := range records {
		if seen[r.ID] || len(r.Spans) != inlineSpans+1 {
			t.Fatalf("trace %s: seen twice, or %d spans, want %d", r.ID, len(r.Spans), inlineSpans+1)
		}
		seen[r.ID] = true
		for s, span := range r.Spans {
			if formatTraceID(uint64(span.Nanos)) != r.ID || span.ExclusiveNanos != int64(s) {
				t.Fatalf("trace %s holds span %d of trace %x", r.ID, s, span.Nanos)
			}
		}
	}
}

func TestTracerSamplesOneInN(t *testing.T) {
	tr := NewTracer(4, 8)
	var sampled int
	for i := 0; i < 16; i++ {
		if x := tr.For(0); x != nil {
			tr.Finish(x, nil)
			sampled++
		}
	}
	if sampled != 4 {
		t.Fatalf("sampled %d of 16 at 1-in-4, want 4", sampled)
	}
	if tr.Sampled() != 4 {
		t.Fatalf("Sampled() = %d, want 4", tr.Sampled())
	}
	if tr.SampleEvery() != 4 {
		t.Fatalf("SampleEvery() = %d, want 4", tr.SampleEvery())
	}
}

func TestTracerCarriedIDAlwaysRecorded(t *testing.T) {
	// every=0: local sampling off, carried IDs still traced.
	tr := NewTracer(0, 8)
	if x := tr.For(0); x != nil {
		t.Fatal("locally-originated request sampled with every=0")
	}
	x := tr.For(0xabc)
	if x == nil {
		t.Fatal("carried trace ID not recorded")
	}
	if x.ID != 0xabc {
		t.Fatalf("trace ID = %#x, want 0xabc", x.ID)
	}
	tr.Finish(x, nil)
	recs := tr.Snapshot()
	if len(recs) != 1 || recs[0].ID != "0000000000000abc" {
		t.Fatalf("snapshot = %+v, want one trace with id 0000000000000abc", recs)
	}
}

func TestTracerRingOverwritesOldest(t *testing.T) {
	tr := NewTracer(1, 3)
	for i := 1; i <= 5; i++ {
		x := tr.For(uint64(i))
		tr.Finish(x, nil)
	}
	recs := tr.Snapshot()
	if len(recs) != 3 {
		t.Fatalf("ring holds %d traces, want 3", len(recs))
	}
	// Oldest first: traces 3, 4, 5 survive.
	want := []string{"0000000000000003", "0000000000000004", "0000000000000005"}
	for i, w := range want {
		if recs[i].ID != w {
			t.Errorf("recs[%d].ID = %s, want %s", i, recs[i].ID, w)
		}
	}
	if tr.Sampled() != 5 {
		t.Fatalf("Sampled() = %d, want 5 (lifetime, not ring size)", tr.Sampled())
	}
}

func TestTraceSpansAndErrors(t *testing.T) {
	tr := NewTracer(1, 4)
	x := tr.For(0)
	if x == nil {
		t.Fatal("1-in-1 tracer skipped first request")
	}
	start := x.Start
	x.AddSpan("auth", start, 100*time.Nanosecond, 80*time.Nanosecond, nil)
	x.AddSpan("order", start.Add(time.Microsecond), 50, 50, errors.New("shard down"))
	tr.Finish(x, errors.New("submit failed"))

	recs := tr.Snapshot()
	if len(recs) != 1 {
		t.Fatalf("got %d traces, want 1", len(recs))
	}
	r := recs[0]
	if r.Err != "submit failed" {
		t.Errorf("trace err = %q", r.Err)
	}
	if len(r.Spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(r.Spans))
	}
	if s := r.Spans[0]; s.Stage != "auth" || s.Nanos != 100 || s.ExclusiveNanos != 80 || s.Err != "" {
		t.Errorf("span[0] = %+v", s)
	}
	if s := r.Spans[1]; s.Stage != "order" || s.StartNanos != int64(time.Microsecond) || s.Err != "shard down" {
		t.Errorf("span[1] = %+v", s)
	}
	if r.DurationNanos <= 0 {
		t.Errorf("trace duration = %d, want > 0", r.DurationNanos)
	}
}

func TestTraceSpanCap(t *testing.T) {
	tr := NewTracer(1, 1)
	x := tr.For(0)
	for i := 0; i < maxSpansPerTrace+7; i++ {
		x.AddSpan("batch.release", x.Start, 1, 1, nil)
	}
	tr.Finish(x, nil)
	r := tr.Snapshot()[0]
	if len(r.Spans) != maxSpansPerTrace {
		t.Fatalf("got %d spans, want cap %d", len(r.Spans), maxSpansPerTrace)
	}
	if r.DroppedSpans != 7 {
		t.Fatalf("dropped = %d, want 7", r.DroppedSpans)
	}
}

// TestNilTracerSafe pins the contract the fast path relies on: a nil
// *Tracer (tracing off) is safe everywhere and records nothing.
func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	if x := tr.For(123); x != nil {
		t.Fatal("nil tracer returned a trace")
	}
	tr.Finish(nil, errors.New("x"))
	if tr.Sampled() != 0 || tr.SampleEvery() != 0 || tr.Snapshot() != nil {
		t.Fatal("nil tracer reported state")
	}
	var x *Trace
	x.AddSpan("s", time.Time{}, 0, 0, nil) // must not panic
}

func TestFormatTraceID(t *testing.T) {
	cases := map[uint64]string{
		0:                  "0000000000000000",
		0xdeadbeef:         "00000000deadbeef",
		^uint64(0):         "ffffffffffffffff",
		0x0123456789abcdef: "0123456789abcdef",
	}
	for in, want := range cases {
		if got := formatTraceID(in); got != want {
			t.Errorf("formatTraceID(%#x) = %s, want %s", in, got, want)
		}
	}
}

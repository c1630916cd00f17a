package telemetry

import "sync/atomic"

// NanosPerSecond is the unit divisor converting nanosecond-valued
// observations to the seconds the Prometheus exposition expects. (A
// divisor rather than a 1e-9 multiplier: division by the exactly
// representable 1e9 rounds correctly, so bucket bounds export as clean
// shortest-form floats like 2.5e-07.)
const NanosPerSecond = 1e9

// LatencyBounds is the default latency bucket layout: exponential
// nanosecond upper bounds from 250ns doubling to ~1s (23 buckets plus the
// implicit +Inf). The span covers everything the gateway stages produce —
// a ~100ns pass-through stage, a ~5µs MAC-path submission, a ~400µs hybrid
// wrap, multi-millisecond batch releases — with ~2x resolution everywhere,
// which is enough to read p50/p99 off the cumulative buckets.
var LatencyBounds = latencyBounds()

func latencyBounds() []uint64 {
	bounds := make([]uint64, 23)
	for i := range bounds {
		bounds[i] = 250 << uint(i)
	}
	return bounds
}

// Histogram is a fixed-bucket histogram with lock-free atomic buckets.
// Bounds are ascending upper bounds in the producer's raw unit (e.g.
// nanoseconds); an implicit +Inf bucket catches everything beyond the last
// bound. Observe is allocation-free: one binary search over the bounds and
// two atomic adds, cheap enough to stay on the gateway fast path.
type Histogram struct {
	metricDesc
	bounds  []uint64
	buckets []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum     atomic.Uint64   // raw units
	// unit is the divisor converting raw observed values (and bounds) to
	// the export unit: NanosPerSecond for latency histograms, 1 (or 0,
	// treated as 1) for histograms already in their export unit.
	unit float64
}

// NewHistogram creates an unregistered histogram over the given ascending
// bounds; register it with Registry.Register. unit is the number of raw
// units per export unit (pass NanosPerSecond for nanosecond latencies, 0
// or 1 for none).
func NewHistogram(name, help string, bounds []uint64, unit float64, labels ...Label) *Histogram {
	d, err := newDesc(name, help, kindHistogram, labels)
	if err != nil {
		panic(err)
	}
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("telemetry: histogram bounds must be strictly ascending")
		}
	}
	if unit == 0 {
		unit = 1
	}
	return &Histogram{
		metricDesc: d,
		bounds:     append([]uint64(nil), bounds...),
		buckets:    make([]atomic.Uint64, len(bounds)+1),
		unit:       unit,
	}
}

// Observe records one value in raw units. Allocation-free and safe for
// concurrent use.
func (h *Histogram) Observe(v uint64) {
	// Manual binary search: the first bound >= v (Prometheus buckets are
	// cumulative with le semantics). A closure-based sort.Search would
	// risk an allocation on the hot path.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.buckets[lo].Add(1)
	h.sum.Add(v)
}

// HistogramSnapshot is a point-in-time copy of a histogram's buckets, for
// in-process quantile derivation (tests, status pages). Counts are
// per-bucket (not cumulative), in bound order with the +Inf bucket last.
type HistogramSnapshot struct {
	Bounds []uint64 // upper bounds, raw units; +Inf implicit
	Counts []uint64 // len(Bounds)+1
	Sum    uint64   // raw units
	Count  uint64
}

// Snapshot copies the histogram's current state. Buckets are read
// individually (not atomically as a set), which can skew concurrent
// snapshots by in-flight observations — fine for monitoring.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.buckets)),
		Sum:    h.sum.Load(),
	}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
		s.Count += s.Counts[i]
	}
	return s
}

// Quantile derives the q-quantile (0 < q <= 1, e.g. 0.5 or 0.99) from the
// snapshot by linear interpolation within the holding bucket, the same
// estimate Prometheus's histogram_quantile computes. Values beyond the
// last finite bound clamp to it. Returns 0 for an empty histogram.
func (s HistogramSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		next := cum + float64(c)
		if rank > next {
			cum = next
			continue
		}
		if i == len(s.Bounds) {
			// +Inf bucket: clamp to the last finite bound.
			return s.Bounds[len(s.Bounds)-1]
		}
		lower := uint64(0)
		if i > 0 {
			lower = s.Bounds[i-1]
		}
		upper := s.Bounds[i]
		if c == 0 {
			return upper
		}
		return lower + uint64(float64(upper-lower)*(rank-cum)/float64(c))
	}
	return s.Bounds[len(s.Bounds)-1]
}

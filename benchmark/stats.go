package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 < q <= 1) of sorted by the
// nearest-rank rule: the smallest value with at least q of the samples at
// or below it. No interpolation, so every reported latency is one a client
// actually observed. Returns 0 for an empty slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the median of values (the mean of the two middle values
// for an even count) without reordering the caller's slice.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// medianOf reduces repetitions to one value per metric: the median over
// the repetitions that reported the metric.
func medianOf(reps []map[string]float64) map[string]float64 {
	byName := make(map[string][]float64)
	for _, r := range reps {
		for name, v := range r {
			byName[name] = append(byName[name], v)
		}
	}
	out := make(map[string]float64, len(byName))
	for name, vs := range byName {
		out[name] = median(vs)
	}
	return out
}

// worsening is how much worse candidate is than base, as a share of base,
// in the metric's own direction: positive means worse, negative better.
// A zero base has no share; any move away from it in the worse direction
// reads as +Inf.
func worsening(m metricSpec, base, candidate float64) float64 {
	delta := candidate - base
	if m.Better == betterHigher {
		delta = -delta
	}
	if base == 0 {
		switch {
		case delta > 0:
			return math.Inf(1)
		case delta < 0:
			return math.Inf(-1)
		}
		return 0
	}
	return delta / math.Abs(base)
}

// withinBound reports whether candidate is no worse than base by more than
// the metric's bound.
func withinBound(m metricSpec, base, candidate float64) bool {
	return worsening(m, base, candidate) <= m.Bound
}

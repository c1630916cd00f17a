package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	sorted := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct {
		q    float64
		want float64
	}{
		{0.50, 50}, {0.90, 90}, {0.99, 100}, {0.999, 100}, {1, 100}, {0.05, 10}, {0.11, 20},
	} {
		if got := percentile(sorted, tc.q); got != tc.want {
			t.Errorf("percentile(q=%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.999); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
}

func TestMedianOfRepetitions(t *testing.T) {
	in := []float64{5, 1, 4, 2, 3}
	if got := median(in); got != 3 {
		t.Errorf("median of five = %v, want 3", got)
	}
	if in[0] != 5 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	// One outlying repetition (a noisy neighbour) must not move the result.
	reps := []map[string]float64{
		{"tx_per_s": 30000, "p50_us": 170},
		{"tx_per_s": 29000, "p50_us": 175},
		{"tx_per_s": 12000, "p50_us": 900},
		{"tx_per_s": 31000, "p50_us": 172},
		{"tx_per_s": 30500, "traced_only": 1},
	}
	got := medianOf(reps)
	if got["tx_per_s"] != 30000 {
		t.Errorf("tx_per_s median = %v, want 30000", got["tx_per_s"])
	}
	if got["p50_us"] != 173.5 {
		t.Errorf("p50_us median over the four repetitions that reported it = %v, want 173.5", got["p50_us"])
	}
	if got["traced_only"] != 1 {
		t.Errorf("metric reported once = %v, want 1", got["traced_only"])
	}
}

func TestBoundComparison(t *testing.T) {
	lower := metricSpec{Name: "cpu_us_per_tx", Better: betterLower, Bound: 0.07}
	higher := metricSpec{Name: "tx_per_s", Better: betterHigher, Bound: 0.15}
	for _, tc := range []struct {
		m               metricSpec
		base, candidate float64
		worse           float64
		within          bool
	}{
		{lower, 100, 106, 0.06, true},
		{lower, 100, 108, 0.08, false},
		{lower, 100, 50, -0.5, true}, // better is never a regression
		{higher, 1000, 900, 0.10, true},
		{higher, 1000, 800, 0.20, false},
		{higher, 1000, 2000, -1, true},
	} {
		if got := worsening(tc.m, tc.base, tc.candidate); math.Abs(got-tc.worse) > 1e-12 {
			t.Errorf("worsening(%s, %v -> %v) = %v, want %v", tc.m.Name, tc.base, tc.candidate, got, tc.worse)
		}
		if got := withinBound(tc.m, tc.base, tc.candidate); got != tc.within {
			t.Errorf("withinBound(%s, %v -> %v) = %v, want %v", tc.m.Name, tc.base, tc.candidate, got, tc.within)
		}
	}
	// A zero base has no share to worsen by: any move the wrong way is out.
	if withinBound(lower, 0, 1) {
		t.Error("a rise from 0 passed a lower-is-better bound")
	}
	if !withinBound(lower, 0, 0) {
		t.Error("0 -> 0 failed a bound")
	}
}

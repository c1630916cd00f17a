package main

import (
	"math"
	"testing"
	"time"
)

func TestHostCompensation(t *testing.T) {
	// A 10 s phase on 2 cores, of which the hypervisor took 8 core-seconds
	// (40%), while the yardstick needed 5/4 of its nominal time.
	h := observedHost(10*time.Second, 8*time.Second, 2, yardstickNominal*5/4)
	if math.Abs(h.stealShare-0.4) > 1e-12 || math.Abs(h.speed-0.8) > 1e-12 {
		t.Fatalf("host = %+v, want steal share 0.4, speed 0.8", h)
	}
	// 48,000 submissions in those 10 s: 4,800/s by the wall clock, but the
	// program was only let run for 6 s, at 0.8 of nominal speed.
	if got := h.rate(48_000, 10*time.Second); math.Abs(got-10_000) > 1e-6 {
		t.Errorf("compensated rate = %v, want 10000", got)
	}
	// A cost observed at 0.8 speed is smaller at nominal speed.
	if got := h.cost(250); math.Abs(got-200) > 1e-9 {
		t.Errorf("compensated cost = %v, want 200", got)
	}

	// A quiet host changes nothing.
	quiet := observedHost(10*time.Second, 0, 2, yardstickNominal)
	if quiet.rate(48_000, 10*time.Second) != 4800 || quiet.cost(250) != 250 {
		t.Errorf("a quiet host moved the numbers: %+v", quiet)
	}
	// Neither does a host that could not be measured.
	blind := observedHost(10*time.Second, 0, 2, 0)
	if blind.stealShare != 0 || blind.speed != 1 {
		t.Errorf("no measurements gave %+v, want no compensation", blind)
	}
	// A nonsense steal reading cannot drive the granted time to nothing.
	if got := observedHost(time.Second, time.Hour, 2, 0); got.stealShare > 0.9 || got.rate(1, time.Second) <= 0 {
		t.Errorf("runaway steal gave %+v", got)
	}
}

func TestParseSteal(t *testing.T) {
	stat := "cpu  1158821 5665 300500 993052 7287 0 87748 314389 0 0\ncpu0 470500 2740 133741 453442 5196 0 36950 147746 0 0\n"
	got, ok := parseSteal(stat)
	if !ok || got != 3143890*time.Millisecond {
		t.Errorf("parseSteal = %v, %v; want 3143.89s, true", got, ok)
	}
	for _, bad := range []string{"", "cpu 1 2 3\n", "intr 5 6 7 8 9 10 11 12 13\n", "cpu a b c d e f g h i\n"} {
		if _, ok := parseSteal(bad); ok {
			t.Errorf("parseSteal(%q) reported a reading", bad)
		}
	}
}

func TestYardstickReadingsSpreadThroughThePhase(t *testing.T) {
	for _, ops := range []int{1, 20, 1000, 100_003} {
		y := newYardstick(ops)
		due := 0
		for op := 0; op < ops; op++ {
			if op%y.every == 0 {
				due++
			}
		}
		if due < 1 || due > yardstickReadings {
			t.Errorf("%d operations: %d readings, want 1..%d", ops, due, yardstickReadings)
		}
	}
	y := newYardstick(4)
	for op := 0; op < 4; op++ {
		y.claimed(op)
	}
	if len(y.readings) != 4 {
		t.Fatalf("%d readings after 4 claims at every=1, want 4", len(y.readings))
	}
	if y.mean() <= 0 || y.cpu() != y.readings[0]+y.readings[1]+y.readings[2]+y.readings[3] {
		t.Errorf("mean %v, cpu %v from readings %v", y.mean(), y.cpu(), y.readings)
	}
	if (&yardstick{}).mean() != 0 {
		t.Error("mean of no readings is not 0")
	}
}

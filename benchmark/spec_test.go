package main

import (
	"bytes"
	"os"
	"regexp"
	"testing"
)

// TestManifestMatchesBenchmarkJSON keeps the file the driver reads and the
// tables this program prints from drifting apart.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v (regenerate with: bash benchmark/run.sh -manifest > BENCHMARK.json)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the program's tables; regenerate with: bash benchmark/run.sh -manifest > BENCHMARK.json")
	}
}

// TestManifestWithinDriverLimits checks the limits the driver refuses a
// manifest for before running anything.
func TestManifestWithinDriverLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, n string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q is outside the driver's name rule", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads, driver allows 2..8", len(workloads))
	}
	for _, w := range workloads {
		check("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, driver allows 1..200", w.Name, len(w.Why))
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, driver allows 16 and 128", len(endToEnd), len(perLayer))
	}
	hasSetup := false
	for _, m := range endToEnd {
		check("end-to-end metric", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == betterLower)
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the driver's unit rule", m.Name, m.Unit)
		}
		if m.Better != betterHigher && m.Better != betterLower {
			t.Errorf("%s: better=%q", m.Name, m.Better)
		}
	}
	for _, m := range perLayer {
		check("per-layer metric", m.Name)
	}
	if referenceSeconds < 1 || referenceSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", referenceSeconds)
	}
}

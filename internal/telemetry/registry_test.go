package telemetry

import (
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestRegistryDuplicateRejected(t *testing.T) {
	reg := NewRegistry()
	zero := func() uint64 { return 0 }
	if err := reg.CounterFunc("confmw_test_total", "h", zero, L("stage", "a")); err != nil {
		t.Fatal(err)
	}
	// Same family, different labels: fine.
	if err := reg.CounterFunc("confmw_test_total", "h", zero, L("stage", "b")); err != nil {
		t.Fatal(err)
	}
	// Exact duplicate: rejected.
	if err := reg.CounterFunc("confmw_test_total", "h", zero, L("stage", "a")); err == nil {
		t.Fatal("duplicate (name, labels) registration was accepted")
	}
	// Same family under a different kind: rejected.
	if err := reg.GaugeFunc("confmw_test_total", "h", func() float64 { return 0 }); err == nil {
		t.Fatal("kind-conflicting family registration was accepted")
	}
}

func TestRegistryRegisterAtomicOnFailure(t *testing.T) {
	reg := NewRegistry()
	a := NewHistogram("confmw_a_seconds", "h", LatencyBounds, NanosPerSecond)
	dup := NewHistogram("confmw_a_seconds", "h", LatencyBounds, NanosPerSecond)
	if err := reg.Register(a, dup); err == nil {
		t.Fatal("batch with duplicate was accepted")
	}
	// Nothing from the failing batch may have landed.
	if err := reg.Register(a); err != nil {
		t.Fatalf("metric from failed batch was partially registered: %v", err)
	}
}

func TestRegistryBadLabels(t *testing.T) {
	if err := NewRegistry().CounterFunc("confmw_x_total", "h", func() uint64 { return 0 }, L("", "v")); err == nil {
		t.Fatal("empty label key accepted")
	}
	if err := NewRegistry().CounterFunc("", "h", func() uint64 { return 0 }); err == nil {
		t.Fatal("empty metric name accepted")
	}
}

func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	if err := reg.CounterFunc("confmw_esc_total", "line1\nline2", func() uint64 { return 1 }, L("k", `a"b\c`+"\n")); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`# HELP confmw_esc_total line1\nline2`,
		`confmw_esc_total{k="a\"b\\c\n"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestRegistryConcurrency hammers counters and histograms from many
// goroutines while the exposition is scraped concurrently; run under
// -race this is the registry's thread-safety proof.
func TestRegistryConcurrency(t *testing.T) {
	reg := NewRegistry()
	hist := NewHistogram("confmw_conc_seconds", "h", LatencyBounds, NanosPerSecond)
	if err := reg.Register(hist); err != nil {
		t.Fatal(err)
	}
	var fnVal atomic.Uint64
	if err := reg.CounterFunc("confmw_conc_fn_total", "f", fnVal.Load); err != nil {
		t.Fatal(err)
	}

	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				fnVal.Add(1)
				hist.Observe(uint64(seed*1000 + i))
			}
		}(w)
	}
	// Concurrent scrapers and registrations while the writers run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if err := reg.WritePrometheus(io.Discard); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			_ = reg.CounterFunc("confmw_conc_extra_total", "x", fnVal.Load, L("i", string(rune('a'+i))))
		}
	}()
	wg.Wait()

	if got := fnVal.Load(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if s := hist.Snapshot(); s.Count != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", s.Count, workers*perWorker)
	}
}

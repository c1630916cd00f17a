package telemetry

import (
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds a deterministic registry covering every metric
// kind, multiple label sets within a family, and a histogram with
// observations in distinct buckets plus the +Inf overflow.
func goldenRegistry(t *testing.T) *Registry {
	t.Helper()
	reg := NewRegistry()
	if err := reg.CounterFunc("confmw_demo_requests_total", "Requests handled, by stage.", func() uint64 { return 3 }, L("stage", "auth")); err != nil {
		t.Fatal(err)
	}
	if err := reg.CounterFunc("confmw_demo_requests_total", "Requests handled, by stage.", func() uint64 { return 1 }, L("stage", "order")); err != nil {
		t.Fatal(err)
	}
	if err := reg.CounterFunc("confmw_demo_sweeps_total", "Sweeps run.", func() uint64 { return 7 }); err != nil {
		t.Fatal(err)
	}
	if err := reg.GaugeFunc("confmw_demo_live", "Live sessions.", func() float64 { return 2.5 }); err != nil {
		t.Fatal(err)
	}
	h := NewHistogram("confmw_demo_latency_seconds", "Stage latency.", []uint64{250, 500, 1000}, NanosPerSecond, L("stage", "auth"))
	if err := reg.Register(h); err != nil {
		t.Fatal(err)
	}
	h.Observe(100)  // first bucket
	h.Observe(300)  // second bucket
	h.Observe(2000) // +Inf
	return reg
}

func TestWritePrometheusGolden(t *testing.T) {
	var sb strings.Builder
	if err := goldenRegistry(t).WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()

	path := filepath.Join("testdata", "exposition.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("exposition differs from golden (regenerate with -update if intended)\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestWritePrometheusInvariants checks structural exposition rules
// independent of exact float formatting: one HELP/TYPE per family,
// cumulative buckets, _count equals total observations.
func TestWritePrometheusInvariants(t *testing.T) {
	var sb strings.Builder
	if err := goldenRegistry(t).WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if n := strings.Count(out, "# TYPE confmw_demo_requests_total counter"); n != 1 {
		t.Errorf("family header appears %d times, want exactly 1:\n%s", n, out)
	}
	for _, want := range []string{
		`confmw_demo_requests_total{stage="auth"} 3`,
		`confmw_demo_requests_total{stage="order"} 1`,
		"confmw_demo_sweeps_total 7",
		"confmw_demo_live 2.5",
		"# TYPE confmw_demo_latency_seconds histogram",
		`confmw_demo_latency_seconds_bucket{stage="auth",le="+Inf"} 3`,
		`confmw_demo_latency_seconds_count{stage="auth"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestMetricsHandler(t *testing.T) {
	srv := httptest.NewServer(goldenRegistry(t).Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != ContentType {
		t.Errorf("Content-Type = %q, want %q", ct, ContentType)
	}
}

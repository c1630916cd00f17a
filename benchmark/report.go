package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// repTimeout bounds one repetition's process: several times what the
// slowest repetition takes on the reference box, and well inside the
// driver's per-run limit.
const repTimeout = 100 * time.Second

// workloadReport is one workload's full run: the measured repetitions, the
// traced one if asked for, and what they reduce to.
type workloadReport struct {
	spec   workloadSpec
	seed   int64
	reps   []repResult // untraced, measuredReps of them
	traced *repResult
	probe  *repResult // the open-loop probe, for workloads that have one

	endToEnd map[string]float64 // median over reps
	layers   map[string]float64
}

// spawnRepetition runs one repetition in a process of its own: this
// binary, re-executed with -child. The child's standard error passes
// through; its standard output is the result.
func spawnRepetition(ctx context.Context, cfg repConfig) (repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return repResult{}, err
	}
	ctx, cancel := context.WithTimeout(ctx, repTimeout)
	defer cancel()
	cfg.Spawned = time.Now()
	arg, err := json.Marshal(cfg)
	if err != nil {
		return repResult{}, err
	}
	cmd := exec.CommandContext(ctx, exe, "-child", string(arg))
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return repResult{}, fmt.Errorf("repetition of %s: %w", cfg.Spec.Name, err)
	}
	var res repResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return repResult{}, fmt.Errorf("repetition of %s: decode result: %w", cfg.Spec.Name, err)
	}
	return res, nil
}

// tracePath is where a workload's traced repetition leaves its spans,
// relative to the repository root run.sh starts the program in.
func tracePath(workload string) string {
	return filepath.Join("benchmark", "results", "trace-"+workload+".json")
}

// runWorkload runs the measured repetitions of one workload, then the
// traced repetition and the micro-timings when traced is set.
func runWorkload(ctx context.Context, spec workloadSpec, seed int64, traced bool) (*workloadReport, error) {
	rep := &workloadReport{spec: spec, seed: seed}
	for i := 0; i < measuredReps; i++ {
		r, err := spawnRepetition(ctx, repConfig{Spec: spec, Seed: seed})
		if err != nil {
			return nil, err
		}
		rep.reps = append(rep.reps, r)
	}
	var e2e, layers []map[string]float64
	for _, r := range rep.reps {
		e2e = append(e2e, r.EndToEnd)
		layers = append(layers, r.Layers)
	}
	rep.endToEnd = medianOf(e2e)
	// Counts and client-side diagnostics are medians over the untraced
	// repetitions; the traced repetition adds only what needs spans or
	// exact stage timing, so nothing tracing perturbs is reported from it.
	rep.layers = medianOf(layers)
	if !traced {
		return rep, nil
	}
	r, err := spawnRepetition(ctx, repConfig{Spec: spec, Seed: seed, Traced: true, TracePath: tracePath(spec.Name)})
	if err != nil {
		return nil, err
	}
	rep.traced = &r
	for name, v := range r.Layers {
		if _, measured := rep.layers[name]; !measured {
			rep.layers[name] = v
		}
	}
	if spec.ProbeOps > 0 {
		probe := spec
		probe.Ops = spec.ProbeOps
		p, err := spawnRepetition(ctx, repConfig{Spec: probe, Seed: seed, Probe: true})
		if err != nil {
			return nil, err
		}
		rep.probe = &p
		rep.layers["client.open_p50_us"] = p.Layers["client.p50_us_raw"]
		rep.layers["client.open_p90_us"] = p.Layers["client.p90_us"]
		rep.layers["client.open_p99_us"] = p.Layers["client.p99_us"]
		for _, name := range []string{"client.late_share", "client.gen_lag_p99_us", "client.over_limit_share"} {
			rep.layers[name] = p.Layers[name]
		}
	}
	if base := rep.endToEnd["cpu_us_per_tx"]; base > 0 {
		// Compensated on both sides: the traced repetition runs a few seconds
		// after the ones it is compared with, on a host that may have changed.
		rep.layers["client.trace_overhead_share"] = r.EndToEnd["cpu_us_per_tx"]/base - 1
	}
	micro, err := microTimings(ctx)
	if err != nil {
		return nil, fmt.Errorf("micro-timings: %w", err)
	}
	for name, v := range micro {
		rep.layers[name] = v
	}
	return rep, nil
}

func (r *workloadReport) all() []repResult {
	out := append([]repResult(nil), r.reps...)
	for _, extra := range []*repResult{r.traced, r.probe} {
		if extra != nil {
			out = append(out, *extra)
		}
	}
	return out
}

func (r *workloadReport) problems() []string {
	var out []string
	for i, rep := range r.all() {
		for _, p := range rep.Problems {
			out = append(out, fmt.Sprintf("repetition %d: %s", i+1, p))
		}
	}
	return out
}

func (r *workloadReport) correct() bool { return len(r.problems()) == 0 }

// print writes the human-readable report: every metric by name with its
// unit.
func (r *workloadReport) print(w io.Writer) {
	n := runtime.NumCPU()
	fmt.Fprintf(w, "\n== %s  seed=%d  ops/repetition=%d\n", r.spec.Name, r.seed, r.spec.Ops)
	fmt.Fprintf(w, "   %s\n", r.spec.Why)
	fmt.Fprintf(w, "   load: one process, gateway and clients together, over host loopback TCP (127.0.0.1); %d connections, GOMAXPROCS=%d\n", n, n)
	if len(r.reps) > 0 {
		fmt.Fprintf(w, "   channels: %s\n", strings.Join(r.reps[0].Channels, " "))
	}
	fmt.Fprintf(w, "   end-to-end: median of %d repetitions, tracing off; times and rates compensated for what the host took (see the two lines below the table)\n", len(r.reps))
	for _, m := range endToEnd {
		var each []string
		for _, rep := range r.reps {
			each = append(each, fmt.Sprintf("%.6g", rep.EndToEnd[m.Name]))
		}
		fmt.Fprintf(w, "     %-20s %14.6g %-6s bound %2.0f%%  (%s)\n", m.Name, r.endToEnd[m.Name], m.Unit, 100*m.Bound, strings.Join(each, " "))
	}
	attempted, failed := totals(r.reps)
	fmt.Fprintf(w, "     %-20s %14.6g %-6s must not rise  (%d failed of %d attempted)\n", "failed_share", r.endToEnd["failed_share"], "share", failed, attempted)
	fmt.Fprintf(w, "     the host: stole %.1f%% of the core time; yardstick %.0f us against %.0f us nominal\n",
		100*r.layers["client.steal_share"], r.layers["client.yardstick_us"], micros(yardstickNominal))
	fmt.Fprintf(w, "     as observed: tx_per_s %.6g, cpu_us_per_tx %.6g, p50_us %.6g, p75_us %.6g, setup_s %.6g\n",
		r.layers["client.tx_per_s_raw"], r.layers["client.cpu_us_per_tx_raw"], r.layers["client.p50_us_raw"], r.layers["client.p75_us_raw"], r.layers["client.setup_s_raw"])
	if r.traced != nil {
		fmt.Fprintf(w, "   per-layer: spans and stage times from one traced repetition, counts as medians of the untraced ones, micro-timings of single functions\n")
		for _, m := range perLayer {
			fmt.Fprintf(w, "     %-36s %14.6g %s\n", m.Name, r.layers[m.Name], m.Unit)
		}
		sum := r.layers["netedge.roundtrip_self_us"] + r.layers["middleware.chain_self_us"] + r.layers["ordering.submit_us"]
		fmt.Fprintf(w, "   reconcile: netedge.roundtrip_self_us + middleware.chain_self_us + ordering.submit_us = %.2f us; traced client mean = %.2f us\n",
			sum, r.layers["client.traced_mean_us"])
	}
	for _, p := range r.problems() {
		fmt.Fprintf(w, "   FAILED CHECK: %s\n", p)
	}
}

func totals(reps []repResult) (attempted, failed int) {
	for _, rep := range reps {
		attempted += rep.Attempted
		failed += rep.Failed
	}
	return attempted, failed
}

// printResultLine writes the driver's result: one JSON object, last on
// standard output, with the end-to-end metrics (trace off) or the
// per-layer metrics (trace on).
func (r *workloadReport) printResultLine(w io.Writer, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	specs, values := endToEnd, r.endToEnd
	if traced {
		specs, values = perLayer, r.layers
	}
	metrics := make(map[string]value, len(specs))
	for _, m := range specs {
		metrics[m.Name] = value{values[m.Name], m.Unit}
	}
	attempted, failed := totals(r.all())
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), max(attempted, 1), failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// runSelfcheck runs every workload twice on this binary — the second set
// in reverse workload order — and prints, per workload and end-to-end
// metric, how far the second set's median is from the first's next to the
// bound. Two sets of runs of the same code have to agree within the
// bounds, or the bounds are tighter than the benchmark can resolve.
func runSelfcheck(ctx context.Context, seed int64, scale float64) error {
	sets := make([]map[string]*workloadReport, 2)
	for s := range sets {
		sets[s] = map[string]*workloadReport{}
		for i := range workloads {
			w := workloads[i]
			if s == 1 {
				w = workloads[len(workloads)-1-i]
			}
			rep, err := runWorkload(ctx, w.scaled(scale), seed, false)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "selfcheck: set %d %s done\n", s+1, w.Name)
			sets[s][w.Name] = rep
		}
	}
	fmt.Printf("selfcheck: two sets of runs of one binary, seed %d, %d repetitions per workload per set, second set in reverse order\n", seed, measuredReps)
	fmt.Printf("%-20s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "set 1", "set 2", "differ", "bound", "")
	ok := true
	for _, w := range workloads {
		a, b := sets[0][w.Name], sets[1][w.Name]
		for _, m := range endToEnd {
			// The two sets are peers, so the check is symmetric: neither
			// may be worse than the other by more than the bound.
			va, vb := a.endToEnd[m.Name], b.endToEnd[m.Name]
			verdict := "ok"
			if !withinBound(m, va, vb) || !withinBound(m, vb, va) {
				verdict, ok = "OUTSIDE BOUND", false
			}
			fmt.Printf("%-20s %-20s %14.6g %14.6g %8.2f%% %6.0f%%  %s\n", w.Name, m.Name, va, vb,
				100*max(worsening(m, va, vb), worsening(m, vb, va)), 100*m.Bound, verdict)
		}
		for s, rep := range []*workloadReport{a, b} {
			attempted, failed := totals(rep.reps)
			fmt.Printf("%-20s set %d: %d failed of %d attempted, ordering.chain_violations=%g, output checks %s\n",
				w.Name, s+1, failed, attempted, rep.layers["ordering.chain_violations"], passFail(rep.correct()))
			if failed > 0 || !rep.correct() {
				ok = false
			}
		}
	}
	if !ok {
		return fmt.Errorf("selfcheck: the two sets disagree beyond a bound, or a check failed")
	}
	fmt.Println("selfcheck: every end-to-end metric of every workload agrees within its bound")
	return nil
}

func passFail(ok bool) string {
	if ok {
		return "passed"
	}
	return "FAILED"
}

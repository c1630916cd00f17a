package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"dltprivacy/internal/middleware"
	"dltprivacy/internal/netedge"
)

// repConfig is one repetition's instructions. Every repetition runs in a
// process of its own (the parent re-executes itself with -child), so peak
// RSS, allocation counts and set-up time are the repetition's and nobody
// else's.
type repConfig struct {
	Spec   workloadSpec
	Seed   int64
	Traced bool
	// Probe runs the open-loop probe in place of the workload's own load.
	Probe   bool
	Spawned time.Time // when the parent started the process; zero = now
	// TracePath is where the traced repetition writes its spans.
	TracePath string
}

// repResult is what a repetition reports to the parent: the end-to-end
// metrics, the per-layer metrics it can see, and the output checks.
type repResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	Layers    map[string]float64 `json:"layers"`
	Channels  []string           `json:"channels"`
	// Problems lists every output check that missed; empty means correct.
	Problems []string `json:"problems"`
}

// snapshot is the process-wide counters read on both sides of the
// measured phase.
type snapshot struct {
	at       time.Time
	cpu      time.Duration
	steal    time.Duration // hostSteal; 0 where it cannot be read
	maxRSSKB int64
	mem      runtime.MemStats
	gcCPU    float64
	edge     netedge.EdgeStats
}

// processUsage returns the process's user+system CPU time so far and its
// peak resident set size in KB.
//
// The peak is VmHWM from /proc/self/status, not ru_maxrss: the kernel
// carries ru_maxrss across exec, so a repetition would start from the
// peak of whatever its parent had resident when it spawned it (the
// micro-timings leave the parent at ~450 MB). ru_maxrss is the fallback
// where /proc is not there to read.
func processUsage() (cpu time.Duration, peakRSSKB int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	peakRSSKB = ru.Maxrss
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		if _, rest, ok := strings.Cut(string(status), "VmHWM:"); ok {
			var kb int64
			if _, err := fmt.Sscanf(rest, "%d kB", &kb); err == nil {
				peakRSSKB = kb
			}
		}
	}
	return tv(ru.Utime) + tv(ru.Stime), peakRSSKB
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

func takeSnapshot(edge *netedge.Server) snapshot {
	var s snapshot
	runtime.ReadMemStats(&s.mem)
	s.gcCPU = gcCPUSeconds()
	s.edge = edge.Stats()
	s.cpu, s.maxRSSKB = processUsage()
	s.steal, _ = hostSteal()
	s.at = time.Now()
	return s
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sortedMicros converts durations to microseconds, ascending.
func sortedMicros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = micros(d)
	}
	sort.Float64s(out)
	return out
}

// runRepetition assembles a fresh gateway, drives one measured phase
// through it over loopback TCP, checks the outputs, and reports.
func runRepetition(ctx context.Context, cfg repConfig) (res repResult) {
	spec := cfg.Spec
	res = repResult{
		Workload: spec.Name, Seed: cfg.Seed, Traced: cfg.Traced,
		EndToEnd: map[string]float64{}, Layers: map[string]float64{},
	}
	problem := func(format string, args ...any) {
		res.Problems = append(res.Problems, fmt.Sprintf(format, args...))
	}
	started := cfg.Spawned
	if started.IsZero() {
		started = time.Now()
	}

	conns := runtime.NumCPU()
	runtime.GOMAXPROCS(conns)

	submissions := spec.Ops
	if spec.Kind == churnLoop {
		submissions *= spec.SubmitsPerVisit
	}
	var rec *recorder
	var ct *clientTrace
	if cfg.Traced {
		rec = newRecorder(submissions)
		ct = newClientTrace(submissions)
	}
	a, err := assemble(ctx, spec, cfg.Seed, conns, rec)
	if err != nil {
		problem("set-up: %v", err)
		return res
	}
	defer a.close()
	res.Channels = a.channels

	warmups, err := a.warmUp(ctx, submissions)
	if err != nil {
		problem("set-up: %v", err)
		return res
	}
	if rec != nil {
		rec.reset()
	}

	// Set-up garbage (handshake JSON, certificates) is collected before the
	// baseline so the measured phase starts from the standing state.
	runtime.GC()
	before := takeSnapshot(a.edge)

	// The closed loops read the yardstick at points spread through the
	// measured phase. The open-loop probe takes no readings (a sender that
	// stopped for one would run late) and reports what it observed.
	y := newYardstick(spec.Ops)
	var load loadResult
	switch {
	case cfg.Probe:
		load = a.runOpen(ctx)
	case spec.Kind == churnLoop:
		load = a.runChurn(ctx, ct, y)
	default:
		load = a.runClosed(ctx, ct, y)
	}
	after := takeSnapshot(a.edge)

	acked := load.attempted - load.failed
	res.Attempted, res.Failed = load.attempted, load.failed
	if load.firstErr != nil {
		problem("load: %v", load.firstErr)
	}
	if acked <= 0 {
		problem("no submission was acknowledged")
		return res
	}
	wall := after.at.Sub(before.at)
	cpu := after.cpu - before.cpu - y.cpu()
	lat := sortedMicros(load.latencies)
	perTx := func(v float64) float64 { return v / float64(acked) }

	// The time-based metrics, as observed, and what the host had to do with
	// them (see yardstick.go). Set-up is priced in CPU time: its wall time is
	// mostly round trips between threads that sleep in between, which on a
	// shared box repeats within a factor of two at best.
	h := observedHost(wall, after.steal-before.steal, conns, y.mean())
	raw := map[string]float64{
		"tx_per_s":      float64(acked) / wall.Seconds(),
		"cpu_us_per_tx": perTx(micros(cpu)),
		"p50_us":        percentile(lat, 0.50),
		"p75_us":        percentile(lat, 0.75),
		"setup_s":       before.cpu.Seconds(),
	}
	e := res.EndToEnd
	for name, v := range raw {
		res.Layers["client."+name+"_raw"] = v
		e[name] = h.cost(v)
	}
	e["tx_per_s"] = h.rate(float64(acked), wall) // a rate, not a cost
	res.Layers["client.steal_share"] = h.stealShare
	res.Layers["client.yardstick_us"] = micros(y.mean())
	res.Layers["client.setup_wall_s"] = before.at.Sub(started).Seconds()
	e["allocs_per_tx"] = perTx(float64(after.mem.Mallocs - before.mem.Mallocs))
	e["alloc_bytes_per_tx"] = perTx(float64(after.mem.TotalAlloc - before.mem.TotalAlloc))
	e["peak_rss_mb"] = float64(after.maxRSSKB) / 1024
	e["failed_share"] = float64(load.failed) / float64(load.attempted)

	l := res.Layers
	l["client.p90_us"] = percentile(lat, 0.90)
	l["client.p99_us"] = percentile(lat, 0.99)
	l["client.p999_us"] = percentile(lat, 0.999)
	l["client.max_us"] = percentile(lat, 1)
	l["client.samples"] = float64(len(lat))
	over := load.failed
	if load.limit > 0 {
		over += len(lat) - sort.SearchFloat64s(lat, micros(load.limit)+1e-9)
	}
	l["client.over_limit_share"] = float64(over) / float64(load.attempted)
	if len(load.lags) > 0 {
		l["client.late_share"] = float64(load.late) / float64(len(load.lags))
		l["client.gen_lag_p99_us"] = percentile(sortedMicros(load.lags), 0.99)
	}
	opens := load.opens
	if len(opens) == 0 {
		opens = a.openLatencies
	}
	l["middleware.session.open_us"] = median(sortedMicros(opens))
	l["ordering.failover_gap_us"] = median(sortedMicros(load.gaps))

	l["netedge.bytes_in_per_tx"] = perTx(float64(after.edge.BytesIn - before.edge.BytesIn))
	l["netedge.bytes_out_per_tx"] = perTx(float64(after.edge.BytesOut - before.edge.BytesOut))
	l["netedge.frame_errors"] = float64(after.edge.FrameErrors)
	l["netedge.sheds"] = float64(after.edge.Sheds)

	if cpu > 0 {
		l["runtime.gc_cpu_share"] = (after.gcCPU - before.gcCPU) / cpu.Seconds()
	}
	l["runtime.gc_cycles"] = float64(after.mem.NumGC - before.mem.NumGC)
	l["runtime.goroutines_end"] = float64(runtime.NumGoroutine())

	a.checkOutputs(ctx, &res, acked+warmups, load.failed == 0)

	// What the run left standing: live heap after a collection.
	runtime.GC()
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	l["runtime.heap_live_mb_end"] = float64(end.HeapAlloc) / (1 << 20)

	if cfg.Traced {
		spans := buildTrace(rec, ct)
		for name, v := range layerTimes(spans) {
			l[name] = v
		}
		a.stageTimes(l)
		if d := rec.dropped.Load(); d > 0 {
			problem("trace recorder dropped %d spans", d)
		}
		if cfg.TracePath != "" {
			if err := writeTrace(cfg.TracePath, &res, sampleTrace(spans, 2048)); err != nil {
				problem("write trace: %v", err)
			}
		}
	}
	return res
}

// checkOutputs runs the output checks and fills the count metrics that
// come from the program's own Stats calls.
func (a *assembly) checkOutputs(ctx context.Context, res *repResult, acked int, allAcked bool) {
	problem := func(format string, args ...any) {
		res.Problems = append(res.Problems, fmt.Sprintf(format, args...))
	}
	l := res.Layers
	if err := a.gw.Flush(ctx); err != nil {
		problem("gateway flush: %v", err)
	}
	st := a.gw.Stats()

	// Everything acknowledged was delivered, exactly once, in a gap-free
	// hash chain per channel.
	delivered, blocks, txs, violations := 0, 0, 0, 0
	for _, v := range a.verifiers {
		delivered += v.members
		blocks += v.blocks
		txs += v.txs
		violations += len(v.violations)
		for i, msg := range v.violations {
			if i < 4 {
				problem("chain: %s", msg)
			}
		}
	}
	l["ordering.chain_violations"] = float64(violations)
	if allAcked && delivered != acked {
		problem("delivered %d submissions, acknowledged %d", delivered, acked)
	} else if delivered < acked {
		problem("delivered %d submissions, fewer than the %d acknowledged", delivered, acked)
	}
	if blocks > 0 {
		l["ordering.txs_per_block"] = float64(txs) / float64(blocks)
	}

	a.checkPayloads(res)

	// No operator saw plaintext.
	for _, leak := range checkNoPlaintextObserved(a.log, a.operators()) {
		problem("%s", leak)
	}
	l["audit.observations_per_tx"] = float64(a.log.Len()) / float64(acked)

	// Counts from the program's own counters.
	var routed, hottest uint64
	var failovers uint64
	for _, sh := range a.sharded.Stats() {
		routed += sh.RoutedTxs
		hottest = max(hottest, sh.RoutedTxs)
		failovers += sh.Failovers
	}
	if routed > 0 {
		share := float64(hottest) / float64(routed)
		l["ordering.hot_shard_share"] = share
		if share > 0.6 {
			problem("shard skew: the hottest shard took %.0f%% of the traffic (channels %v)", 100*share, a.channels)
		}
	}
	l["ordering.failovers"] = float64(failovers)
	var stageErrors uint64
	for _, s := range st.Stages {
		stageErrors += s.Errors
	}
	l["middleware.stage.errors"] = float64(stageErrors)
	l["middleware.gateway.rejected"] = float64(st.Rejected)
	if st.Sessions != nil {
		l["middleware.session.live"] = float64(st.Sessions.Live)
		l["middleware.session.evicted"] = float64(st.Sessions.Evicted)
	}
	l["middleware.encrypt.epochs_per_ktx"] = float64(st.KeyEpochsRotated) / (float64(acked) / 1000)
	if st.BatchGroupsSealed > 0 {
		l["middleware.batch.txs_per_group"] = float64(st.BatchGroupTxs) / float64(st.BatchGroupsSealed)
	}
	l["middleware.audit.shed"] = float64(st.AuditShed)
	l["middleware.audit.ring_pending"] = float64(st.AuditRingPending)
}

// checkPayloads opens a spaced sample of delivered envelopes with a member
// key and compares them with what was submitted.
func (a *assembly) checkPayloads(res *repResult) {
	lookup := func(i int) (submissionKey, bool) {
		if a.spec.Kind == churnLoop {
			// A churn stamp names the principal: visits open their sessions
			// as they go.
			if i < 0 || i >= len(a.principals) {
				return submissionKey{}, false
			}
			p := &a.principals[i]
			return submissionKey{p.name, p.key, a.channels[a.churnChannel(i)], a.trades[i%len(a.trades)].Payload}, true
		}
		if i < 0 || i >= len(a.sessions) {
			return submissionKey{}, false
		}
		s := a.sessions[i]
		return submissionKey{s.principal.name, s.principal.key, s.channel, s.template}, true
	}
	opener, _ := lookup(0)
	c := payloadCheck{opener: opener, payloadLen: max(a.spec.Payload, stampLen), lookup: lookup, seen: map[uint64]bool{}}
	misses := 0
	for _, v := range a.verifiers {
		for i := range v.samples {
			if err := c.check(&v.samples[i]); err != nil {
				if misses++; misses <= 4 {
					res.Problems = append(res.Problems, fmt.Sprintf("payload: %v", err))
				}
			}
		}
	}
	if c.opened == 0 {
		res.Problems = append(res.Problems, "payload: no delivered envelope was sampled")
	}
	if c.groupMembers > 0 {
		res.Layers["middleware.batch.payload_mismatch_share"] = float64(c.groupMismatches) / float64(c.groupMembers)
	}
	if c.firstMismatch != "" {
		fmt.Fprintf(os.Stderr, "benchmark: known defect, not failing the run: %s\n", c.firstMismatch)
	}
}

// stageTimes reports each stage's mean exclusive time per call from the
// chain's own instrument. The chain bills its un-instrumented terminal —
// the call into the ordering backend — to whichever stage runs last, so
// the ordering span is taken back out of that stage. A batch stage is the
// exception: it already excludes its releases from its own time.
func (a *assembly) stageTimes(l map[string]float64) {
	stages := a.gw.Stats().Stages
	for i, s := range stages {
		if s.Calls == 0 {
			continue
		}
		us := float64(s.ExclusiveNanos) / float64(s.Calls) / 1e3
		if i == len(stages)-1 && s.Name != middleware.StageBatch {
			us -= l["ordering.submit_us"]
		}
		l["middleware.stage."+s.Name+"_us"] = us
	}
}

// traceFile is the on-disk form of a traced repetition.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Channels []string           `json:"channels"`
	Layers   map[string]float64 `json:"layers"`
	Spans    []traceSpan        `json:"spans"`
}

func writeTrace(path string, res *repResult, spans []traceSpan) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(traceFile{res.Workload, res.Seed, res.Channels, res.Layers, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

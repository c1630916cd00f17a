package main

import (
	"encoding/json"
	"fmt"
	"strings"
)

const (
	betterHigher = "higher"
	betterLower  = "lower"
)

// metricSpec names one metric the benchmark prints. Bound is the share of
// the parent commit's median by which an end-to-end metric may worsen
// before a change counts as a regression; per-layer metrics carry none.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// referenceSeconds is the --seconds value the operation counts below are
// sized for (BENCHMARK.json run_seconds): on the 2-core reference box the
// five measured phases of a workload add up to roughly this long. Counts
// scale linearly with --seconds, so a given --seconds always means the
// same number of operations — state grows with every transaction, and a
// fixed duration would compare different states on a faster and a slower
// commit.
const referenceSeconds = 15

// measuredReps is the number of untraced repetitions per workload; every
// end-to-end metric is the median over them.
const measuredReps = 5

// endToEnd lists the gated metrics in print order. The time-based ones
// (tx_per_s, cpu_us_per_tx, p50_us, p75_us, setup_s) are compensated for
// what the shared host took from the repetition (yardstick.go); each has
// its observed twin per layer as client.<name>_raw. failed_share is printed
// beside them but is not in this table: it is 0 on every workload, a bound
// as a share of 0 is meaningless, and the result line's attempted/failed
// pair carries it to the driver instead.
var endToEnd = []metricSpec{
	{"tx_per_s", "1/s", betterHigher, 0.25},
	{"cpu_us_per_tx", "us", betterLower, 0.25},
	{"p50_us", "us", betterLower, 0.25},
	{"p75_us", "us", betterLower, 0.25},
	{"allocs_per_tx", "count", betterLower, 0.02},
	{"alloc_bytes_per_tx", "B", betterLower, 0.03},
	{"peak_rss_mb", "MB", betterLower, 0.20},
	{"setup_s", "s", betterLower, 0.25},
}

// perLayer lists the diagnostic metrics, layer = module name. Counts and
// client-side diagnostics (as observed, uncompensated) are medians over the
// untraced repetitions; span and stage times come from the traced
// repetition; the client.open_*, late, lag and over-limit rows from the
// open-loop probe; the rest are micro-timings of one public function in a
// loop.
var perLayer = []metricSpec{
	{"client.tx_per_s_raw", "1/s", betterHigher, 0},
	{"client.cpu_us_per_tx_raw", "us", betterLower, 0},
	{"client.p50_us_raw", "us", betterLower, 0},
	{"client.p75_us_raw", "us", betterLower, 0},
	{"client.setup_s_raw", "s", betterLower, 0},
	{"client.setup_wall_s", "s", betterLower, 0},
	{"client.steal_share", "share", betterLower, 0},
	{"client.yardstick_us", "us", betterLower, 0},
	{"client.p90_us", "us", betterLower, 0},
	{"client.p99_us", "us", betterLower, 0},
	{"client.p999_us", "us", betterLower, 0},
	{"client.max_us", "us", betterLower, 0},
	{"client.samples", "count", betterHigher, 0},
	{"client.open_p50_us", "us", betterLower, 0},
	{"client.open_p90_us", "us", betterLower, 0},
	{"client.open_p99_us", "us", betterLower, 0},
	{"client.late_share", "share", betterLower, 0},
	{"client.gen_lag_p99_us", "us", betterLower, 0},
	{"client.over_limit_share", "share", betterLower, 0},
	{"client.trace_overhead_share", "share", betterLower, 0},

	{"netedge.roundtrip_self_us", "us", betterLower, 0},
	{"netedge.bytes_in_per_tx", "B", betterLower, 0},
	{"netedge.bytes_out_per_tx", "B", betterLower, 0},
	{"netedge.frame_errors", "count", betterLower, 0},
	{"netedge.sheds", "count", betterLower, 0},
	{"netedge.echo_rtt_depth1_us", "us", betterLower, 0},
	{"netedge.echo_us_per_op_depth8", "us", betterLower, 0},
	{"netedge.echo_allocs_per_op", "count", betterLower, 0},

	{"middleware.servewire_us", "us", betterLower, 0},
	{"middleware.chain_self_us", "us", betterLower, 0},
	{"middleware.stage.session_us", "us", betterLower, 0},
	{"middleware.stage.authn_us", "us", betterLower, 0},
	{"middleware.stage.encrypt_us", "us", betterLower, 0},
	{"middleware.stage.audit_us", "us", betterLower, 0},
	{"middleware.stage.batch_us", "us", betterLower, 0},
	{"middleware.stage.errors", "count", betterLower, 0},
	{"middleware.codec.encode_ns", "ns", betterLower, 0},
	{"middleware.codec.encode_allocs", "count", betterLower, 0},
	{"middleware.session.open_us", "us", betterLower, 0},
	{"middleware.session.openbound_us", "us", betterLower, 0},
	{"middleware.session.live", "count", betterLower, 0},
	{"middleware.session.evicted", "count", betterLower, 0},
	{"middleware.encrypt.epochs_per_ktx", "1/ktx", betterLower, 0},
	{"middleware.batch.txs_per_group", "tx/group", betterHigher, 0},
	{"middleware.batch.payload_mismatch_share", "share", betterLower, 0},
	{"middleware.audit.shed", "count", betterLower, 0},
	{"middleware.audit.ring_pending", "count", betterLower, 0},
	{"middleware.gateway.rejected", "count", betterLower, 0},

	{"audit.record_ns_small", "ns", betterLower, 0},
	{"audit.record_ns_large", "ns", betterLower, 0},
	{"audit.observations_per_tx", "count", betterLower, 0},

	{"ordering.submit_us", "us", betterLower, 0},
	{"ordering.route_self_us", "us", betterLower, 0},
	{"ordering.shard_self_us", "us", betterLower, 0},
	{"ordering.deliver_us", "us", betterLower, 0},
	{"ordering.submit_growth_ratio", "ratio", betterLower, 0},
	{"ordering.txs_per_block", "tx/block", betterHigher, 0},
	{"ordering.hot_shard_share", "share", betterLower, 0},
	{"ordering.failovers", "count", betterLower, 0},
	{"ordering.failover_gap_us", "us", betterLower, 0},
	{"ordering.chain_violations", "count", betterLower, 0},

	{"ledger.newblock_ns", "ns", betterLower, 0},
	{"ledger.tx_digest_ns", "ns", betterLower, 0},

	{"dcrypto.mac_ns", "ns", betterLower, 0},
	{"dcrypto.aead_seal_ns", "ns", betterLower, 0},
	{"dcrypto.aead_seal_group64_ns", "ns", betterLower, 0},
	{"dcrypto.ecdsa_sign_us", "us", betterLower, 0},
	{"dcrypto.ecdsa_verify_us", "us", betterLower, 0},

	{"pki.enroll_us", "us", betterLower, 0},
	{"pki.isrevoked_ns", "ns", betterLower, 0},

	{"telemetry.hist_observe_ns", "ns", betterLower, 0},

	{"runtime.gc_cpu_share", "share", betterLower, 0},
	{"runtime.gc_cycles", "count", betterLower, 0},
	{"runtime.heap_live_mb_end", "MB", betterLower, 0},
	{"runtime.goroutines_end", "count", betterLower, 0},
}

// loadKind is how a workload's client generates load.
type loadKind int

const (
	// closedLoop keeps a fixed number of requests in flight per connection:
	// a worker sends its next request only after the previous one is
	// acknowledged, so a slower gateway receives less load.
	closedLoop loadKind = iota
	// churnLoop is a closed loop of visits: open a session, submit a few
	// times, close it.
	churnLoop
)

// workloadSpec is one traffic mix. Ops is the per-repetition operation
// count at referenceSeconds: submissions for the closed loop, visits for
// the churn loop.
type workloadSpec struct {
	Name string
	Why  string
	Kind loadKind
	Ops  int

	Sessions   int // sessions opened during set-up
	Principals int
	Channels   int
	InFlight   int // closed loops: requests in flight per connection
	Payload    int // trade payload bytes

	Replicas     int    // ordering operators per shard: 0 = solo shards
	AuditAsync   int    // audit ring depth, 0 = synchronous
	BatchSize    int    // 0 = no batch stage; > 0 = batch(size, groupseal=on)
	TimingSample string // chain timing sample divisor, "" = time every request

	SubmitsPerVisit int // churn: submissions between open and close
	AbandonEvery    int // churn: every n-th visit leaves its session open
	MaxPerPrincipal int // churn: live-session cap that reaps the abandoned ones

	FailoverEvery int // crash a channel leader every n submissions (replicated shards)

	// The open-loop probe: one extra, ungated repetition beside the traced
	// one that sends ProbeOps submissions on a seeded Poisson schedule at
	// RatePerS whether or not earlier ones were acknowledged, and times each
	// from when it was due. LimitUS is its latency limit on p90.
	ProbeOps int
	RatePerS float64
	LimitUS  float64
}

// shards is the ordering topology every workload runs on, the cmd/gateway
// default.
const shards = 2

var workloads = []workloadSpec{
	{
		Name: "steady_mac",
		Why:  "headline path: codec decode, session resolve + MAC, cached-epoch seal, sync audit and solo ordering each carry a visible share, the handshake almost none",
		Kind: closedLoop, Ops: 100_000,
		Sessions: 2000, Principals: 50, Channels: 8, InFlight: 4, Payload: 96,
	},
	{
		Name: "session_churn",
		Why:  "open-session, 4 submissions, close-session: ECDSA sign/verify, pki checks and session-table writes and evictions do the work, the steady-state path little",
		Kind: churnLoop, Ops: 8_000,
		Principals: 50, Channels: 8, InFlight: 4, Payload: 96,
		SubmitsPerVisit: 4, AbandonEvery: 4, MaxPerPrincipal: 4,
	},
	{
		Name: "batch_groupseal",
		Why:  "batch(size=64,groupseal=on) behind an async audit ring: the chain amortises to ~1us so netedge + codec dominate and ordering sees 1/64 of the traffic",
		Kind: closedLoop, Ops: 250_000,
		Sessions: 2000, Principals: 50, Channels: 8, InFlight: 16, Payload: 96,
		AuditAsync: 4096, BatchSize: 64, TimingSample: "64",
	},
	{
		Name: "replicated_failover",
		Why:  "2 shards x 3 replicas with a leader crash on a rotating channel every 1000 submissions: replication, election and replay do the work, the edge little; failover must stay invisible to clients",
		Kind: closedLoop, Ops: 40_000,
		Sessions: 200, Principals: 50, Channels: 8, InFlight: 4, Payload: 96,
		Replicas: 3, FailoverEvery: 1000,
		ProbeOps: 9_000, RatePerS: 3000, LimitUS: 5000,
	},
}

func workloadByName(name string) (workloadSpec, error) {
	var names []string
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// scaled returns the spec with its operation count (and, below the
// reference size, its session population) scaled by factor. The session
// population only ever shrinks: it is part of what the workload is, and
// the smoke tests are the one caller that wants less of it.
func (w workloadSpec) scaled(factor float64) workloadSpec {
	scale := func(n int) int {
		if n == 0 {
			return 0
		}
		if s := int(float64(n)*factor + 0.5); s > 0 {
			return s
		}
		return 1
	}
	w.Ops = scale(w.Ops)
	w.ProbeOps = scale(w.ProbeOps)
	if factor < 1 && w.Sessions > 0 {
		// Keep enough sessions that every channel still gets an even share
		// of them on every connection.
		w.Sessions = max(scale(w.Sessions), 8*w.Channels)
		if w.FailoverEvery > 0 {
			w.FailoverEvery = scale(w.FailoverEvery)
		}
	}
	return w
}

// manifest renders BENCHMARK.json from the tables above, so the file the
// driver reads cannot drift from what the program prints.
func manifest() ([]byte, error) {
	type workloadEntry struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type boundedEntry struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerEntry struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string        `json:"command"`
		Paths      []string        `json:"paths"`
		RunSeconds int             `json:"run_seconds"`
		Workloads  []workloadEntry `json:"workloads"`
		EndToEnd   []boundedEntry  `json:"end_to_end"`
		PerLayer   []layerEntry    `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: referenceSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadEntry{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, boundedEntry{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerEntry{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

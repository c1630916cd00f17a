// Package telemetry is the dependency-free observability plane for the
// middleware gateway: a metrics registry that exports, at scrape time, the
// atomic counters and gauges its producers already maintain (CounterFunc,
// GaugeFunc, RegisterFuncs), plus fixed-bucket latency histograms; a
// Prometheus text-format exporter (text/plain; version=0.0.4); and a bounded
// in-memory ring of sampled request traces. Everything is engineered for the
// gateway's hot path: counter adds and histogram observes are single atomic
// operations with no allocation and no locks, so instrumentation can stay
// enabled in production without moving the benchmark gate.
//
// # Metric naming
//
// Metrics follow the scheme confmw_<subsystem>_<name>{labels}:
//
//	confmw_stage_latency_seconds{stage="session"}     exclusive per-stage latency histogram
//	confmw_stage_calls_total{stage="encrypt"}         per-stage invocation counter
//	confmw_gateway_submitted_total                    requests accepted by the chain
//	confmw_sessions_live                              live session gauge
//	confmw_shard_routed_txs_total{shard="0"}          per-shard routing counter
//	confmw_revocation_sweeps_total                    revocation plane activity
//
// Counters end in _total, histograms in the unit (_seconds), gauges in
// neither, matching Prometheus conventions. Every producer registers into
// one Registry (Gateway.RegisterMetrics is the middleware front door), so a
// single /metrics scrape covers the whole process.
//
// # Histograms
//
// Histogram buckets are fixed at construction: an ordered slice of upper
// bounds in the producer's raw unit (nanoseconds for latency), each bucket
// one atomic.Uint64, plus an implicit +Inf bucket. Observe is a branch-free
// binary search and two atomic adds. The exporter converts bounds and sums
// to the export unit (seconds) via the histogram's unit factor, and emits
// cumulative le buckets, _sum, and _count, so p50/p99 are derivable by any
// Prometheus-compatible consumer; Snapshot.Quantile derives them in-process
// for tests and status pages.
//
// # Tracing
//
// A Tracer samples one in every N requests (N fixed at construction; the
// gateway surfaces it as the trace=off|N Config parameter). A sampled
// request carries a *Trace; instrumented stages append spans (stage name,
// offset, inclusive and exclusive duration, error) under the trace's own
// mutex. Finished traces land in a bounded ring that overwrites oldest
// first, dumpable as JSON via the /tracez handler. Unsampled requests cost
// one atomic increment; requests arriving with a caller-carried trace ID
// are always recorded, which is how cross-process propagation (the wire
// codec's trace field) composes with sampling.
//
// # HTTP
//
// NewMux assembles the telemetry listener: /metrics (Prometheus
// exposition), /statusz (a JSON snapshot the caller supplies, e.g.
// middleware.GatewayStats), /tracez (the trace ring), and /debug/pprof/*.
package telemetry

package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/ledger"
	"dltprivacy/internal/middleware"
	"dltprivacy/internal/netedge"
	"dltprivacy/internal/ordering"
	"dltprivacy/internal/pki"
	"dltprivacy/internal/telemetry"
)

// gatewayOperator is the observer the leakage check on shutdown reads beside
// the orderer operators: the audit stage's observer in the default pipeline.
const gatewayOperator = "gateway-op"

// server is one gateway process: the pipeline and its ordering tier behind
// the TCP edge, and the telemetry listener beside them.
type server struct {
	o         opts
	gw        *middleware.Gateway
	log       *audit.Log
	orderer   *ordering.ShardedBackend
	shards    []*ordering.ReplicatedShard
	edge      *netedge.Server
	telemetry *http.Server
	// ordered counts the transactions delivered in blocks on every channel.
	ordered atomic.Uint64
}

// serve runs the gateway until ctx ends, then shuts it down and checks the
// leakage log.
func serve(ctx context.Context, o opts) error {
	s, err := start(o)
	if err != nil {
		return err
	}
	fmt.Printf("edge: listening on %s (stages=%s shards=%d replicas=%d channels=%d acceptloops=%d)\n",
		s.edge.Addr(), o.stages, o.shards, o.replicas, o.channels, o.acceptLoops)
	fmt.Printf("telemetry: http://%s/metrics /statusz /tracez /debug/pprof /admin/rebalance\n", s.telemetry.Addr)
	return s.run(ctx, os.Stdout)
}

// start builds the pipeline from o.stages — so a bad one fails here, before
// anything listens — then the ordering tier, the edge and the telemetry
// listener. The CA is the trust root remote principals enroll against over
// the wire (the pki.enroll topic of netedge.EnrollmentHandler); the dynamic
// directory admits each one to every channel as it enrolls.
func start(o opts) (*server, error) {
	if o.shards < 1 || o.channels < 1 || o.statsEvery <= 0 {
		return nil, fmt.Errorf("need at least 1 shard, 1 channel and a positive -statsevery, got %d, %d, %v", o.shards, o.channels, o.statsEvery)
	}
	stages, err := middleware.ParseStages(o.stages)
	if err != nil {
		return nil, err
	}
	channels := make([]string, o.channels)
	for i := range channels {
		channels[i] = fmt.Sprintf("deals-%d", i)
	}
	ca, err := pki.NewCA("edge-ca")
	if err != nil {
		return nil, err
	}
	dir := middleware.NewSyncDirectory()
	s := &server{o: o, log: audit.NewLog()}
	if s.orderer, s.shards, err = buildShards(o.shards, o.replicas, s.log); err != nil {
		return nil, err
	}
	for _, ch := range channels {
		s.orderer.Subscribe(ch, func(b ledger.Block) error {
			s.ordered.Add(uint64(len(b.Txs)))
			return nil
		})
	}
	cfg := middleware.Config{Stages: stages, Shards: o.shards}
	if o.trace > 0 {
		cfg.Trace = fmt.Sprint(o.trace)
	}
	env := middleware.Env{CAKey: ca.PublicKey(), Directory: dir, Log: s.log, Revoker: ca}
	if s.gw, err = middleware.NewGateway("gw", cfg, env, s.orderer); err != nil {
		return nil, err
	}

	handler := netedge.EnrollmentHandler(ca, func(identity string, pub dcrypto.PublicKey) {
		for _, ch := range channels {
			dir.AddMember(ch, identity, pub)
		}
	}, s.gw)
	edgeOpts := []netedge.Option{netedge.WithAcceptLoops(o.acceptLoops)}
	if sessions := s.gw.Sessions(); sessions != nil {
		edgeOpts = append(edgeOpts, netedge.WithConnCloseHook(func(transportID string) {
			sessions.EvictTransport(transportID)
		}))
	}
	if s.edge, err = netedge.Listen(o.listen, handler, edgeOpts...); err != nil {
		s.gw.Close()
		return nil, err
	}
	if s.telemetry, err = serveTelemetry(o.telemetryAddr, s.gw, s.orderer, s.statusz, s.edge.RegisterMetrics, s.registerLeakage); err != nil {
		s.edge.Close()
		s.gw.Close()
		return nil, err
	}
	return s, nil
}

// run prints the edge stats line and probes shard health every statsEvery
// until ctx ends, then shuts down.
func (s *server) run(ctx context.Context, out io.Writer) error {
	ticker := time.NewTicker(s.o.statsEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			// Leaderless clusters (a leader died with no submit traffic to
			// trip failover) recover on the probe interval instead of on the
			// next submission.
			recovered := 0
			for _, rs := range s.shards {
				recovered += rs.ProbeHealth()
			}
			if recovered > 0 {
				fmt.Fprintf(out, "edge: health probe recovered %d leaderless shard cluster(s)\n", recovered)
			}
			st := s.edge.Stats()
			live := 0
			if sessions := s.gw.Sessions(); sessions != nil {
				live = sessions.Len()
			}
			fmt.Fprintf(out, "edge: conns=%d (accepted %d) requests=%d ordered=%d sessions=%d frame_errs=%d sheds=%d in=%dMB out=%dMB\n",
				st.Live, st.Accepted, st.Requests, s.ordered.Load(), live,
				st.FrameErrors, st.Sheds, st.BytesIn>>20, st.BytesOut>>20)
		case <-ctx.Done():
			return s.shutdown(out)
		}
	}
}

// shutdown stops the edge and the telemetry listener, releases what the
// pipeline holds (batched submissions), and then checks the leakage log:
// it fails if the gateway operator or any orderer operator observed
// transaction data.
func (s *server) shutdown(out io.Writer) error {
	s.edge.Close()
	s.telemetry.Close()
	flushErr := s.gw.Flush(context.Background())
	s.gw.Close()
	st := s.edge.Stats()
	fmt.Fprintf(out, "edge: shutting down; served %d requests over %d connections, %d tx ordered\n",
		st.Requests, st.Accepted, s.ordered.Load())
	if flushErr != nil {
		return fmt.Errorf("flush on shutdown: %w", flushErr)
	}
	fmt.Fprintln(out, "leakage (who saw transaction data?):")
	var leaked []string
	for _, op := range s.operators() {
		saw := s.log.SawAny(op, audit.ClassTxData)
		fmt.Fprintf(out, "  %-14s txdata=%v\n", op, saw)
		if saw {
			leaked = append(leaked, op)
		}
	}
	if len(leaked) > 0 {
		return fmt.Errorf("operators %v observed transaction data", leaked)
	}
	return nil
}

// operators are the principals the leakage check reads: the gateway
// operator and every orderer operator.
func (s *server) operators() []string {
	return append([]string{gatewayOperator}, s.orderer.Operators()...)
}

// leakage is the presence matrix of the leakage log over the operators: the
// classes each has observed, in audit.Classes order. /statusz shows it;
// confmw_leakage_observed and the shutdown check read the same SawAny.
func (s *server) leakage() map[string][]audit.DataClass {
	matrix := make(map[string][]audit.DataClass)
	for _, op := range s.operators() {
		matrix[op] = []audit.DataClass{}
		for _, class := range audit.Classes() {
			if s.log.SawAny(op, class) {
				matrix[op] = append(matrix[op], class)
			}
		}
	}
	return matrix
}

// registerLeakage registers confmw_leakage_observed: one 0/1 gauge per
// operator and class, the leakage matrix as a scrape reads it.
func (s *server) registerLeakage(reg *telemetry.Registry) error {
	for _, op := range s.operators() {
		for _, class := range audit.Classes() {
			m := telemetry.FuncMetric{
				Name:  "confmw_leakage_observed",
				Help:  "1 once the leakage log holds an observation of the class by the operator, else 0.",
				Gauge: true,
				Load: func() uint64 {
					if s.log.SawAny(op, class) {
						return 1
					}
					return 0
				},
			}
			if err := reg.RegisterFuncs([]telemetry.FuncMetric{m}, telemetry.L("observer", op), telemetry.L("class", string(class))); err != nil {
				return err
			}
		}
	}
	return nil
}

// status is the /statusz snapshot: the gateway's counters, beside the
// -stages string its pipeline was built from and the leakage matrix.
type status struct {
	Pipeline string
	Leakage  map[string][]audit.DataClass
	middleware.GatewayStats
}

// statusz snapshots /statusz.
func (s *server) statusz() any {
	return status{s.o.stages, s.leakage(), s.gw.Stats()}
}

// serveTelemetry starts the operator listener: one registry over every
// layer of the gateway plus whatever else registers (the edge), served
// beside the status snapshot, the trace ring, pprof and POST
// /admin/rebalance over orderer. The caller closes the returned server,
// whose Addr is the address actually bound (the resolved port for ":0").
func serveTelemetry(addr string, gw *middleware.Gateway, orderer *ordering.ShardedBackend, statusz func() any, more ...func(*telemetry.Registry) error) (*http.Server, error) {
	reg := telemetry.NewRegistry()
	if err := gw.RegisterMetrics(reg); err != nil {
		return nil, err
	}
	for _, register := range more {
		if err := register(reg); err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry listen %s: %w", addr, err)
	}
	mux := telemetry.NewMux(reg, gw.Tracer(), statusz)
	mux.Handle("/admin/rebalance", adminRebalance(orderer))
	srv := &http.Server{Addr: ln.Addr().String(), Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	return srv, nil
}

// buildShards constructs the ordering tier: nShards envelope-visibility
// shards behind one sharded backend, each run by one operator when replicas
// is 0 or replicated over 3+ with automatic leader failover. Shard i's
// operators are "orderer-op-<i>" (one) or "orderer-op-<i>-<r>" (replicated).
func buildShards(nShards, replicas int, log *audit.Log) (*ordering.ShardedBackend, []*ordering.ReplicatedShard, error) {
	if replicas != 0 && replicas < 3 {
		return nil, nil, fmt.Errorf("-replicas must be 0 (one operator per shard) or >= 3 (a replicated cluster needs a majority quorum), got %d", replicas)
	}
	shards := make([]*ordering.ReplicatedShard, nShards)
	backends := make([]ordering.Backend, nShards)
	for i := range shards {
		ops := []string{fmt.Sprintf("orderer-op-%d", i)}
		if replicas > 0 {
			ops = make([]string, replicas)
			for r := range ops {
				ops[r] = fmt.Sprintf("orderer-op-%d-%d", i, r)
			}
		}
		rs, err := ordering.NewReplicatedShard(ops, ordering.VisibilityEnvelope, ordering.WithAuditLog(log))
		if err != nil {
			return nil, nil, err
		}
		shards[i], backends[i] = rs, rs
	}
	orderer, err := ordering.NewSharded(backends)
	return orderer, shards, err
}

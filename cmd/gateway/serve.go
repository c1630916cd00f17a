package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/ledger"
	"dltprivacy/internal/middleware"
	"dltprivacy/internal/netedge"
	"dltprivacy/internal/pki"
)

// runServe is -listen mode: instead of driving the in-process demo, the
// command becomes a long-running gateway process serving the wire protocol
// on a real TCP edge — enrollment, session handshakes, and codec v2
// submissions from remote processes (cmd/loadgen is the intended peer) —
// until SIGINT/SIGTERM. The ordering tier runs envelope-visibility shards
// whose blocks are consumed and counted; platform backends stay out of the
// path so the edge, chain, and orderer set the ceiling.
func runServe(o opts) error {
	if o.shards < 1 || o.channels < 1 {
		return fmt.Errorf("need at least 1 shard and 1 channel, got %d/%d", o.shards, o.channels)
	}
	channels := make([]string, o.channels)
	for i := range channels {
		channels[i] = fmt.Sprintf("deals-%d", i)
	}

	// The CA is the trust root remote principals enroll against over the
	// wire (netedge.TopicEnroll); the dynamic directory admits each one to
	// every channel as it enrolls.
	ca, err := pki.NewCA("edge-ca")
	if err != nil {
		return err
	}
	dir := middleware.NewSyncDirectory()

	log := audit.NewLog()
	orderer, shards, err := buildShards(o.shards, o.replicas, log)
	if err != nil {
		return err
	}
	var ordered atomic.Uint64
	for _, ch := range channels {
		orderer.Subscribe(ch, func(b ledger.Block) error {
			ordered.Add(uint64(len(b.Txs)))
			return nil
		})
	}

	sessionParams := map[string]string{
		"ttl": "10m", "idle": "5m",
		"revokecheck": o.revokeCheck,
		"reqauth":     o.reqauth,
	}
	if o.maxPerPrincipal > 0 {
		sessionParams["maxperprincipal"] = fmt.Sprint(o.maxPerPrincipal)
	}
	if o.revokeCheck == "sweep" {
		sessionParams["revokesweep"] = "30s"
	}
	cfg := middleware.Config{
		Stages: []middleware.StageConfig{
			{Name: middleware.StageSession, Params: sessionParams},
			{Name: middleware.StageAuthn},
			{Name: middleware.StageEncrypt, Params: map[string]string{"keyttl": "5m"}},
			{Name: middleware.StageAudit, Params: map[string]string{"observer": "gateway-op"}},
		},
		Shards: o.shards,
	}
	if o.trace > 0 {
		cfg.Trace = fmt.Sprint(o.trace)
	}
	env := middleware.Env{
		CAKey:     ca.PublicKey(),
		Directory: dir,
		Log:       log,
		Revoker:   ca,
	}
	gw, err := middleware.NewGateway("gw", cfg, env, orderer)
	if err != nil {
		return err
	}

	handler := netedge.EnrollmentHandler(ca, func(identity string, pub dcrypto.PublicKey) {
		for _, ch := range channels {
			dir.AddMember(ch, identity, pub)
		}
	}, gw)
	edgeOpts := []netedge.Option{
		netedge.WithAcceptLoops(o.acceptLoops),
		netedge.WithConnCloseHook(func(transportID string) {
			gw.Sessions().EvictTransport(transportID)
		}),
	}
	if o.shed {
		edgeOpts = append(edgeOpts, netedge.WithShedding())
	}
	edge, err := netedge.Listen(o.listen, handler, edgeOpts...)
	if err != nil {
		return err
	}
	defer edge.Close()

	hsrv, err := serveTelemetry(o.telemetryAddr, gw, edge.RegisterMetrics)
	if err != nil {
		return err
	}
	defer hsrv.Close()

	fmt.Printf("edge: listening on %s (reqauth=%s revokecheck=%s shards=%d replicas=%d channels=%d acceptloops=%d shed=%v)\n",
		edge.Addr(), o.reqauth, o.revokeCheck, o.shards, o.replicas, o.channels, o.acceptLoops, o.shed)
	fmt.Printf("telemetry: http://%s/metrics /statusz /tracez /debug/pprof\n", hsrv.Addr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ticker := time.NewTicker(o.statsEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			// Health probe on the stats tick: leaderless clusters (a leader
			// died with no submit traffic to trip failover) recover on the
			// probe interval instead of on the next submission.
			recovered := 0
			for _, rs := range shards {
				recovered += rs.ProbeHealth()
			}
			if recovered > 0 {
				fmt.Printf("edge: health probe recovered %d leaderless shard cluster(s)\n", recovered)
			}
			st := edge.Stats()
			fmt.Printf("edge: conns=%d (accepted %d) requests=%d ordered=%d sessions=%d frame_errs=%d sheds=%d in=%dMB out=%dMB\n",
				st.Live, st.Accepted, st.Requests, ordered.Load(), gw.Sessions().Len(),
				st.FrameErrors, st.Sheds, st.BytesIn>>20, st.BytesOut>>20)
		case <-ctx.Done():
			st := edge.Stats()
			fmt.Printf("edge: shutting down; served %d requests over %d connections, %d tx ordered\n",
				st.Requests, st.Accepted, ordered.Load())
			return nil
		}
	}
}

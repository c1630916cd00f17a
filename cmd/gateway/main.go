// Command gateway serves the confidentiality middleware pipeline on a real
// TCP edge: remote principals enroll with the gateway's CA, open sessions and
// submit over the netedge framing (cmd/loadgen is the intended peer), until
// SIGINT or SIGTERM. The pipeline is declared once, by -stages, in the text
// form middleware.ParseStages reads; swapping the deployment's privacy
// posture means editing that one string. Ordering runs on
// envelope-visibility shards — one operator each, or replicated clusters
// with automatic leader failover under -replicas >= 3 — whose blocks are
// counted and discarded.
//
// /metrics, /statusz, /tracez, /debug/pprof and POST /admin/rebalance (the
// operator's channel moves) are served on -telemetry, loopback by default:
// the client edge serves no operator action. On shutdown the gateway prints what the leakage log saw for the gateway
// operator and every orderer operator, and exits non-zero if any of them
// observed transaction data.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dltprivacy/internal/middleware"
)

// defaultStages is the serving pipeline: session-amortized authentication
// (the certificate is verified once, at session open, and every request
// rides its session's MAC), envelope encryption under a per-epoch key cache,
// and leakage accounting as the gateway operator.
const defaultStages = "session(ttl=10m,idle=5m)|encrypt(keyttl=5m)|audit(observer=gateway-op)"

// opts holds every flag; the one serving mode reads them all.
type opts struct {
	listen, stages, telemetryAddr string
	shards, replicas, channels    int
	trace, acceptLoops            int
	statsEvery                    time.Duration
}

func main() {
	var o opts
	flag.StringVar(&o.listen, "listen", "127.0.0.1:9444", "TCP address the wire protocol is served on")
	flag.StringVar(&o.stages, "stages", defaultStages, "the pipeline, in middleware.ParseStages form; a refused pipeline prints the registered-stage usage, with each stage's declared facts")
	flag.IntVar(&o.shards, "shards", 2, "ordering shards behind the gateway")
	flag.IntVar(&o.replicas, "replicas", 0, "ordering operators per shard: 0 runs solo shards, >= 3 runs replicated clusters with automatic leader failover")
	flag.IntVar(&o.channels, "channels", 2, "channels deals-0 .. deals-N-1 every enrolled principal joins")
	flag.StringVar(&o.telemetryAddr, "telemetry", "127.0.0.1:0", "listen address for /metrics, /statusz, /tracez and /debug/pprof")
	flag.IntVar(&o.trace, "trace", 64, "sample one submission in N for request tracing (0 = off)")
	flag.IntVar(&o.acceptLoops, "acceptloops", 4, "edge accept-plane shards")
	flag.DurationVar(&o.statsEvery, "statsevery", 10*time.Second, "interval of the edge stats line and the shard health probe")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := serve(ctx, o); err != nil {
		fmt.Fprintln(os.Stderr, "gateway:", err)
		if errors.Is(err, middleware.ErrBadConfig) {
			fmt.Fprintf(os.Stderr, "registered stages:\n%s", middleware.StageUsage())
		}
		os.Exit(1)
	}
}

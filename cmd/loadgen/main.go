// Command loadgen drives a remote gateway process (cmd/gateway -listen)
// over the TCP edge at scale: it enrolls a set of principals, opens a
// large session population — hundreds of thousands of sessions multiplexed
// over a small connection pool, the shape a real edge sees behind load
// balancers — and then holds a steady state of MAC-authenticated binary
// codec v2 submissions across every session, reporting session-open
// throughput, steady-state transactions/sec, and latency quantiles.
//
// The phases:
//
//  1. Enroll -principals keypairs with the gateway CA (netedge pki.enroll).
//  2. Open -sessions sessions, partitioned over -conns connections
//     (sessions are bound to their connection by the gateway, so each
//     session's steady-state traffic stays on its home connection).
//  3. For -duration, submit continuously: each worker cycles through its
//     connection's sessions, submitting each session's pre-encoded
//     MAC'd binary frame and recording end-to-end latency.
//
// Workload payloads come from internal/workload, so runs are seeded and
// reproducible. Any protocol error fails the run: exit status 1.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/middleware"
	"dltprivacy/internal/netedge"
	"dltprivacy/internal/pki"
	"dltprivacy/internal/telemetry"
	"dltprivacy/internal/workload"
)

func main() {
	addr := flag.String("addr", "", "gateway edge address (required), e.g. 127.0.0.1:9444")
	sessions := flag.Int("sessions", 100000, "sessions to open")
	conns := flag.Int("conns", 256, "TCP connections to multiplex sessions over")
	principals := flag.Int("principals", 1000, "distinct principals to enroll (sessions round-robin over them)")
	perConn := flag.Int("perconn", 4, "concurrent workers per connection")
	duration := flag.Duration("duration", 10*time.Second, "steady-state submission phase length (0 skips it)")
	payload := flag.Int("payload", 96, "trade payload bytes")
	channels := flag.Int("channels", 1, "gateway channels to spread submissions over (must be <= the gateway's -channels)")
	seed := flag.Int64("seed", 42, "workload generator seed")
	flag.Parse()
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "loadgen: -addr is required")
		os.Exit(2)
	}
	if err := run(*addr, *sessions, *conns, *principals, *perConn, *payload, *channels, *seed, *duration); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// session is one open session pinned to its home connection.
type session struct {
	conn *netedge.Client
	wire []byte // pre-encoded MAC'd binary submission
}

func run(addr string, nSessions, nConns, nPrincipals, perConn, payloadBytes, nChannels int, seed int64, duration time.Duration) error {
	if nConns < 1 || nSessions < 1 || nPrincipals < 1 || perConn < 1 || nChannels < 1 {
		return fmt.Errorf("all of -sessions, -conns, -principals, -perconn, -channels must be positive")
	}
	if nConns > nSessions {
		nConns = nSessions
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Connection pool. The in-flight window is sized to the worker count so
	// the client window never sheds under its own drivers.
	pool := make([]*netedge.Client, nConns)
	for i := range pool {
		c, err := netedge.Dial(addr, netedge.WithInFlight(perConn*2))
		if err != nil {
			return fmt.Errorf("dial %d: %w", i, err)
		}
		defer c.Close()
		pool[i] = c
	}
	fmt.Printf("loadgen: %d connections to %s\n", nConns, addr)

	// Phase 1: principals. Keys are generated locally; certificates come
	// from the gateway CA over the wire.
	wl := workload.New(seed)
	names := wl.Orgs(nPrincipals)
	keys := make([]*dcrypto.PrivateKey, nPrincipals)
	certs := make([]pki.Certificate, nPrincipals)
	start := time.Now()
	if err := eachIndex(ctx, nPrincipals, perConn*nConns, func(ctx context.Context, i int) error {
		key, err := dcrypto.GenerateKey()
		if err != nil {
			return err
		}
		cert, err := pool[i%nConns].Enroll(ctx, names[i], key.Public())
		if err != nil {
			return fmt.Errorf("enroll %s: %w", names[i], err)
		}
		keys[i], certs[i] = key, cert
		return nil
	}); err != nil {
		return err
	}
	fmt.Printf("loadgen: enrolled %d principals in %v\n", nPrincipals, time.Since(start).Round(time.Millisecond))

	// Phase 2: the session population. Session i lives on connection
	// i%nConns and belongs to principal i%nPrincipals. A principal's first
	// open pays the full signed handshake (ECDSA sign client-side, verify
	// server-side, the master secret sealed and unsealed); its later ones
	// resume under the secret, on every connection: the pool's clients,
	// dialed to one address, share it.
	nTrades := 256
	if nSessions < nTrades {
		nTrades = nSessions
	}
	trades, err := wl.Trades(names, nTrades, payloadBytes)
	if err != nil {
		return err
	}
	sessions := make([]session, nSessions)
	var resumed atomic.Uint64
	start = time.Now()
	if err := eachIndex(ctx, nSessions, perConn*nConns, func(ctx context.Context, i int) error {
		p := i % nPrincipals
		conn := pool[i%nConns]
		grant, err := conn.OpenSession(ctx, names[p], certs[p], keys[p], "")
		if err != nil {
			return fmt.Errorf("open session %d (%s): %w", i, names[p], err)
		}
		if grant.Resumed {
			resumed.Add(1)
		}
		req := &middleware.Request{
			Channel:      fmt.Sprintf("deals-%d", i%nChannels),
			Principal:    names[p],
			Payload:      trades[i%len(trades)].Payload,
			SessionToken: grant.Token,
		}
		middleware.MACRequest(req, grant.MacKey)
		wire, err := middleware.EncodeWireRequest(req, "")
		if err != nil {
			return err
		}
		sessions[i] = session{conn: conn, wire: wire}
		return nil
	}); err != nil {
		return err
	}
	openElapsed := time.Since(start)
	fmt.Printf("loadgen: opened %d sessions in %v (%.0f sessions/sec), %d resumed\n",
		nSessions, openElapsed.Round(time.Millisecond), float64(nSessions)/openElapsed.Seconds(), resumed.Load())

	if duration <= 0 {
		return ctx.Err()
	}

	// Phase 3: steady state. Workers are pinned to a connection and cycle
	// through its sessions, so every submission rides its session's bound
	// connection. Latency lands in an exponential-bucket histogram; the
	// quantiles below are derived from it.
	hist := telemetry.NewHistogram("loadgen_submit_latency_seconds",
		"End-to-end submission latency.", telemetry.LatencyBounds, 1e-9)
	var submitted, failed atomic.Uint64
	steadyCtx, cancel := context.WithTimeout(ctx, duration)
	defer cancel()
	start = time.Now()
	var wg sync.WaitGroup
	for c := 0; c < nConns; c++ {
		for w := 0; w < perConn; w++ {
			wg.Add(1)
			go func(c, w int) {
				defer wg.Done()
				// This worker's session slice: the c-th connection owns
				// sessions c, c+nConns, c+2*nConns, ...; workers interleave.
				for i := c + w*nConns; steadyCtx.Err() == nil; i += perConn * nConns {
					s := sessions[i%nSessions]
					t0 := time.Now()
					_, err := s.conn.SubmitRaw(steadyCtx, s.wire)
					if err != nil {
						if steadyCtx.Err() != nil {
							return
						}
						failed.Add(1)
						continue
					}
					hist.Observe(uint64(time.Since(t0)))
					submitted.Add(1)
				}
			}(c, w)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	if elapsed > duration {
		elapsed = duration
	}

	snap := hist.Snapshot()
	n, f := submitted.Load(), failed.Load()
	fmt.Printf("loadgen: steady state: %d tx in %v (%.0f tx/sec), p50=%v p99=%v, %d failed\n",
		n, elapsed.Round(time.Millisecond), float64(n)/elapsed.Seconds(),
		time.Duration(snap.Quantile(0.50)).Round(time.Microsecond),
		time.Duration(snap.Quantile(0.99)).Round(time.Microsecond), f)
	if f > 0 {
		return fmt.Errorf("%d of %d submissions failed", f, n+f)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	fmt.Println("loadgen: ok")
	return nil
}

// eachIndex runs fn for every index in [0, n) across `workers` goroutines,
// stopping the whole fleet at the first error or context cancellation.
func eachIndex(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	if workers > n {
		workers = n
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var next atomic.Int64
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					errc <- ctx.Err()
					return
				}
				if err := fn(ctx, i); err != nil {
					cancel()
					errc <- err
					return
				}
			}
		}()
	}
	var first error
	for w := 0; w < workers; w++ {
		if err := <-errc; err != nil && first == nil {
			first = err
		}
	}
	return first
}

package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/ledger"
	"dltprivacy/internal/middleware"
	"dltprivacy/internal/netedge"
	"dltprivacy/internal/pki"
	"dltprivacy/internal/telemetry"
)

// sink keeps the compiler from discarding a timed call's result.
var sink any

// timeLoop times fn(0..n-1) in five rounds and returns the median round's
// nanoseconds and allocations per call.
func timeLoop(n int, fn func(i int)) (nsPerOp, allocsPerOp float64) {
	const rounds = 5
	ns := make([]float64, rounds)
	allocs := make([]float64, rounds)
	var before, after runtime.MemStats
	for r := range ns {
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(r*n + i)
		}
		ns[r] = float64(time.Since(start)) / float64(n)
		runtime.ReadMemStats(&after)
		allocs[r] = float64(after.Mallocs-before.Mallocs) / float64(n)
	}
	return median(ns), median(allocs)
}

// microTimings prices single public functions of each layer in a loop:
// the per-layer numbers a span cannot give because the harness only sees
// the layer from outside. They do not depend on the workload.
func microTimings(ctx context.Context) (map[string]float64, error) {
	out := map[string]float64{}

	// dcrypto
	key, err := dcrypto.GenerateKey()
	if err != nil {
		return nil, err
	}
	digest := dcrypto.Hash([]byte("benchmark"))
	macKey := dcrypto.NewMACKey(digest[:])
	out["dcrypto.mac_ns"], _ = timeLoop(50_000, func(int) { sink = macKey.Sum(digest[:]) })
	symKey, err := dcrypto.NewSymmetricKey()
	if err != nil {
		return nil, err
	}
	aead, err := dcrypto.NewAEAD(symKey)
	if err != nil {
		return nil, err
	}
	trade := make([]byte, 96)
	ad := []byte("middleware/envelope/v1/deals-0")
	out["dcrypto.aead_seal_ns"], _ = timeLoop(50_000, func(int) {
		sink, _ = dcrypto.EncryptWithAEAD(aead, trade, ad)
	})
	group := make([][]byte, 64)
	for i := range group {
		group[i] = trade
	}
	out["dcrypto.aead_seal_group64_ns"], _ = timeLoop(2_000, func(int) {
		sink, _ = dcrypto.EncryptSegmentsWithAEAD(aead, group, ad)
	})
	var sig dcrypto.Signature
	signNS, _ := timeLoop(200, func(int) { sig, _ = key.Sign(digest[:]) })
	out["dcrypto.ecdsa_sign_us"] = signNS / 1e3
	pub := key.Public()
	verifyNS, _ := timeLoop(200, func(int) { sink = pub.Verify(digest[:], sig) })
	out["dcrypto.ecdsa_verify_us"] = verifyNS / 1e3

	// pki
	ca, err := pki.NewCA("micro-ca")
	if err != nil {
		return nil, err
	}
	enrollNS, _ := timeLoop(200, func(i int) { sink, _ = ca.Enroll(fmt.Sprintf("org-%d", i), pub) })
	out["pki.enroll_us"] = enrollNS / 1e3
	out["pki.isrevoked_ns"], _ = timeLoop(200_000, func(i int) { sink = ca.IsRevoked(uint64(i)) })

	// telemetry
	hist := telemetry.NewHistogram("micro_latency_seconds", "micro", telemetry.LatencyBounds, telemetry.NanosPerSecond)
	out["telemetry.hist_observe_ns"], _ = timeLoop(500_000, func(i int) { hist.Observe(uint64(i%4096) * 100) })

	// ledger: one envelope-sized transaction (the serve pipeline wraps the
	// data key for every enrolled principal, ~7.5 KB at 50 principals).
	tx := ledger.Transaction{
		Channel: "deals-0", Creator: "org-00", Payload: make([]byte, 7600),
		Meta: map[string]string{"envelope": middleware.EnvelopeScheme, "gateway": "gw"}, Timestamp: time.Now(),
	}
	out["ledger.tx_digest_ns"], _ = timeLoop(20_000, func(int) { sink = tx.Digest() })
	tx.PrimeDigest()
	txs := []ledger.Transaction{tx}
	out["ledger.newblock_ns"], _ = timeLoop(100_000, func(i int) { sink = ledger.NewBlock(uint64(i), digest, txs) })

	// audit: recording unique items into a small and a large log.
	items := make([]string, 1_000_000)
	for i := range items {
		items[i] = fmt.Sprintf("%032x", i)
	}
	recordInto := func(prefill int) float64 {
		log := audit.NewLog()
		for _, it := range items[:prefill] {
			log.Record(gatewayOperator, audit.ClassTxMetadata, it)
		}
		fresh := items[prefill:]
		n := min(len(fresh), 20_000) / 5
		ns, _ := timeLoop(n, func(i int) { log.Record("orderer-op-0", audit.ClassTxMetadata, fresh[i]) })
		return ns
	}
	out["audit.record_ns_small"] = recordInto(1_000)
	out["audit.record_ns_large"] = recordInto(len(items) - 20_000)
	items = nil

	// middleware: codec encode, and the server half of the handshake.
	req := &middleware.Request{
		Channel: "deals-0", Principal: "org-00", Payload: trade,
		SessionToken: fmt.Sprintf("%064x", 1), MAC: digest[:],
	}
	out["middleware.codec.encode_ns"], out["middleware.codec.encode_allocs"] = timeLoop(100_000, func(int) {
		sink, _ = middleware.EncodeWireRequest(req, middleware.CodecBinary)
	})
	cert, err := ca.Enroll("org-00", pub)
	if err != nil {
		return nil, err
	}
	mgr, err := middleware.NewSessionManager(ca.PublicKey(), 10*time.Minute, 5*time.Minute, nil,
		middleware.WithRequestAuth(middleware.AuthMAC),
		middleware.WithRevocationChecks(ca, middleware.RevokeCheckResolve, 0))
	if err != nil {
		return nil, err
	}
	const opens = 100
	hellos := make([]middleware.SessionHello, 5*opens)
	for i := range hellos {
		if hellos[i], err = middleware.NewSessionHello("org-00", cert, key); err != nil {
			return nil, err
		}
	}
	openNS, _ := timeLoop(opens, func(i int) { sink, err = mgr.OpenBound(hellos[i], "tcp:1:micro") })
	if err != nil {
		return nil, fmt.Errorf("micro OpenBound: %w", err)
	}
	out["middleware.session.openbound_us"] = openNS / 1e3

	// netedge: bare forwarding of the smallest frame through an echo
	// handler, one at a time and eight in flight.
	edge, err := netedge.Listen("127.0.0.1:0", netedge.HandlerFunc(
		func(_ context.Context, _ string, payload []byte, _ string) ([]byte, error) { return payload, nil }))
	if err != nil {
		return nil, err
	}
	defer edge.Close()
	client, err := netedge.Dial(edge.Addr().String())
	if err != nil {
		return nil, err
	}
	defer client.Close()
	var errOnce sync.Once
	var callErr error
	call := func() bool {
		_, err := client.Call(ctx, "e", nil)
		if err != nil {
			errOnce.Do(func() { callErr = err })
		}
		return err == nil
	}
	rttNS, allocs := timeLoop(4_000, func(int) { call() })
	out["netedge.echo_rtt_depth1_us"] = rttNS / 1e3
	out["netedge.echo_allocs_per_op"] = allocs
	const depth = 8
	depthNS, _ := timeLoop(20, func(int) {
		var wg sync.WaitGroup
		for w := 0; w < depth; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 500 && call(); i++ {
				}
			}()
		}
		wg.Wait()
	})
	out["netedge.echo_us_per_op_depth8"] = depthNS / 1e3 / (depth * 500)
	if callErr != nil {
		return nil, fmt.Errorf("micro echo: %w", callErr)
	}
	return out, nil
}

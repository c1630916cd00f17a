package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/middleware"
	"dltprivacy/internal/netedge"
	"dltprivacy/internal/ordering"
	"dltprivacy/internal/pki"
	"dltprivacy/internal/workload"
)

// gatewayOperator is the audit observer name cmd/gateway's serve mode
// gives the gateway operator.
const gatewayOperator = "gateway-op"

// principal is one enrolled client identity.
type principal struct {
	name string
	key  *dcrypto.PrivateKey
	cert pki.Certificate
}

// clientSession is one open gateway session, pinned to the connection it
// was opened on (the gateway binds tokens to their transport).
type clientSession struct {
	index      int
	conn       *netedge.Client
	principal  *principal
	channel    string
	channelIdx int
	token      string
	mac        *dcrypto.MACKey
	template   []byte // trade payload; the head is overwritten by the stamp
}

// assembly is one freshly built gateway and the client population driving
// it: the cmd/gateway serve-mode wiring, in this process, on a loopback
// TCP listener.
type assembly struct {
	spec workloadSpec
	rec  *recorder // nil unless this is the traced repetition

	ca         *pki.CA
	log        *audit.Log
	replicated []*ordering.ReplicatedShard // nil for solo shards
	sharded    *ordering.ShardedBackend
	gw         *middleware.Gateway
	edge       *netedge.Server

	channels   []string
	verifiers  []*channelVerifier
	conns      []*netedge.Client
	principals []principal
	trades     []workload.Trade
	sessions   []*clientSession
	rng        *rand.Rand

	openLatencies []time.Duration
}

// pickChannels names n channels so that each shard owns the same number:
// "deals-0" and "deals-1", the names serve mode would use for two
// channels, both hash to shard 1 of 2, which would leave one shard idle.
// Candidates are probed in a fixed order, so the choice is the same for
// every seed and every commit with the same ring.
func pickChannels(sb *ordering.ShardedBackend, n int) ([]string, error) {
	perShard := n / sb.Shards()
	if perShard*sb.Shards() != n {
		return nil, fmt.Errorf("%d channels do not divide over %d shards", n, sb.Shards())
	}
	owned := make([]int, sb.Shards())
	var out []string
	for i := 0; len(out) < n; i++ {
		if i > 64*n {
			return nil, fmt.Errorf("no balanced choice of %d channel names in %d candidates", n, i)
		}
		name := fmt.Sprintf("deals-%d", i)
		if s := sb.ShardFor(name); owned[s] < perShard {
			owned[s]++
			out = append(out, name)
		}
	}
	return out, nil
}

// buildShards mirrors cmd/gateway: solo envelope-visibility orderers, or a
// replicated cluster per shard.
func buildShards(replicas int, log *audit.Log) ([]ordering.Backend, []*ordering.ReplicatedShard, error) {
	backends := make([]ordering.Backend, shards)
	if replicas == 0 {
		for i := range backends {
			backends[i] = ordering.New(fmt.Sprintf("orderer-op-%d", i),
				ordering.VisibilityEnvelope, ordering.WithAuditLog(log))
		}
		return backends, nil, nil
	}
	replicated := make([]*ordering.ReplicatedShard, shards)
	for i := range backends {
		ops := make([]string, replicas)
		for r := range ops {
			ops[r] = fmt.Sprintf("orderer-op-%d-%d", i, r)
		}
		rs, err := ordering.NewReplicatedShard(ops, ordering.VisibilityEnvelope, ordering.WithShardAudit(log))
		if err != nil {
			return nil, nil, err
		}
		backends[i], replicated[i] = rs, rs
	}
	return backends, replicated, nil
}

// gatewayConfig is the shipped serve pipeline, session(mac)|authn|encrypt|
// audit on the binary codec with the serve-mode defaults, plus whatever
// the workload adds to it.
func gatewayConfig(spec workloadSpec, traced bool) middleware.Config {
	session := map[string]string{
		"ttl": "10m", "idle": "5m",
		"revokecheck": "resolve",
		"reqauth":     "mac",
	}
	if spec.MaxPerPrincipal > 0 {
		session["maxperprincipal"] = fmt.Sprint(spec.MaxPerPrincipal)
	}
	auditParams := map[string]string{"observer": gatewayOperator}
	if spec.AuditAsync > 0 {
		auditParams["auditasync"] = fmt.Sprint(spec.AuditAsync)
	}
	cfg := middleware.Config{
		Stages: []middleware.StageConfig{
			{Name: middleware.StageSession, Params: session},
			{Name: middleware.StageAuthn},
			{Name: middleware.StageEncrypt, Params: map[string]string{"keyttl": "5m"}},
			{Name: middleware.StageAudit, Params: auditParams},
		},
		Shards:       shards,
		Codec:        middleware.CodecBinary,
		Trace:        "64",
		TimingSample: spec.TimingSample,
	}
	if spec.BatchSize > 0 {
		cfg.Stages = append(cfg.Stages, middleware.StageConfig{
			Name:   middleware.StageBatch,
			Params: map[string]string{"size": fmt.Sprint(spec.BatchSize), "groupseal": "on"},
		})
	}
	if traced {
		// Exact per-stage sums for the stage metrics. The gateway also
		// cannot see through the ordering decorator to the ShardedBackend,
		// so the topology assertion is dropped; the harness holds the
		// ShardedBackend itself.
		cfg.TimingSample = ""
		cfg.Shards = 0
	}
	return cfg
}

// assemble builds the gateway and its edge, dials one connection per CPU,
// enrols the principals over the wire and opens the session population.
// Everything the seed decides — keys, payloads, which session talks to
// which channel — is decided here.
func assemble(ctx context.Context, spec workloadSpec, seed int64, conns int, rec *recorder) (*assembly, error) {
	a := &assembly{spec: spec, rec: rec, rng: rand.New(rand.NewSource(seed))}
	ok := false
	defer func() {
		if !ok {
			a.close()
		}
	}()

	var err error
	if a.ca, err = pki.NewCA("edge-ca"); err != nil {
		return nil, err
	}
	dir := middleware.NewSyncDirectory()
	a.log = audit.NewLog()
	backends, replicated, err := buildShards(spec.Replicas, a.log)
	if err != nil {
		return nil, err
	}
	a.replicated = replicated
	if rec != nil {
		for i, b := range backends {
			backends[i] = &tracedBackend{Backend: b, rec: rec, kind: kindOf(spanShard)}
		}
	}
	if a.sharded, err = ordering.NewSharded(backends); err != nil {
		return nil, err
	}
	if a.channels, err = pickChannels(a.sharded, spec.Channels); err != nil {
		return nil, err
	}

	expectTxs := spec.Ops
	if spec.Kind == churnLoop {
		expectTxs *= spec.SubmitsPerVisit
	}
	if spec.BatchSize > 0 {
		expectTxs /= spec.BatchSize
	}
	for _, ch := range a.channels {
		v := newChannelVerifier(ch, expectTxs/len(a.channels), 32)
		a.verifiers = append(a.verifiers, v)
		deliver := ordering.DeliverFunc(v.deliver)
		if rec != nil {
			deliver = tracedDeliver(rec, deliver)
		}
		a.sharded.Subscribe(ch, deliver)
	}

	var orderer ordering.Backend = a.sharded
	if rec != nil {
		orderer = &tracedBackend{Backend: a.sharded, rec: rec, kind: kindOf(spanOrder), numberGroups: true}
	}
	env := middleware.Env{CAKey: a.ca.PublicKey(), Directory: dir, Log: a.log, Revoker: a.ca}
	if a.gw, err = middleware.NewGateway("gw", gatewayConfig(spec, rec != nil), env, orderer); err != nil {
		return nil, err
	}

	handler := netedge.EnrollmentHandler(a.ca, func(identity string, pub dcrypto.PublicKey) {
		for _, ch := range a.channels {
			dir.AddMember(ch, identity, pub)
		}
	}, a.gw)
	if rec != nil {
		handler = tracedHandler(rec, handler)
	}
	a.edge, err = netedge.Listen("127.0.0.1:0", handler,
		netedge.WithConnCloseHook(func(transportID string) {
			a.gw.Sessions().EvictTransport(transportID)
		}))
	if err != nil {
		return nil, err
	}

	// The client window is sized so neither a closed loop's workers nor the
	// open loop's scheduler ever block on it: what queues, queues in the
	// gateway, where it is measured.
	window := 4096
	for i := 0; i < conns; i++ {
		c, err := netedge.Dial(a.edge.Addr().String(), netedge.WithInFlight(window))
		if err != nil {
			return nil, err
		}
		a.conns = append(a.conns, c)
	}

	if err := a.enrol(ctx, seed); err != nil {
		return nil, err
	}
	if err := a.openSessions(ctx); err != nil {
		return nil, err
	}
	ok = true
	return a, nil
}

// enrol derives each principal's key from the seed and has the gateway's
// CA certify it over the wire.
func (a *assembly) enrol(ctx context.Context, seed int64) error {
	wl := workload.New(seed)
	names := wl.Orgs(a.spec.Principals)
	var seedBytes [8]byte
	binary.BigEndian.PutUint64(seedBytes[:], uint64(seed))
	a.principals = make([]principal, len(names))
	err := eachIndex(ctx, len(names), 8*len(a.conns), func(ctx context.Context, i int) error {
		key, err := dcrypto.DeriveKey(seedBytes[:], "benchmark/principal/"+names[i])
		if err != nil {
			return err
		}
		cert, err := a.conns[i%len(a.conns)].Enroll(ctx, names[i], key.Public())
		if err != nil {
			return fmt.Errorf("enrol %s: %w", names[i], err)
		}
		a.principals[i] = principal{name: names[i], key: key, cert: cert}
		return nil
	})
	if err != nil {
		return err
	}
	// One distinct trade per session (per principal when a workload opens
	// its sessions as it goes).
	n := max(a.spec.Sessions, a.spec.Principals)
	a.trades, err = wl.Trades(names, n, max(a.spec.Payload, stampLen))
	return err
}

// openSession runs the signed handshake for one session on conn.
func (a *assembly) openSession(ctx context.Context, index int, conn *netedge.Client, p *principal, channelIdx int) (*clientSession, error) {
	grant, err := conn.OpenSession(ctx, p.name, p.cert, p.key, middleware.CodecBinary)
	if err != nil {
		return nil, fmt.Errorf("open session %d (%s): %w", index, p.name, err)
	}
	if grant.Codec != middleware.CodecBinary || len(grant.MacKey) == 0 {
		return nil, fmt.Errorf("session %d: gateway granted codec %q, mac key of %d bytes", index, grant.Codec, len(grant.MacKey))
	}
	return &clientSession{
		index:      index,
		conn:       conn,
		principal:  p,
		channel:    a.channels[channelIdx],
		channelIdx: channelIdx,
		token:      grant.Token,
		mac:        dcrypto.NewMACKey(grant.MacKey),
		template:   a.trades[index%len(a.trades)].Payload,
	}, nil
}

// openSessions opens the workload's standing session population. Session i
// lives on connection i mod conns; its principal and channel come from
// seeded shuffles, so which principal talks on which channel over which
// connection differs from seed to seed.
func (a *assembly) openSessions(ctx context.Context) error {
	n := a.spec.Sessions
	a.sessions = make([]*clientSession, n)
	if n == 0 {
		return nil
	}
	principalOf := a.rng.Perm(n)
	channelOf := a.rng.Perm(n)
	latencies := make([]time.Duration, n)
	err := eachIndex(ctx, n, 8*len(a.conns), func(ctx context.Context, i int) error {
		start := time.Now()
		s, err := a.openSession(ctx, i, a.conns[i%len(a.conns)],
			&a.principals[principalOf[i]%len(a.principals)],
			channelOf[i]%len(a.channels))
		if err != nil {
			return err
		}
		latencies[i] = time.Since(start)
		a.sessions[i] = s
		return nil
	})
	a.openLatencies = latencies
	return err
}

// sessionsOf returns the standing sessions living on connection c.
func (a *assembly) sessionsOf(c int) []*clientSession {
	var out []*clientSession
	for i := c; i < len(a.sessions); i += len(a.conns) {
		out = append(out, a.sessions[i])
	}
	return out
}

// operators lists every principal that must never observe plaintext.
func (a *assembly) operators() []string {
	return append([]string{gatewayOperator}, a.sharded.Operators()...)
}

func (a *assembly) close() {
	for _, c := range a.conns {
		c.Close()
	}
	if a.edge != nil {
		a.edge.Close()
	}
	if a.gw != nil {
		a.gw.Close()
	}
}

// eachIndex runs fn for every index in [0, n) on up to workers goroutines
// and returns the first error; the remaining indices are skipped once one
// fails.
func eachIndex(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	workers = max(1, min(workers, n))
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var next atomic.Int64
	var once sync.Once
	var first error
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				if err := fn(ctx, i); err != nil {
					once.Do(func() { first = err })
					cancel()
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}

package middleware

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/ledger"
	"dltprivacy/internal/ordering"
	"dltprivacy/internal/pki"
	"dltprivacy/internal/telemetry"
	"dltprivacy/internal/transport"
)

// Transport topics gateway endpoints serve.
const (
	// TopicSubmit carries signed client submissions.
	TopicSubmit = "gateway.submit"
	// TopicSessionOpen carries a signed SessionHello; the reply is a
	// marshalled SessionGrant.
	TopicSessionOpen = "session.open"
	// TopicSessionClose carries a session token to end.
	TopicSessionClose = "session.close"
	// TopicRevocationNotify is the admin topic signalling that the
	// revocation plane moved: the gateway pulls the delta from its
	// configured Revoker and applies it (session eviction, envelope member
	// exclusion). The payload is ignored; the notification carries no
	// authority of its own — all trust decisions come from the Revoker —
	// so it needs no authentication. The reply is a marshalled
	// RevocationNotice.
	TopicRevocationNotify = "revocation.notify"
	// TopicShardRebalance is the admin topic driving online channel
	// migration on a sharded ordering backend. The payload is an optional
	// marshalled RebalanceRequest: with Channel set, that channel migrates
	// to the requested shard; without one, the gateway runs a skew-driven
	// rebalancing pass over the per-shard load counters. The reply is a
	// marshalled RebalanceNotice listing the moves.
	TopicShardRebalance = "shard.rebalance"
)

// DefaultRebalanceSkew is the load-skew factor a shard.rebalance request
// without an explicit skew uses: shards loaded beyond this multiple of the
// mean shed channels.
const DefaultRebalanceSkew = 2.0

// RebalanceRequest asks a gateway to migrate ordering channels. Either a
// manual move (Channel + To) or an automatic pass (Skew, 0 meaning
// DefaultRebalanceSkew).
type RebalanceRequest struct {
	// Channel, when set, migrates that one channel to shard To.
	Channel string `json:"channel,omitempty"`
	// To is the target shard index for a manual move.
	To int `json:"to,omitempty"`
	// Skew is the load-skew factor for an automatic pass (> 1).
	Skew float64 `json:"skew,omitempty"`
}

// RebalanceNotice is the reply to a shard.rebalance request: the
// migrations performed (empty when the topology was already balanced).
type RebalanceNotice struct {
	Migrations []ordering.Migration `json:"migrations"`
}

// RevocationNotice is the reply to a revocation.notify request: what the
// triggered sync did.
type RevocationNotice struct {
	// Epoch is the revocation epoch the gateway is now synced to.
	Epoch uint64 `json:"epoch"`
	// SessionsRevoked is how many sessions this sync evicted.
	SessionsRevoked int `json:"sessionsRevoked"`
}

// Gateway fronts the platform backends: every submission runs through the
// configured chain, the terminal handler turns it into a ledger
// transaction and submits it to the ordering backend, and cut blocks are
// relayed to the platform adapters bound per channel. Safe for concurrent
// use.
type Gateway struct {
	name    string
	chain   *Chain
	orderer ordering.Backend
	// sharded is the orderer downcast to its sharded form, nil for
	// unsharded deployments; Stats snapshots per-shard counters from it.
	sharded *ordering.ShardedBackend
	now     func() time.Time
	// revoker is the revocation plane SyncRevocations pulls deltas from;
	// nil when the deployment runs without one. auditLog receives the
	// revocation audit trail (may be nil).
	revoker  Revoker
	auditLog *audit.Log
	// directory is the channel membership the encrypt stage seals to (nil
	// without one); channelNames interns the names of its channels for the
	// wire decoder, copy-on-write under mu. See channelName.
	directory    Directory
	channelNames atomic.Pointer[map[string]string]
	// metaPlain ({"gateway"}) and metaSealed (plus "envelope"): the Meta of every
	// transaction whose request brought none, built once, never written. See order.
	metaPlain, metaSealed map[string]string

	// Stage hooks, resolved once at construction by ranging the built
	// chain: sessions is the session stage's manager (nil without one —
	// Sessions() runs on every session open and close, so it must stay a
	// field read), rows the one counter table Stats and RegisterMetrics
	// both loop over (the gateway's own rows, then each stage's, in chain
	// order).
	sessions *SessionManager
	rows     []statRow
	// verifiers are the certificate verifiers the stages hold (session,
	// authn), summed into the confmw_pki_verifier_* families.
	verifiers []*pki.Verifier

	// tracer samples submissions into a bounded trace ring (Config.Trace);
	// nil when tracing is off — every tracer method is nil-receiver safe,
	// so the untraced gateway pays one nil check per submission.
	tracer *telemetry.Tracer

	submitted atomic.Uint64 // requests accepted by the chain
	ordered   atomic.Uint64 // transactions handed to the orderer
	rejected  atomic.Uint64 // requests refused by any stage, handshakes refused

	revMu    sync.Mutex // serializes SyncRevocations' delta cursor
	revEpoch uint64     // last revocation epoch applied to the encrypt stage
	sweeps   atomic.Uint64
	// unsubscribe detaches the RevocationSource push subscription; set at
	// construction, consumed by Close. Guarded by revMu.
	unsubscribe func()

	mu       sync.Mutex
	backends map[string][]Backend       // channel -> bound adapters
	bound    map[string]map[string]bool // channel -> backend name -> subscribed
	commits  map[string]*backendCounters
}

type backendCounters struct {
	blocks atomic.Uint64
	txs    atomic.Uint64
	errors atomic.Uint64
}

// BackendStats is a snapshot of one bound backend's commit counters.
type BackendStats struct {
	Name   string
	Blocks uint64
	Txs    uint64
	Errors uint64
}

// GatewayStats is a snapshot of the gateway's counters.
type GatewayStats struct {
	// Submitted counts requests the chain accepted (batched requests are
	// accepted when buffered).
	Submitted uint64
	// Ordered counts transactions handed to the ordering backend.
	Ordered uint64
	// Rejected counts requests refused by the decoder (ServeWire) or any
	// stage, and session handshakes refused over the wire.
	Rejected uint64
	// Stages holds per-stage counters in chain order.
	Stages []StageStats
	// Backends holds per-backend commit counters.
	Backends []BackendStats
	// Shards holds per-shard routing counters when the ordering backend is
	// sharded; nil otherwise.
	Shards []ordering.ShardStats
	// Sessions snapshots the session manager's lifecycle counters; nil when
	// the pipeline has no session stage.
	Sessions *SessionStats
	// KeyEpochsRotated counts the encrypt stage's data-key epoch installs;
	// 0 when the pipeline has no encrypt stage or no key cache.
	KeyEpochsRotated uint64
	// SessionsRevoked counts sessions evicted because their certificate
	// was revoked (a view of Sessions.Revoked, surfaced beside the other
	// revocation counters).
	SessionsRevoked uint64
	// KeyEpochsRevokedRotations counts cached channel data keys the
	// encrypt stage invalidated because a wrapped member was revoked; each
	// forces a fresh epoch the revoked member cannot unwrap.
	KeyEpochsRevokedRotations uint64
	// RevocationSweeps counts revocation syncs the gateway ran (push
	// notifications from a RevocationSource plus revocation.notify admin
	// requests plus direct SyncRevocations calls).
	RevocationSweeps uint64
	// TracesSampled counts requests recorded into the trace ring over the
	// gateway's lifetime; 0 when tracing is off.
	TracesSampled uint64
	// BatchGroupsSealed counts group envelopes the batch stage released in
	// group-seal mode; BatchGroupTxs the member transactions inside them;
	// BatchPending the submissions currently buffered. All 0 without a
	// batch stage (and the first two outside group-seal mode).
	BatchGroupsSealed uint64
	BatchGroupTxs     uint64
	BatchPending      int
	// AuditShed counts leakage observations dropped because the audit
	// stage's async ring was full; AuditRingPending the observations
	// waiting in it. Both 0 without an async audit ring.
	AuditShed        uint64
	AuditRingPending uint64
	// AuditLogObservations is the number of distinct observations in the
	// leakage log (Env.Log, which orderers and backends may share), and
	// AuditLogBytes the memory its arena, entries and index hold. The log
	// never shrinks. Both 0 without a log.
	AuditLogObservations uint64
	AuditLogBytes        uint64
	// AuthnCertVerifications counts the CA signature checks the authn
	// stage ran, AuthnCertCacheHits the certificates it found in its
	// verified set instead (pki.Verifier); the session manager's pair is
	// in Sessions. Both 0 without an authn stage.
	AuthnCertVerifications uint64
	AuthnCertCacheHits     uint64
}

// NewGateway builds the configured chain and fronts it with the ordering
// backend. Misconfiguration fails here, before any traffic. A sharded
// backend is accepted transparently — it implements ordering.Backend — but
// when cfg.Shards declares a topology the backend must actually be an
// ordering.ShardedBackend with that many shards, and cfg.ShardPins is
// installed on it before any channel carries traffic.
func NewGateway(name string, cfg Config, env Env, orderer ordering.Backend) (*Gateway, error) {
	if name == "" {
		name = "gateway"
	}
	if orderer == nil {
		return nil, fmt.Errorf("%w: gateway needs an ordering backend", ErrBadConfig)
	}
	// With no injected clock the gateway runs coarseNow, but env.Now stays
	// nil into cfg.Build: each stage constructor adopts the default clock
	// itself and — crucially — KNOWS it did (defaultClock), which is what
	// lets the session stage's per-request reading ride req.nowStamp into
	// the encrypt stage instead of every stage reading the clock again.
	// Materializing coarseNow here would make the stages see an injected
	// clock and disable that sharing.
	gwNow := env.Now
	if gwNow == nil {
		gwNow = coarseNow
	}
	sharded, _ := orderer.(*ordering.ShardedBackend)
	if cfg.Shards > 0 {
		if sharded == nil {
			return nil, fmt.Errorf("%w: config declares %d ordering shards but the backend is not sharded", ErrBadConfig, cfg.Shards)
		}
		if got := sharded.Shards(); got != cfg.Shards {
			return nil, fmt.Errorf("%w: config declares %d ordering shards, backend has %d", ErrBadConfig, cfg.Shards, got)
		}
		for channel, shard := range cfg.ShardPins {
			if err := sharded.Pin(channel, shard); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
			}
		}
	}
	g := &Gateway{
		name:      name,
		orderer:   orderer,
		sharded:   sharded,
		now:       gwNow,
		revoker:   env.Revoker,
		auditLog:  env.Log,
		directory: env.Directory,
		backends:  make(map[string][]Backend),
		bound:     make(map[string]map[string]bool),
		commits:   make(map[string]*backendCounters),

		metaPlain:  map[string]string{"gateway": name},
		metaSealed: map[string]string{"envelope": EnvelopeScheme, "gateway": name},
	}
	chain, err := cfg.Build(env, g.order)
	if err != nil {
		return nil, err
	}
	g.chain = chain
	if every, err := cfg.traceEvery(); err != nil {
		return nil, err
	} else if every > 0 {
		g.tracer = telemetry.NewTracer(every, 0)
	}
	g.rows = g.statRows()
	for _, s := range chain.stages {
		if h, ok := s.(sessionHolder); ok {
			g.sessions = h.Manager()
		}
		if h, ok := s.(verifierHolder); ok {
			g.verifiers = append(g.verifiers, h.verifier())
		}
		if src, ok := s.(statSource); ok {
			g.rows = append(g.rows, src.statRows()...)
		}
	}
	// A push-capable revocation plane drives the gateway directly: every
	// Revoke lands as a sync, so sessions die and key epochs rotate without
	// waiting for a sweep interval or an admin notification. Close detaches
	// the subscription; gateways shorter-lived than their revocation source
	// must be closed or the source keeps pushing into them forever.
	if src, ok := g.revoker.(RevocationSource); ok {
		g.unsubscribe = src.OnRevoke(func(pki.Revocation) { g.SyncRevocations() })
	}
	return g, nil
}

// Close releases the gateway's push subscription on its revocation source,
// if any, and drains the audit stage's async ring: every leakage
// observation enqueued before Close returns is recorded. Idempotent; the
// gateway still serves traffic afterwards — it just stops receiving
// revocation pushes, and later audit observations record inline.
func (g *Gateway) Close() {
	g.revMu.Lock()
	unsub := g.unsubscribe
	g.unsubscribe = nil
	g.revMu.Unlock()
	if unsub != nil {
		unsub()
	}
	for _, s := range g.chain.stages {
		if c, ok := s.(stageCloser); ok {
			c.Close()
		}
	}
}

// SyncRevocations pulls the revocation delta from the configured Revoker
// and applies it across the gateway: newly revoked identity certificates
// are excluded from envelope encryption (invalidating any cached channel
// key they could unwrap), the session manager sweeps sessions rooted in
// revoked certificates, and the revocation trail lands in the audit log.
// It returns how many sessions were evicted. Trivial without a Revoker.
// Safe for concurrent use; it is invoked by RevocationSource pushes, the
// revocation.notify admin topic, and directly by embedders.
func (g *Gateway) SyncRevocations() int {
	if g.revoker == nil {
		return 0
	}
	// revMu is held across the whole application, not just the cursor
	// advance: a concurrent sync must not observe the new epoch while the
	// encrypt exclusions for it are still pending, or its empty-delta
	// reply would claim a revocation is applied that is not. All the work
	// is in-memory, so the critical section stays cheap.
	g.revMu.Lock()
	defer g.revMu.Unlock()
	revs, version := g.revoker.RevokedSince(g.revEpoch)
	g.revEpoch = version
	for _, rev := range revs {
		// Only a revocation that withdraws the identity's standing excludes
		// it from envelopes: one-time certs never carried channel
		// membership, and a superseded-cert revocation (the key-rotation
		// flow: re-enroll, then revoke the old serial) withdraws one
		// certificate while the identity remains a member in good standing.
		if rev.Kind == pki.KindIdentity && rev.Identity != "" && !rev.Superseded {
			g.eachMemberKeyer(func(k memberKeyer) { k.RevokeMember(rev.Identity) })
		}
		// The audit trail records that the gateway operator learned of the
		// revocation: who lost trust and at which epoch.
		g.auditLog.Record(g.name, audit.ClassIdentity,
			fmt.Sprintf("revoked:%s#%d@%d", rev.Identity, rev.Serial, rev.Epoch))
	}
	evicted := 0
	if mgr := g.Sessions(); mgr != nil {
		evicted = mgr.SweepRevoked()
	}
	g.sweeps.Add(1)
	return evicted
}

// ReadmitMember lifts the envelope exclusion of a previously revoked
// identity — the operator path for an identity revoked outright and later
// re-enrolled under a fresh certificate (its channels re-key to include it
// on their next submission). A no-op without an encrypt stage or for
// identities never excluded.
func (g *Gateway) ReadmitMember(identity string) {
	g.eachMemberKeyer(func(k memberKeyer) { k.ReadmitMember(identity) })
}

// eachMemberKeyer applies fn to every stage that wraps channel keys to
// member identities.
func (g *Gateway) eachMemberKeyer(fn func(memberKeyer)) {
	for _, s := range g.chain.stages {
		if k, ok := s.(memberKeyer); ok {
			fn(k)
		}
	}
}

// RevocationEpoch reports the last revocation epoch SyncRevocations
// applied.
func (g *Gateway) RevocationEpoch() uint64 {
	g.revMu.Lock()
	defer g.revMu.Unlock()
	return g.revEpoch
}

// Name returns the gateway's principal name.
func (g *Gateway) Name() string { return g.name }

// order is the terminal handler: build the ledger transaction and submit
// it for ordering. The one place a transaction's Meta is composed: the
// request's annotations, "envelope" if the encrypt stage sealed the payload,
// the gateway's name. A request with none of its own gets one of NewGateway's
// two maps, which leave here only as a transaction's Meta, never as req.Meta.
func (g *Gateway) order(ctx context.Context, req *Request) error {
	meta := req.Meta
	switch {
	case len(meta) == 0 && req.enveloped:
		meta = g.metaSealed
	case len(meta) == 0:
		meta = g.metaPlain
	default:
		if !req.metaOwned {
			meta = make(map[string]string, len(req.Meta)+2)
			for k, v := range req.Meta {
				meta[k] = v
			}
		}
		req.metaOwned = false // the map is the transaction's now: a retry copies it
		if req.enveloped {
			meta["envelope"] = EnvelopeScheme
		}
		meta["gateway"] = g.name
	}
	tx := ledger.Transaction{
		Channel:   req.Channel,
		Creator:   req.Principal,
		Payload:   req.Payload,
		Meta:      meta,
		Timestamp: g.now(),
	}
	// Prime here, from the payload sum the chain already holds (the encrypt
	// stage's, or an upstream digest's): the ordering backend, block cut and
	// every subscriber then read this one digest, and the sealed payload is
	// never streamed through SHA-256 a second time.
	tx.PrimeDigestWithPayloadSum(req.payloadSum())
	if err := g.orderer.Submit(tx); err != nil {
		return fmt.Errorf("gateway %s: order: %w", g.name, err)
	}
	g.ordered.Add(1)
	return nil
}

// Submit runs one request through the chain. A nil return means the
// request was accepted: either ordered, or buffered by the batch stage for
// a later group release. When tracing is configured the request may be
// sampled (always, if it arrived with a wire-carried TraceID) and its
// per-stage spans recorded into the trace ring; the unsampled path costs
// one atomic increment, tracing off one nil check.
func (g *Gateway) Submit(ctx context.Context, req *Request) error {
	// The digest memo is ServeWire's alone: a caller's request may have
	// changed since an earlier call.
	req.digestSet = false
	return g.submit(ctx, req)
}

// submit is Submit for ServeWire, whose request carries its digest memo.
func (g *Gateway) submit(ctx context.Context, req *Request) error {
	tr := g.tracer.For(req.TraceID)
	if tr != nil {
		req.trace = tr
		req.TraceID = tr.ID
	}
	err := g.chain.Execute(ctx, req)
	g.tracer.Finish(tr, err)
	if err != nil {
		g.rejected.Add(1)
		return err
	}
	g.submitted.Add(1)
	return nil
}

// SubmitFuture is the completion handle SubmitAsync returns: it resolves
// with the request's delivery outcome — immediately for requests ordered
// or rejected inline, at group release for requests the batch stage
// buffered. Wait may be called repeatedly; the first resolution sticks.
type SubmitFuture struct {
	ch chan error

	mu       sync.Mutex
	resolved bool
	err      error
}

// Wait blocks until the submission's delivery outcome is known or ctx is
// done. A nil return means the request was ordered (or delivered through
// its group); a batched member whose group release failed gets the
// ErrBatchRelease-wrapped group error.
func (f *SubmitFuture) Wait(ctx context.Context) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.resolved {
		return f.err
	}
	select {
	case err := <-f.ch:
		f.resolved, f.err = true, err
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// SubmitAsync runs one request through the chain and returns a completion
// future instead of coupling the caller to the group release: a request
// the batch stage buffers is acknowledged immediately (nil error, like
// Submit) and its future resolves when its group is released — letting
// submitters pipeline a whole batch and then collect outcomes, instead of
// blocking a round-trip per transaction. Requests rejected or ordered
// inline resolve their future before SubmitAsync returns. The returned
// error mirrors Submit (nil means accepted).
func (g *Gateway) SubmitAsync(ctx context.Context, req *Request) (*SubmitFuture, error) {
	req.done = make(chan error, 1)
	f := &SubmitFuture{ch: req.done}
	err := g.Submit(ctx, req)
	if !req.buffered {
		// Never reached a holding stage: the outcome is already final.
		// Buffered requests resolve at release (the batch stage owns their
		// completion — including the filling request, whose release ran
		// inside this Submit call).
		req.complete(err)
	}
	return f, err
}

// Tracer returns the gateway's request tracer, nil when Config.Trace is
// off. The handle /tracez serves from.
func (g *Gateway) Tracer() *telemetry.Tracer { return g.tracer }

// Flush releases any partially-filled batch or aggregation group
// downstream, then waits for the audit stage's async ring (if any) to
// catch up, so after Flush returns every accepted submission is ordered
// AND its leakage observation recorded. Gateways without a holding stage
// flush trivially.
func (g *Gateway) Flush(ctx context.Context) error {
	var err error
	for i := len(g.chain.stages) - 1; i >= 0; i-- {
		if f, ok := g.chain.stages[i].(stageFlusher); ok {
			err = errors.Join(err, f.Flush(ctx))
		}
	}
	return err
}

// Backend is a platform adapter the gateway relays ordered blocks into:
// the bridge from the confidentiality pipeline to Fabric, Corda, or Quorum
// native submission paths.
type Backend interface {
	Name() string
	// Commit applies one ordered block to the platform.
	Commit(b ledger.Block) error
}

// Bind subscribes the backends to the channel's block stream. Each cut
// block is committed to every bound backend; the first failing backend
// aborts delivery and surfaces the error to the submitting request (which
// is what the breaker and retry stages act on). Re-binding is idempotent
// BY NAME: a backend whose Name() is already bound to the channel is
// skipped — including a different instance under the same name — so
// reconnect paths cannot register a second orderer subscription and
// double-commit every block. Adapters that reconnect should keep the
// connection inside one long-lived instance rather than re-Bind a new one.
func (g *Gateway) Bind(channel string, backends ...Backend) {
	g.mu.Lock()
	defer g.mu.Unlock()
	names := g.bound[channel]
	if names == nil {
		names = make(map[string]bool)
		g.bound[channel] = names
	}
	for _, b := range backends {
		if names[b.Name()] {
			continue
		}
		names[b.Name()] = true
		g.backends[channel] = append(g.backends[channel], b)
		ctr, ok := g.commits[b.Name()]
		if !ok {
			ctr = &backendCounters{}
			g.commits[b.Name()] = ctr
		}
		b := b
		g.orderer.Subscribe(channel, func(blk ledger.Block) error {
			if err := b.Commit(blk); err != nil {
				ctr.errors.Add(1)
				return fmt.Errorf("backend %s: %w", b.Name(), err)
			}
			ctr.blocks.Add(1)
			ctr.txs.Add(uint64(len(blk.Txs)))
			return nil
		})
	}
}

// Bound returns the adapters bound to a channel.
func (g *Gateway) Bound(channel string) []Backend {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]Backend(nil), g.backends[channel]...)
}

// Sharded exposes the sharded ordering backend this gateway fronts, nil
// for unsharded deployments. Admin surfaces (the shard.rebalance topic,
// operational tooling, the chaos harness) use it to migrate channels and
// read per-shard counters.
func (g *Gateway) Sharded() *ordering.ShardedBackend { return g.sharded }

// statRows declares the gateway's own numbers; the stages declare theirs
// beside their atomics (see statRow).
func (g *Gateway) statRows() []statRow {
	// Backend commit counters aggregate over bound adapters: Bind is
	// dynamic, so the scrape sums the commit table instead of registering
	// per-backend series up front (Stats lists them per backend).
	sum := func(pick func(*backendCounters) uint64) func() uint64 {
		return func() uint64 {
			var n uint64
			g.mu.Lock()
			for _, ctr := range g.commits {
				n += pick(ctr)
			}
			g.mu.Unlock()
			return n
		}
	}
	// Every pki.Verifier behind the gateway, as one pair of families: the
	// per-stage pairs (confmw_session_cert_*, confmw_authn_cert_*) say where.
	verifiers := func(pick func(*pki.Verifier) uint64) func() uint64 {
		return func() uint64 {
			var n uint64
			for _, v := range g.verifiers {
				n += pick(v)
			}
			return n
		}
	}
	return []statRow{
		{"confmw_gateway_submitted_total", "Requests accepted by the chain.", counter, g.submitted.Load, func(s *GatewayStats, v uint64) { s.Submitted = v }},
		{"confmw_gateway_ordered_total", "Transactions handed to the ordering backend.", counter, g.ordered.Load, func(s *GatewayStats, v uint64) { s.Ordered = v }},
		{"confmw_gateway_rejected_total", "Requests refused by the decoder or a stage, and session handshakes refused.", counter, g.rejected.Load, func(s *GatewayStats, v uint64) { s.Rejected = v }},
		{"confmw_revocation_sweeps_total", "Revocation syncs the gateway applied.", counter, g.sweeps.Load, func(s *GatewayStats, v uint64) { s.RevocationSweeps = v }},
		{"confmw_traces_sampled_total", "Requests recorded into the trace ring.", counter, g.tracer.Sampled, func(s *GatewayStats, v uint64) { s.TracesSampled = v }},
		{"confmw_revocation_epoch", "Last revocation epoch applied.", gauge, g.RevocationEpoch, nil},
		{"confmw_audit_log_observations", "Distinct observations the leakage log holds; it never shrinks.", gauge, func() uint64 { return uint64(g.auditLog.Len()) }, func(s *GatewayStats, v uint64) { s.AuditLogObservations = v }},
		{"confmw_audit_log_bytes", "Bytes held by the leakage log's arena, entries and index.", gauge, func() uint64 { return uint64(g.auditLog.Footprint()) }, func(s *GatewayStats, v uint64) { s.AuditLogBytes = v }},
		{"confmw_pki_verifier_hits_total", "Certificates found in a verified set, over every pki.Verifier the pipeline holds.", counter, verifiers((*pki.Verifier).Hits), nil},
		{"confmw_pki_verifier_verifications_total", "CA signature checks run, over every pki.Verifier the pipeline holds.", counter, verifiers((*pki.Verifier).Verifications), nil},
		{"confmw_backend_committed_blocks_total", "Blocks committed across bound platform backends.", counter, sum(func(c *backendCounters) uint64 { return c.blocks.Load() }), nil},
		{"confmw_backend_committed_txs_total", "Transactions committed across bound platform backends.", counter, sum(func(c *backendCounters) uint64 { return c.txs.Load() }), nil},
		{"confmw_backend_commit_errors_total", "Failed block commits across bound platform backends.", counter, sum(func(c *backendCounters) uint64 { return c.errors.Load() }), nil},
	}
}

// Stats snapshots gateway, per-stage, and per-backend counters.
func (g *Gateway) Stats() GatewayStats {
	stats := GatewayStats{Stages: g.chain.Stats()}
	if g.sharded != nil {
		stats.Shards = g.sharded.Stats()
	}
	for _, r := range g.rows {
		if r.set != nil {
			r.set(&stats, r.load())
		}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for name, ctr := range g.commits {
		stats.Backends = append(stats.Backends, BackendStats{
			Name:   name,
			Blocks: ctr.blocks.Load(),
			Txs:    ctr.txs.Load(),
			Errors: ctr.errors.Load(),
		})
	}
	return stats
}

// RegisterMetrics registers every subsystem the gateway fronts into reg
// under the confmw_* naming scheme: per-stage chain telemetry, the counter
// table (gateway submission counters, revocation plane, backend commit
// aggregates, trace sampling, and whatever the configured stages export),
// and per-shard routing. Call once per gateway per registry, before
// serving /metrics.
func (g *Gateway) RegisterMetrics(reg *telemetry.Registry) error {
	if err := g.chain.RegisterMetrics(reg); err != nil {
		return err
	}
	ms := make([]telemetry.FuncMetric, len(g.rows))
	for i, r := range g.rows {
		ms[i] = telemetry.FuncMetric{Name: r.name, Help: r.help, Gauge: r.kind == gauge, Load: r.load}
	}
	if err := reg.RegisterFuncs(ms); err != nil {
		return err
	}
	if g.sharded != nil {
		return g.sharded.RegisterMetrics(reg)
	}
	return nil
}

// Sessions returns the session manager of the chain's session stage, or
// nil when the pipeline has no session stage.
func (g *Gateway) Sessions() *SessionManager { return g.sessions }

// channelName returns a frame's channel bytes as a string without
// allocating one per request: from a table of the channel names seen so far
// that the directory knows. Only the directory's channels ever enter it, so
// hostile input grows nothing; a channel the directory does not know (or a
// gateway without a directory) gets a fresh copy, as every channel used to.
func (g *Gateway) channelName(b []byte) string {
	if g == nil || g.directory == nil {
		return string(b)
	}
	if names := g.channelNames.Load(); names != nil {
		if name, ok := (*names)[string(b)]; ok { // the conversion in a map index does not allocate
			return name
		}
	}
	name := string(b)
	if _, err := g.directory.MemberKeys(name); err != nil {
		return name
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	grown := map[string]string{name: name}
	if names := g.channelNames.Load(); names != nil {
		for k, v := range *names {
			grown[k] = v
		}
	}
	g.channelNames.Store(&grown)
	return name
}

// RotateChannelKey forces the encrypt stage onto a fresh data-key epoch
// for the channel (e.g. after revoking a member's certificate). A no-op
// when the pipeline has no encrypt stage or no key cache.
func (g *Gateway) RotateChannelKey(channel string) {
	g.eachMemberKeyer(func(k memberKeyer) { k.Rotate(channel) })
}

// ServeWire handles one wire message against the gateway: the shared
// topic dispatch behind every transport front (the in-process substrate
// via AttachTransport, the TCP edge via netedge.Server). transportID names
// the connection the message arrived on — transports with per-connection
// identity pass it so sessions opened here are bound to the connection and
// submissions resolve against that binding; transports without one pass ""
// and sessions stay unbound. The payload slice is only borrowed: a binary
// frame decodes into the Request the chain runs, which aliases it zero-copy
// for the run, and a stage that holds a request past return copies what it
// holds into memory it owns (Batch.Handle; the encrypt stage replaces the
// payload only outside deferred group-seal mode), so stream transports may
// reuse their read buffer for the next frame.
func (g *Gateway) ServeWire(ctx context.Context, topic string, payload []byte, transportID string) ([]byte, error) {
	switch topic {
	case TopicSubmit:
		req := &Request{TransportID: transportID}
		if err := decodeRequestBinary(payload, req, g); err != nil {
			g.rejected.Add(1)
			return nil, fmt.Errorf("gateway %s: decode request: %w", g.name, err)
		}
		req.metaOwned = req.Meta != nil // the decoder made the map; no caller holds it
		// The ID covers the payload as submitted; the encrypt stage
		// replaces it, so capture before running the chain. The digest is
		// taken once here and memoised for the stages that check or record
		// it; the reply lives in the request, which is allocated anyway.
		req.digestMemo, req.digestSet = req.Digest(), true
		req.replyID = hexID(req.digestMemo)
		if err := g.submit(ctx, req); err != nil {
			return nil, err
		}
		return req.replyID[:], nil
	case TopicSessionOpen:
		mgr := g.Sessions()
		if mgr == nil {
			return nil, fmt.Errorf("gateway %s: pipeline has no session stage", g.name)
		}
		return g.serveSessionOpen(mgr, payload, transportID)
	case TopicSessionClose:
		mgr := g.Sessions()
		if mgr == nil {
			return nil, fmt.Errorf("gateway %s: pipeline has no session stage", g.name)
		}
		if err := mgr.CloseFrom(string(payload), transportID); err != nil {
			return nil, fmt.Errorf("gateway %s: %w", g.name, err)
		}
		return []byte("ok"), nil
	case TopicRevocationNotify:
		if g.revoker == nil {
			return nil, fmt.Errorf("gateway %s: no revocation plane configured", g.name)
		}
		evicted := g.SyncRevocations()
		b, err := json.Marshal(RevocationNotice{Epoch: g.RevocationEpoch(), SessionsRevoked: evicted})
		if err != nil {
			return nil, fmt.Errorf("gateway %s: encode revocation notice: %w", g.name, err)
		}
		return b, nil
	case TopicShardRebalance:
		if g.sharded == nil {
			return nil, fmt.Errorf("gateway %s: ordering backend is not sharded", g.name)
		}
		var req RebalanceRequest
		if len(payload) > 0 {
			if err := json.Unmarshal(payload, &req); err != nil {
				return nil, fmt.Errorf("gateway %s: decode rebalance request: %w", g.name, err)
			}
		}
		var moves []ordering.Migration
		if req.Channel != "" {
			from := g.sharded.ShardFor(req.Channel)
			if err := g.sharded.Migrate(req.Channel, req.To); err != nil {
				return nil, fmt.Errorf("gateway %s: %w", g.name, err)
			}
			if from != req.To {
				moves = []ordering.Migration{{Channel: req.Channel, From: from, To: req.To}}
			}
		} else {
			skew := req.Skew
			if skew == 0 {
				skew = DefaultRebalanceSkew
			}
			var err error
			moves, err = g.sharded.Rebalance(skew)
			if err != nil {
				return nil, fmt.Errorf("gateway %s: %w", g.name, err)
			}
		}
		b, err := json.Marshal(RebalanceNotice{Migrations: moves})
		if err != nil {
			return nil, fmt.Errorf("gateway %s: encode rebalance notice: %w", g.name, err)
		}
		return b, nil
	default:
		return nil, fmt.Errorf("gateway %s: unknown topic %q", g.name, topic)
	}
}

// serveSessionOpen runs one handshake that crossed a network: a full hello
// or a resume hello, each a 0xDC frame. The grant frame carries neither the
// MAC key nor the bare master secret: see SessionManager.open. A resume
// hello naming an id the manager does not hold is answered with the
// resume-miss frame — a reply, so the client can tell "send the full hello"
// from a refusal. Every refusal counts in confmw_gateway_rejected_total.
func (g *Gateway) serveSessionOpen(mgr *SessionManager, payload []byte, transportID string) ([]byte, error) {
	hello, resumed, err := decodeHelloFrame(payload)
	if err != nil {
		g.rejected.Add(1)
		return nil, fmt.Errorf("gateway %s: decode hello: %w", g.name, err)
	}
	var resume *resumeHello
	var traceID uint64
	if hello == nil {
		resume, traceID = &resumed, resumed.TraceID
	} else {
		traceID = hello.TraceID
	}
	// A hello carrying a trace ID joins the client's sampled flow:
	// the handshake is recorded as its own trace in the ring.
	var tr *telemetry.Trace
	if traceID != 0 {
		tr = g.tracer.For(traceID)
	}
	grant, err := mgr.open(hello, resume, transportID, true)
	if tr != nil {
		d := time.Since(tr.Start)
		tr.AddSpan("session.open", tr.Start, d, d, err)
		g.tracer.Finish(tr, err)
	}
	if errors.Is(err, errResumeUnknown) {
		return []byte{binaryMagic, binaryKindResumeMiss}, nil
	}
	if err != nil {
		g.rejected.Add(1)
		return nil, err
	}
	return encodeGrantFrame(&grant), nil
}

// AttachTransport registers the gateway as a network endpoint serving
// TopicSubmit, TopicSessionOpen, and TopicSessionClose. The reply to an
// accepted submission is its request ID (batched submissions are
// acknowledged before a transaction exists); to an accepted handshake, a
// marshalled SessionGrant. Requests run under the caller's ctx, so
// server-side deadlines and cancellation reach the chain. The in-process
// substrate has no per-connection identity, so sessions opened through it
// stay unbound (see ServeWire and the TCP edge for bound sessions).
func (g *Gateway) AttachTransport(ctx context.Context, net *transport.Network, endpoint string) error {
	if ctx == nil {
		ctx = context.Background()
	}
	return net.Register(endpoint, func(msg transport.Message) ([]byte, error) {
		return g.ServeWire(ctx, msg.Topic, msg.Payload, "")
	})
}

// SubmitOver sends a request to a gateway endpoint over the network
// substrate and returns the gateway's submission ID.
func SubmitOver(net *transport.Network, from, endpoint string, req *Request) (string, error) {
	b, err := EncodeWireRequest(req, "")
	if err != nil {
		return "", fmt.Errorf("middleware: encode request: %w", err)
	}
	reply, err := net.Send(transport.Message{From: from, To: endpoint, Topic: TopicSubmit, Payload: b})
	if err != nil {
		return "", err
	}
	return string(reply), nil
}

// OpenSessionOver performs the signed session handshake with a gateway
// endpoint over the network substrate: full authn is paid once here, and
// the returned grant's token rides on every subsequent submission (on a
// reqauth=mac gateway the grant also holds the session MAC key for
// MACRequest — derived here, never sent). Every call is the full signed
// handshake: the helper keeps nothing between calls. A caller that opens
// sessions again and again holds a Handshaker and calls its Open with the
// same round trip, and resumes.
func OpenSessionOver(net *transport.Network, from, endpoint string, cert pki.Certificate, key *dcrypto.PrivateKey) (SessionGrant, error) {
	// The substrate delivers in process and takes no context.
	return new(Handshaker).Open(context.TODO(), from, cert, key, func(_ context.Context, hello []byte) ([]byte, error) {
		return net.Send(transport.Message{From: from, To: endpoint, Topic: TopicSessionOpen, Payload: hello})
	})
}

// CloseSessionOver ends a session at a gateway endpoint.
func CloseSessionOver(net *transport.Network, from, endpoint, token string) error {
	_, err := net.Send(transport.Message{From: from, To: endpoint, Topic: TopicSessionClose, Payload: []byte(token)})
	return err
}

// NotifyRevocationOver tells a gateway endpoint that the revocation plane
// moved; the gateway pulls and applies the delta and reports what it did.
// The path for deployments whose CA runs out of process, where the
// in-process push subscription cannot reach.
func NotifyRevocationOver(net *transport.Network, from, endpoint string) (RevocationNotice, error) {
	reply, err := net.Send(transport.Message{From: from, To: endpoint, Topic: TopicRevocationNotify})
	if err != nil {
		return RevocationNotice{}, err
	}
	var notice RevocationNotice
	if err := json.Unmarshal(reply, &notice); err != nil {
		return RevocationNotice{}, fmt.Errorf("middleware: decode revocation notice: %w", err)
	}
	return notice, nil
}

// RebalanceOver drives shard.rebalance at a gateway endpoint over the
// network substrate: a manual channel migration when req.Channel is set,
// or a skew-driven pass otherwise. Returns the moves the gateway made.
func RebalanceOver(net *transport.Network, from, endpoint string, req RebalanceRequest) (RebalanceNotice, error) {
	b, err := json.Marshal(req)
	if err != nil {
		return RebalanceNotice{}, fmt.Errorf("middleware: encode rebalance request: %w", err)
	}
	reply, err := net.Send(transport.Message{From: from, To: endpoint, Topic: TopicShardRebalance, Payload: b})
	if err != nil {
		return RebalanceNotice{}, err
	}
	var notice RebalanceNotice
	if err := json.Unmarshal(reply, &notice); err != nil {
		return RebalanceNotice{}, fmt.Errorf("middleware: decode rebalance notice: %w", err)
	}
	return notice, nil
}

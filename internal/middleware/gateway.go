package middleware

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/ledger"
	"dltprivacy/internal/ordering"
	"dltprivacy/internal/pki"
	"dltprivacy/internal/telemetry"
)

// Wire topics: what AppendWire serves, and the edge carries.
const (
	// TopicSubmit carries signed client submissions.
	TopicSubmit = "gateway.submit"
	// TopicSessionOpen carries a signed SessionHello; the reply is a
	// marshalled SessionGrant.
	TopicSessionOpen = "session.open"
	// TopicSessionClose carries the key of a session to end: the 32 bytes
	// its token spells in hex (EncodeSessionClose). Any other payload —
	// the token's hex included — names no session, and closing it is a
	// no-op.
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

// defaultRebalanceSkew is the load-skew factor a shard.rebalance request
// without an explicit skew uses: shards loaded beyond this multiple of the
// mean shed channels.
const defaultRebalanceSkew = 2.0

// RebalanceRequest asks a gateway to migrate ordering channels. Either a
// manual move (Channel + To) or an automatic pass (Skew, 0 meaning
// defaultRebalanceSkew).
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
	// revoker is the revocation plane syncRevocations pulls deltas from;
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

	// tracer samples submissions into a bounded trace ring (Config.Trace);
	// nil when tracing is off — every tracer method is nil-receiver safe,
	// so the untraced gateway pays one nil check per submission.
	tracer *telemetry.Tracer

	submitted atomic.Uint64 // requests accepted by the chain
	ordered   atomic.Uint64 // transactions handed to the orderer
	// rejects counts the requests the decoder or a stage refused and the
	// handshakes refused, one counter per row of rejectReasons.
	rejects [len(rejectReasons)]atomic.Uint64

	revMu sync.Mutex // serializes syncRevocations' delta cursor
	// revEpoch is the last revocation epoch applied to the encrypt stage,
	// stored only once its exclusions are; submit compares it with the
	// revoker's version.
	revEpoch atomic.Uint64
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
	// Rejected counts requests refused by the decoder (AppendWire) or any
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
	// requests).
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
	// BatchReleaseFailedTxs counts acknowledged submissions a batch release
	// failed to order: every member of a failed group release, stranded by
	// a rotation, filled or flushed, and each failed member of a plain
	// release. 0 without a batch stage.
	BatchReleaseFailedTxs uint64
	// AuditShed and AuditRingPending always read 0: the audit stage records
	// inline, with no ring to shed from or wait in. They are kept because
	// the frozen benchmark reads them.
	AuditShed        uint64
	AuditRingPending uint64
	// AuditLogObservations is the number of records in the leakage log
	// (Env.Log, which orderers and backends may share), duplicates included,
	// and AuditLogBytes the memory its presence table holds, which stops
	// growing once every (observer, class) pair has been seen. Both 0
	// without a log.
	AuditLogObservations uint64
	AuditLogBytes        uint64
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
	// nil into cfg.build: each stage constructor adopts the default clock
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
	chain, err := cfg.build(env, g.order)
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
		if src, ok := s.(statSource); ok {
			g.rows = append(g.rows, src.statRows()...)
		}
	}
	// A push-capable revocation plane drives the gateway directly: every
	// Revoke lands as a sync, so sessions die and key epochs rotate without
	// waiting for the next request or an admin notification. Close detaches
	// the subscription; gateways shorter-lived than their revocation source
	// must be closed or the source keeps pushing into them forever.
	if src, ok := g.revoker.(RevocationSource); ok {
		g.unsubscribe = src.OnRevoke(func(pki.Revocation) { g.syncRevocations() })
	}
	return g, nil
}

// Close releases the gateway's push subscription on its revocation source,
// if any. Idempotent; the gateway still serves traffic afterwards — it just
// stops receiving revocation pushes.
func (g *Gateway) Close() {
	g.revMu.Lock()
	unsub := g.unsubscribe
	g.unsubscribe = nil
	g.revMu.Unlock()
	if unsub != nil {
		unsub()
	}
}

// syncRevocations pulls the revocation delta from the configured Revoker
// and applies it across the gateway: newly revoked identity certificates
// are excluded from envelope encryption (invalidating any cached channel
// key they could unwrap), the session manager sweeps sessions rooted in
// revoked certificates, and the revocation trail lands in the audit log.
// It returns how many sessions were evicted. Trivial without a Revoker.
// Safe for concurrent use; RevocationSource pushes, the revocation.notify
// admin topic and a submission that sees the revoker's version move invoke
// it.
func (g *Gateway) syncRevocations() int {
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
	revs, version := g.revoker.RevokedSince(g.revEpoch.Load())
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
	g.revEpoch.Store(version)
	evicted := 0
	if mgr := g.Sessions(); mgr != nil {
		evicted = mgr.sweepRevoked()
	}
	g.sweeps.Add(1)
	return evicted
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

// revocationEpoch reports the last revocation epoch syncRevocations
// applied.
func (g *Gateway) revocationEpoch() uint64 { return g.revEpoch.Load() }

// order is the terminal handler: build the ledger transaction and submit
// it for ordering. The one place a transaction's Meta is composed: the
// request's annotations, "envelope" if the encrypt stage sealed the payload,
// the gateway's name. A request with none of its own gets one of NewGateway's
// two maps, which leave here only as a transaction's Meta, never as req.Meta.
// A request's own map was made by the pipeline — the decoder, a stage, a
// release vehicle — and nobody else holds it, so it is annotated in place and
// becomes the transaction's.
func (g *Gateway) order(ctx context.Context, req *Request) error {
	// The ordering backend keeps state per channel name, so a name the
	// directory does not know stops here, whatever stages ran. A frame's
	// channel was looked up as it was decoded.
	if !req.channelKnown {
		if _, known := channelName(g, req.Channel); !known {
			return fmt.Errorf("gateway %s: %w: %s", g.name, ErrUnknownChannel, req.Channel)
		}
	}
	meta := req.Meta
	switch {
	case len(meta) == 0 && req.enveloped:
		meta = g.metaSealed
	case len(meta) == 0:
		meta = g.metaPlain
	default:
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

// submit runs one request AppendWire decoded through the chain. A nil
// return means the request was accepted: either ordered, or buffered by the
// batch stage for a later group release. When tracing is configured the
// request may be sampled (always, if it arrived with a wire-carried TraceID)
// and its per-stage spans recorded into the trace ring; the unsampled path
// costs one atomic increment, tracing off one nil check. A revoker whose
// version moved past the applied epoch is synced first, so a revoker that
// cannot push still keeps a revoked member out of the next envelope.
func (g *Gateway) submit(ctx context.Context, req *Request) error {
	if g.revoker != nil && g.revoker.RevocationVersion() != g.revEpoch.Load() {
		g.syncRevocations()
	}
	tr := g.tracer.For(req.TraceID)
	if tr != nil {
		req.trace = tr
		req.TraceID = tr.ID
	}
	err := g.chain.execute(ctx, req)
	g.tracer.Finish(tr, err)
	if err != nil {
		return g.reject(rejectChain, err)
	}
	g.submitted.Add(1)
	return nil
}

// Tracer returns the gateway's request tracer, nil when Config.Trace is
// off. The handle /tracez serves from.
func (g *Gateway) Tracer() *telemetry.Tracer { return g.tracer }

// Flush releases any partially-filled batch or aggregation group
// downstream, so after Flush returns every accepted submission is ordered.
// Leakage observations need no flush: the audit stage records each one
// before its Handle returns. Gateways without a holding stage flush
// trivially.
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
// aborts delivery and surfaces the error to the submitting request.
// Re-binding is idempotent
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

// rejectSite is where the gateway refused something: the three places that
// count into confmw_gateway_rejected_total.
type rejectSite uint8

const (
	rejectDecode rejectSite = iota // a gateway.submit frame that did not decode
	rejectChain                    // a submission a stage refused
	rejectOpen                     // a session.open frame refused, or its handshake
)

// rejectReason is one series of confmw_gateway_rejected_total: a refusal at
// site that wraps err (any refusal, for a nil err) counts as (stage, reason).
type rejectReason struct {
	site          rejectSite
	stage, reason string
	err           error
}

// rejectReasons is the closed vocabulary of refusals: a refusal counts under
// the first row of its site whose err it wraps, and every site ends in a row
// that takes any refusal, so each lands somewhere. A stage's rows carry its
// name. TestEveryErrorHasARejectReason holds every exported error here.
var rejectReasons = [...]rejectReason{
	{rejectDecode, "decode", "bad_frame", nil},

	{rejectChain, StageSession, "no_session", ErrNoSession},
	{rejectChain, StageSession, "session_expired", ErrSessionExpired},
	{rejectChain, StageSession, "session_revoked", ErrSessionRevoked},
	{rejectChain, StageSession, "session_bound", ErrSessionBound},
	{rejectChain, StageSession, "principal_mismatch", ErrIdentityMismatch},
	{rejectChain, StageSession, "bad_mac", ErrBadMAC},
	{rejectChain, StageAnonCred, "credential_required", ErrCredentialRequired},
	{rejectChain, StageAnonCred, "credential_rejected", ErrCredentialRejected},
	{rejectChain, StageZKProof, "proof_required", ErrProofRequired},
	{rejectChain, StageZKProof, "proof_invalid", ErrProofInvalid},
	{rejectChain, StageAttest, "attestation_required", ErrAttestationRequired},
	{rejectChain, StageAttest, "attestation_rejected", ErrAttestationRejected},
	{rejectChain, StageEncrypt, "not_authenticated", ErrNotAuthenticated},
	{rejectChain, StageEncrypt, "not_recipient", ErrNotRecipient},
	{rejectChain, StageAggregate, "bad_aggregand", ErrBadAggregand},
	{rejectChain, StageAggregate, "release_failed", ErrAggregateRelease},
	{rejectChain, StageBatch, "release_failed", ErrBatchRelease},
	{rejectChain, StageBatch, "no_group_key", errNoGroupKey},
	{rejectChain, "order", "no_leader", ordering.ErrNoLeader},
	{rejectChain, "order", "no_quorum", ordering.ErrNoQuorum},
	{rejectChain, "order", "unknown_channel", ErrUnknownChannel},
	{rejectChain, "chain", "bad_config", ErrBadConfig},
	{rejectChain, "chain", "other", nil},

	{rejectOpen, "session.open", "bad_frame", ErrBadFrame},
	{rejectOpen, "session.open", "stale_hello", ErrStaleHello},
	{rejectOpen, "session.open", "replayed_hello", ErrReplayedHello},
	{rejectOpen, "session.open", "identity_mismatch", ErrIdentityMismatch},
	{rejectOpen, "session.open", "bad_signature", ErrBadSignature},
	{rejectOpen, "session.open", "bad_mac", ErrBadMAC},
	{rejectOpen, "session.open", "session_revoked", ErrSessionRevoked},
	{rejectOpen, "session.open", "certificate_revoked", pki.ErrRevoked},
	{rejectOpen, "session.open", "certificate_expired", pki.ErrExpired},
	{rejectOpen, "session.open", "bad_certificate", pki.ErrBadCertificate},
	{rejectOpen, "session.open", "other", nil},
}

// reject counts one refusal at site under its reason (see rejectReasons) and
// returns it labelled with that row.
func (g *Gateway) reject(site rejectSite, err error) error {
	for i := range rejectReasons {
		if r := &rejectReasons[i]; r.site == site && (r.err == nil || errors.Is(err, r.err)) {
			g.rejects[i].Add(1)
			return &refusal{err, r}
		}
	}
	return err
}

// refusal is an error the gateway counted, with the row it counted under.
type refusal struct {
	error
	row *rejectReason
}

func (r *refusal) Unwrap() error { return r.error }

// RejectLabel names the confmw_gateway_rejected_total series err counted
// under as "stage/reason", or "" for an error the gateway did not count.
func RejectLabel(err error) string {
	if r := (*refusal)(nil); errors.As(err, &r) {
		return r.row.stage + "/" + r.row.reason
	}
	return ""
}

// RejectError returns the error the series RejectLabel named counts: nil for
// a catch-all or an unknown label.
func RejectError(label string) error {
	stage, reason, _ := strings.Cut(label, "/")
	for _, r := range rejectReasons {
		if r.stage == stage && r.reason == reason {
			return r.err
		}
	}
	return nil
}

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
	rows := []statRow{
		{"confmw_gateway_submitted_total", "Requests accepted by the chain.", counter, g.submitted.Load, func(s *GatewayStats, v uint64) { s.Submitted = v }, nil},
		{"confmw_gateway_ordered_total", "Transactions handed to the ordering backend.", counter, g.ordered.Load, func(s *GatewayStats, v uint64) { s.Ordered = v }, nil},
		{"confmw_revocation_sweeps_total", "Revocation syncs the gateway applied.", counter, g.sweeps.Load, func(s *GatewayStats, v uint64) { s.RevocationSweeps = v }, nil},
		{"confmw_traces_sampled_total", "Requests recorded into the trace ring.", counter, g.tracer.Sampled, func(s *GatewayStats, v uint64) { s.TracesSampled = v }, nil},
		{"confmw_revocation_epoch", "Last revocation epoch applied.", gauge, g.revocationEpoch, nil, nil},
		{"confmw_audit_log_observations", "Records in the leakage log, duplicates included: the sum of its (observer, class) pair counts.", gauge, func() uint64 { return uint64(g.auditLog.Len()) }, func(s *GatewayStats, v uint64) { s.AuditLogObservations = v }, nil},
		{"confmw_audit_log_bytes", "Bytes the leakage log's presence table holds; constant once every (observer, class) pair has been seen.", gauge, func() uint64 { return uint64(g.auditLog.Footprint()) }, func(s *GatewayStats, v uint64) { s.AuditLogBytes = v }, nil},
		{"confmw_backend_committed_blocks_total", "Blocks committed across bound platform backends.", counter, sum(func(c *backendCounters) uint64 { return c.blocks.Load() }), nil, nil},
		{"confmw_backend_committed_txs_total", "Transactions committed across bound platform backends.", counter, sum(func(c *backendCounters) uint64 { return c.txs.Load() }), nil, nil},
		{"confmw_backend_commit_errors_total", "Failed block commits across bound platform backends.", counter, sum(func(c *backendCounters) uint64 { return c.errors.Load() }), nil, nil},
	}
	// One series per reason; /statusz shows their sum.
	for i, r := range rejectReasons {
		rows = append(rows, statRow{"confmw_gateway_rejected_total", "Requests refused by the decoder or a stage, and session handshakes refused, by reason.",
			counter, g.rejects[i].Load, func(s *GatewayStats, v uint64) { s.Rejected += v },
			[]telemetry.Label{telemetry.L("stage", r.stage), telemetry.L("reason", r.reason)}})
	}
	return rows
}

// Stats snapshots gateway, per-stage, and per-backend counters.
func (g *Gateway) Stats() GatewayStats {
	stats := GatewayStats{Stages: g.chain.stats()}
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
	if err := g.chain.registerMetrics(reg); err != nil {
		return err
	}
	for _, r := range g.rows {
		m := telemetry.FuncMetric{Name: r.name, Help: r.help, Gauge: r.kind == gauge, Load: r.load}
		if err := reg.RegisterFuncs([]telemetry.FuncMetric{m}, r.labels...); err != nil {
			return err
		}
	}
	if g.sharded != nil {
		return g.sharded.RegisterMetrics(reg)
	}
	return nil
}

// Sessions returns the session manager of the chain's session stage, or
// nil when the pipeline has no session stage.
func (g *Gateway) Sessions() *SessionManager { return g.sessions }

// channelName returns a channel named by a frame's bytes or by a string as a
// string, and whether the gateway may order on it: when it has a directory,
// only on a channel the directory knows. The names the directory knows are
// interned in a table as they are first seen, so a frame's channel costs no
// allocation; only the directory's channels ever enter it, so hostile input
// grows nothing. A channel the directory does not know (or any channel of a
// gateway without a directory) gets a fresh copy.
func channelName[T string | []byte](g *Gateway, b T) (string, bool) {
	if g == nil || g.directory == nil {
		return string(b), true
	}
	if names := g.channelNames.Load(); names != nil {
		if name, ok := (*names)[string(b)]; ok { // the conversion in a map index does not allocate
			return name, true
		}
	}
	name := string(b)
	if _, err := g.directory.MemberKeys(name); err != nil {
		return name, false
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
	return name, true
}

// ServeWire is AppendWire into a reply of its own.
func (g *Gateway) ServeWire(ctx context.Context, topic string, payload []byte, transportID string) ([]byte, error) {
	return g.AppendWire(ctx, nil, topic, payload, transportID)
}

// AppendWire handles one wire message against the gateway, appending the
// reply to dst: the one way in, which the TCP edge (netedge.Server) runs for
// every frame with its outbound frame as dst. transportID names the
// connection, so sessions opened here are bound to it; a caller with none
// passes "" and its sessions stay unbound. A refusal returns dst as given
// and carries its RejectLabel, which the edge sends back. The payload slice
// is only borrowed: a binary frame decodes into the Request the chain runs,
// which aliases it zero-copy for the run, and a stage that holds a request
// past return copies what it holds into memory it owns (batchStage.Handle; the
// encrypt stage replaces the payload only outside deferred group-seal
// mode), so the edge may reuse its read buffer for the next frame. The
// Request itself is borrowed from a pool and goes back once AppendWire and
// every stage that kept it have let go (see Request).
func (g *Gateway) AppendWire(ctx context.Context, dst []byte, topic string, payload []byte, transportID string) ([]byte, error) {
	switch topic {
	case TopicSubmit:
		req := borrowRequest()
		req.TransportID = transportID
		if err := decodeRequestBinary(payload, req, g); err != nil {
			req.drop()
			return dst, fmt.Errorf("gateway %s: decode request: %w", g.name, g.reject(rejectDecode, err))
		}
		// The ID covers the payload as submitted; the encrypt stage
		// replaces it, so capture before running the chain. The digest is
		// taken once here and memoised for the stages that check or record
		// it.
		req.digestMemo, req.digestSet = req.Digest(), true
		err := g.submit(ctx, req)
		if err == nil {
			// Appended before the drop: once a group released on another
			// goroutine recycles the request, its memo is someone else's.
			id := hexID(req.digestMemo)
			dst = append(dst, id[:]...)
		}
		req.drop()
		return dst, err
	case TopicSessionOpen, TopicSessionClose:
		mgr := g.Sessions()
		if mgr == nil {
			return dst, fmt.Errorf("gateway %s: pipeline has no session stage", g.name)
		}
		if topic == TopicSessionOpen {
			return g.appendSessionOpen(mgr, dst, payload, transportID)
		}
		if len(payload) == sessionTokenBytes {
			if err := mgr.closeKey((*sessionKey)(payload), transportID); err != nil {
				return dst, fmt.Errorf("gateway %s: %w", g.name, err)
			}
		}
		return append(dst, "ok"...), nil
	case TopicRevocationNotify:
		if g.revoker == nil {
			return dst, fmt.Errorf("gateway %s: no revocation plane configured", g.name)
		}
		evicted := g.syncRevocations()
		b, err := json.Marshal(RevocationNotice{Epoch: g.revocationEpoch(), SessionsRevoked: evicted})
		if err != nil {
			return dst, fmt.Errorf("gateway %s: encode revocation notice: %w", g.name, err)
		}
		return append(dst, b...), nil
	case TopicShardRebalance:
		if g.sharded == nil {
			return dst, fmt.Errorf("gateway %s: ordering backend is not sharded", g.name)
		}
		var req RebalanceRequest
		if len(payload) > 0 {
			if err := json.Unmarshal(payload, &req); err != nil {
				return dst, fmt.Errorf("gateway %s: decode rebalance request: %w", g.name, err)
			}
		}
		var moves []ordering.Migration
		if req.Channel != "" {
			from := g.sharded.ShardFor(req.Channel)
			if err := g.sharded.Migrate(req.Channel, req.To); err != nil {
				return dst, fmt.Errorf("gateway %s: %w", g.name, err)
			}
			if from != req.To {
				moves = []ordering.Migration{{Channel: req.Channel, From: from, To: req.To}}
			}
		} else {
			skew := req.Skew
			if skew == 0 {
				skew = defaultRebalanceSkew
			}
			var err error
			moves, err = g.sharded.Rebalance(skew)
			if err != nil {
				return dst, fmt.Errorf("gateway %s: %w", g.name, err)
			}
		}
		b, err := json.Marshal(RebalanceNotice{Migrations: moves})
		if err != nil {
			return dst, fmt.Errorf("gateway %s: encode rebalance notice: %w", g.name, err)
		}
		return append(dst, b...), nil
	default:
		return dst, fmt.Errorf("gateway %s: unknown topic %q", g.name, topic)
	}
}

// appendSessionOpen runs one handshake that crossed a network, a full hello
// or a resume hello, each a 0xDC frame, and appends its reply to dst. The
// grant frame carries neither the MAC key nor the bare master secret: see
// SessionManager.open. A resume hello naming an id the manager does not hold
// is answered with the resume-miss frame — a reply, so the client can tell
// "send the full hello" from a refusal. Every refusal counts in
// confmw_gateway_rejected_total.
func (g *Gateway) appendSessionOpen(mgr *SessionManager, dst, payload []byte, transportID string) ([]byte, error) {
	hello, resumed, err := decodeHelloFrame(payload)
	if err != nil {
		return dst, fmt.Errorf("gateway %s: decode hello: %w", g.name, g.reject(rejectOpen, err))
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
	grant, key, err := mgr.openKeyed(hello, resume, transportID, true)
	if tr != nil {
		d := time.Since(tr.Start)
		tr.AddSpan("session.open", tr.Start, d, d, err)
		g.tracer.Finish(tr, err)
	}
	if errors.Is(err, errResumeUnknown) {
		return append(dst, binaryMagic, binaryKindResumeMiss), nil
	}
	if err != nil {
		return dst, g.reject(rejectOpen, err)
	}
	return appendGrant(dst, &grant, &key), nil
}

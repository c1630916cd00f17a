// Package middleware composes the library's confidentiality mechanisms into
// a single configurable pipeline, the subsystem the paper's title promises:
// a middleware through which enterprise clients submit transactions without
// hand-wiring PKI, envelope encryption, leakage accounting, and platform
// backends themselves.
//
// The building block is a Stage: an interceptor with a Name and a
// Handle(ctx, req, next) method. Stages compose into a Chain ending in a
// terminal Handler (normally the Gateway's submit-to-ordering step). A
// declarative Config — an ordered list of named stages with string
// parameters, in the spirit of Django middleware lists and Traefik
// middleware blocks — assembles a chain via Build, so deployments choose
// their confidentiality posture by configuration, not code.
//
// # Stage ordering rules
//
// Build validates stage order at construction time; a misconfigured
// pipeline is an error before the first transaction, never a silent leak:
//
//   - Stage names must be known and appear at most once.
//   - "session" must precede "authn" when both are present: token-bearing
//     requests short-circuit the full PKI check, so the cheap path must
//     run first.
//   - "encrypt" needs "authn" or "session" before it: an envelope must
//     never be sealed for a submission whose origin was not verified,
//     otherwise the pipeline would launder unauthenticated payloads into
//     member-only ciphertext.
//   - "authn" and "session" must precede "ratelimit" when present:
//     buckets are keyed by principal, and throttling unverified names lets
//     one client starve another by spoofing its identity.
//   - "retry" must precede "breaker" when both are present: each retry
//     attempt must consult the breaker, so a tripped backend fails fast
//     instead of being hammered by the retry loop.
//   - "batch" must be the final stage: it hands aggregated submissions
//     directly to the terminal handler, and any stage after it would be
//     skipped for batched requests.
//
// These rules are not a hard-coded matrix: each stage declares its own
// constraints when it registers (see "Extending the pipeline" below), and
// validate applies whatever the registry holds. StageUsage renders the
// full current rule set.
//
// The built-in stages are session (token-bound amortized authentication,
// below), authn (submitter certificate + signature verification against
// the consortium CA), encrypt (per-channel envelope encryption to member
// keys, optionally with an epoch key cache, below), audit (leakage
// accounting into internal/audit: the stage captures its entry by value at
// the audit point — the submission ID as a 32-byte array, the principal,
// whether the payload was still plaintext — and records it once the
// downstream accepts; the log copies what it is handed, so the ID is never
// a heap string), ratelimit (token bucket per principal,
// with idle buckets evicted once they would have refilled completely),
// retry (bounded backoff on transient transport errors), breaker
// (per-backend circuit breaker; requests with no backend share a
// per-channel circuit), and batch (aggregate submissions before ordering;
// group release is detached from the filling caller's cancellation, since
// buffered members were already acknowledged), plus the four privacy
// stages below.
//
// # Privacy stages
//
// Four stages lift the paper's advanced-privacy workloads out of
// hand-wired example code and into the declarative pipeline; each consumes
// a client-attached wire blob from Request.Meta (never covered by the
// request digest, carried by the request frame, size-capped before decode) and
// replaces it with a compact audit note on success:
//
//   - zkproof (mode=range, bits=1..64, optional channel filter) admits a
//     submission only with a valid Pedersen range proof binding the
//     hidden value to the request's principal and channel. Clients attach
//     one with AttachRangeProof or AttachSufficientFundsProof; failures
//     are ErrProofRequired / ErrProofInvalid.
//   - anoncred (mode=present, attrs=k=v+..., scope=...) authenticates a
//     one-show anonymous-credential presentation in place of certificate
//     authn: the gateway learns "a credentialed member" plus a
//     scope-exclusive pseudonym (stable inside the scope, unlinkable
//     across scopes) and sets it as the principal. It counts as
//     authentication for every downstream rule; clients attach with
//     AttachPresentation. Needs Env.AnonCredKey.
//   - attest (mode=tee, bind=input|output|off) admits only submissions
//     carrying a TEE attestation chained to the manufacturer key and
//     enclave measurement pinned in Env.Attestation, with the payload
//     hash-bound to the attested input or output under bind. Clients
//     attach with AttachAttestation.
//   - aggregate (mode=paillier, size=N) is a terminal collector:
//     per-channel groups of N Paillier aggregands (EncodeAggregand) are
//     acknowledged, held, and homomorphically summed; only the combined
//     ciphertext is ordered, under the "aggregated" principal with
//     contributor annotations scrubbed. Needs Env.Aggregator; the
//     collector decrypts with DecryptAggregate.
//
// # Extending the pipeline
//
// The stage set is a registry, not a closed enum. A stage registers once
// (an init function in its own file) with a declarative definition:
//
//	func init() {
//		mustRegisterStage(stageDef{
//			name:   "mystage",
//			desc:   "one-line summary for StageUsage",
//			params: []paramSpec{{"size", "group size (default 8)"}},
//			after:  []orderRule{{other: StageAuthn, why: "needs a verified principal"}},
//			build: func(p *params, sc StageConfig, env Env) (Stage, error) {
//				size := p.intVal("size", 8)
//				...
//			},
//		})
//	}
//
// The definition carries everything Config.validate and buildStage need,
// so neither has stage-specific code: declared params (unknown keys fail
// fast, listing the known ones), ordering constraints (follows — at least
// one of a set must run earlier; after/before — pairwise precedence;
// conflicts — mutual exclusion; terminal — nothing may follow), a
// countsAs alias so a stage can satisfy another's follows-requirement
// (anoncred counts as authn), and the constructor. Every constraint has a
// why string that becomes the error message, which is how the pre-registry
// error texts survived the refactor verbatim. registerStage rejects
// duplicate names, reserved characters, duplicate params, and any rule set
// that would close an ordering cycle with the stages already registered —
// a failed registration leaves no trace. The params helper wraps all
// value parsing so every bad knob reports uniformly under ErrBadConfig.
//
// Registered stages are first-class everywhere: RegisteredStages and
// StageUsage enumerate them, ParseStages compiles the compact text form
// ("session(reqauth=mac)|authn|encrypt|audit", with name=mode sugar) used
// by cmd/gateway's -stages flag, instrument wraps them into the same
// StageStats and confmw_stage_latency_seconds series as the built-ins,
// and the config test matrix exercises their declared rules.
//
// # Session lifecycle
//
// A client opens a session with a signed SessionHello: the SessionManager
// performs the full authn verification — certificate chains to the pinned
// CA key, identity matches, handshake signature verifies — once per open,
// and returns an unguessable token plus expiry. Of those checks only the
// CA's signature over the certificate is a fact about fixed bytes, and the
// manager pays for it once per certificate, not once per open: it asks a
// pki.Verifier, which remembers the certificates whose CA signature it has
// verified (a bounded set of fingerprints; see that type for what is and is
// never cached). The certificate's validity window, its revocation status
// (both checks, under revokecheck=resolve|sweep) and the hello's own
// signature — proof of possession over a fresh nonce — are checked on every
// open; the authn stage keeps a verifier of its own for certificate-bearing
// requests. The two rejections that cost nothing come first: a certificate
// that does not name the hello's principal (ErrIdentityMismatch), and a
// nonce already consumed (ErrReplayedHello, from a read-only peek — the
// nonce is recorded only after the hello verified). The hello signature covers
// a nonce and issue time; stale hellos are rejected (ErrStaleHello) and
// nonces are remembered across the freshness window (ErrReplayedHello), so
// a recorded handshake cannot be replayed to mint tokens. Subsequent submissions
// carry the token and a per-request signature over the request digest; the
// session stage binds them to the cached verified principal without
// touching the certificate again. Requests without a token pass through to
// the authn stage untouched, so one chain serves both traffic kinds.
//
// Over a network the handshake is ServeWire's, and it proves possession of
// the certified key once, not once per session: after a full hello has
// passed every check above, the manager draws a master secret, remembers it
// beside what the handshake proved, and returns it in the grant only as
// dcrypto.EncryptHybrid ciphertext under the certified key. The client's
// later opens (Handshaker: netedge.Client holds one per connection) send a
// resume hello — an HMAC under the master over a fresh nonce and issue time
// — which runs through the same freshness, replay, revocation, cap and
// binding checks and skips only the public-key work. A gateway that does
// not hold the secret (expired, evicted, revoked, restarted) says so with a
// reply, not an error, and the client falls back to the full handshake
// inside the same call. See handshake.go for the four frames and resume.go
// for the bounded table.
//
// Sessions end three ways, each observable distinctly: an explicit Close
// (token becomes unknown, ErrNoSession — indistinguishable from a forged
// token by design), the hard TTL, or the idle window (both
// ErrSessionExpired, with the session evicted on detection). The manager
// additionally sweeps expired sessions from the Open path — throttled to
// an interval, so an abandoned client population cannot grow the table
// without bound while a 100k-session open flood never pays a full table
// walk per handshake. A compromised token alone cannot forge traffic:
// every submission still needs a signature under the principal's private
// key — or, under reqauth=mac (below), a MAC under the per-session key
// from the grant.
//
// # Network edge and session binding
//
// Sessions opened over the real TCP edge (internal/netedge) are bound to
// their transport connection: OpenBound stamps the session with the
// connection's identity string, and every subsequent resolve — and a
// session.close — must present the same identity or fail with
// ErrSessionBound. A token captured in
// flight — or exfiltrated from a compromised client — is therefore
// useless from any other connection: the thief would need to hijack the
// original TCP stream itself, which TCP sequence randomization and the
// MAC on every request already guard. Sessions opened through Open (the
// in-process transport path) stay unbound and resolve from anywhere,
// preserving every pre-edge caller.
//
// Binding also gives connection teardown exact semantics: the manager
// indexes bound tokens per transport (byTransport), so EvictTransport —
// wired to the edge's connection-close hook — reaps precisely the dead
// connection's sessions without scanning the table. The eviction shows up
// in SessionStats.Evicted and confmw_sessions_evicted_total; clients that
// reconnect simply open fresh sessions. The binding check rides the
// resolve fast path as one string compare under the stripe read lock —
// no extra lock, no allocation — so the edge pays nothing for it at
// steady state.
//
// # Performance
//
// The session path exists to push steady-state per-request cost toward
// the symmetric-crypto floor; two knobs and three habits finish the job:
//
//   - reqauth (session stage parameter, "sig" default | "mac"). Under
//     "mac", Open derives a per-session HMAC-SHA256 key via HKDF — salted
//     with the handshake transcript digest, so the key is rooted in the
//     very PKI handshake it amortizes — and returns it in the
//     SessionGrant when the grant is handed over in memory. A grant that
//     crosses a network never carries it: gateway and client each derive
//     it from the handshake's master secret, which travels only sealed to
//     the certified key. Steady-state submissions then carry MACRequest output
//     instead of an ECDSA signature: a ~0.5µs pooled, allocation-free
//     verify in place of a ~80µs public-key operation. The trust argument:
//     the key is minted only after full certificate verification (or proof
//     of possession of the secret such a verification sealed), is bound to
//     one session, is derivable only by the holder of the certified private
//     key, and dies with the session — expiry, close, or revocation (a
//     revoked certificate evicts the session and with it the server's
//     copy of the key, so the fast path cannot outlive trust; see
//     BenchmarkGatewaySessionMAC and the revocation suite). Requests
//     without a MAC fall back to the signature path, so first-contact and
//     mixed populations keep working; sessionless traffic still flows
//     through the authn stage unchanged.
//   - One wire format. A submission, a session handshake message and an
//     envelope on the ledger are all 0xDC frames: length-prefixed, no
//     field names, no base64, no reflection; a request frame decodes into
//     the Request the chain runs, aliasing the inbound buffer, and encodes
//     in one exactly-sized allocation. gateway.submit and session.open
//     each run one decoder and refuse everything else — a JSON document
//     included — with ErrBadFrame; nothing is sniffed and nothing is
//     negotiated. json.Marshal of a parsed Envelope is the diffable debug
//     view. Config.Codec is not a knob: it survives, with CodecBinary and
//     SessionGrant.Codec, only under the names the repository benchmark
//     compiles against, accepts "" or "binary" and means nothing else.
//   - Striped, read-mostly caches. The session token table is sharded
//     across independent RWMutex stripes keyed by token hash, so resolve —
//     the per-request path — takes one read lock on one stripe, with idle
//     clocks and counters atomic; opens, sweeps, the per-principal cap,
//     and revocation deltas serialize on a separate control mutex. The
//     encrypt stage precomputes the per-channel associated data and the
//     sealing AEAD once per epoch, and over a GenerationalDirectory
//     (SyncDirectory is the stock implementation) caches the member-set
//     fingerprint per (channel, directory generation, exclusion
//     generation), so steady-state membership checks cost two integer
//     compares instead of a sort-and-hash. MAC computations run on
//     pooled hash states.
//   - Hash once, carry the sum. Request.Digest (middleware/request/v2)
//     commits to the payload as its length and SHA-256 instead of
//     streaming its bytes, and the request memoises that sum keyed to
//     the payload's backing array, so the digests one submission takes
//     (wire ID, MAC check, audit observation) share one pass and a
//     replaced payload can never meet a stale sum. The envelope
//     frame puts the wrapped-key table — one ephemeral key and one key
//     commitment for the epoch, a 32-byte wrap per member
//     (dcrypto.WrapToRecipients), 2.1 KB of a 2.3 KB envelope at 50
//     members — ahead of the ciphertext; the encrypt stage caches that
//     epoch-constant head and the SHA-256 state that has absorbed it,
//     seals each envelope into one allocation behind a copy of the
//     head, and resumes the cached
//     state over the ciphertext field alone — the sealed frame is never
//     streamed through SHA-256 (the uncached stage builds a throwaway
//     key per request and rides the same sealFrame). Gateway.order
//     primes the ledger transaction's digest (ledger/tx/v3, same payload
//     commitment) from the sum, and the ordering tier, block cut and
//     subscribers read that one digest.
//   - Metadata is composed once, in Gateway.order: the encrypt stage
//     notes its seal as a flag, and a request with no annotations of its
//     own gets a map built once per gateway ({"gateway"}, plus "envelope"
//     when sealed), shared by every such transaction and never written. A
//     map the pipeline made (off the wire, the batch vehicle's) is
//     annotated in place; a caller's is copied and left as it came.
//
// BenchmarkGatewaySessionMAC (root package) compares the signature and MAC
// sessions in process, and TestAllocationBudget beside it holds the
// allocation half of the claim as a test: reqauth=mac allocates at most
// half of what the signature session does (4 against 26), with or without
// the binary framing. What the path costs over a socket is the steady_mac
// workload of the repository's benchmark (BENCHMARK.json): 7 allocations a
// submission, each of them something handed on.
//
// # Channel key rotation
//
// With a key cache (encrypt parameter "keyttl" > 0), the encrypt stage
// wraps a channel data key to every member once per (channel, epoch) and
// reuses it: each submission pays one AES-GCM seal instead of one ECDH
// key-wrap per member. The key rotates onto a fresh epoch — new data
// key, new ephemeral key, new wraps — when the epoch TTL elapses, when the
// channel's member set changes in the Directory (detected by fingerprint,
// so a joiner never opens pre-join traffic and a leaver's key is dropped
// from new wraps), or on an explicit Encrypt.Rotate /
// Gateway.RotateChannelKey call (e.g. after a revocation). Envelopes
// record their epoch.
//
// # Revocation
//
// Amortizing authentication into sessions and key wraps into epochs opens
// a window: by default, trust decisions outlive the certificates they were
// rooted in. The revocation plane closes it. Env.Revoker connects the
// pipeline to a revocation authority (pki.CA implements it: a monotonic
// revocation epoch, a RevokedSince delta read, an IsRevoked point query,
// and — as a RevocationSource — an OnRevoke push hook the gateway
// subscribes to at construction and releases on Gateway.Close, so a
// gateway shorter-lived than its CA does not leak the subscription).
//
// The session stage declares its checking strategy with the "revokecheck"
// parameter, validated at Build like every other knob:
//
//   - "off" (default): sessions are never checked; a revoked certificate's
//     session lives until TTL/idle expiry.
//   - "resolve": every token resolution probes the revoker's version (one
//     lock-free load while nothing changes) and applies the delta when it
//     moved — revocation is enforced on the very next request, at a
//     measured ~1-5% of the session hot path (BenchmarkGatewayRevokeCheck,
//     held by the CI bench gate).
//   - "sweep": resolutions stay revoker-free; the delta is applied every
//     "revokesweep" (default 30s) and on push/admin notification — a
//     bounded staleness window instead of a per-request probe.
//
// Guarantees, in any checking mode but "off": opening a session with a
// revoked certificate fails with ErrSessionRevoked; a session whose
// certificate is revoked is evicted at the next delta application
// (instantly under a push-capable revoker), and its token answers
// ErrSessionRevoked — distinct from ErrNoSession and ErrSessionExpired, so
// clients can tell trust withdrawal from ordinary eviction — until the
// session's original expiry, after which the tombstone decays. Eviction is
// serial-exact: revoking a superseded certificate does not kill sessions
// rooted in its replacement. An explicit session.close always degrades the
// token to unknown, tombstone included, and closing an already-evicted
// token is an idempotent no-op with no counter skew.
//
// Envelope encryption follows the same plane independently of the session
// mode: when the gateway learns of an identity-certificate revocation (push
// from a RevocationSource, the revocation.notify admin topic, or a direct
// SyncRevocations call), the revoked identity is excluded from every
// member set before sealing and every cached channel key wrapped to it is
// invalidated, so the channel's next submission installs a fresh epoch the
// revoked member cannot unwrap. The revocation.notify topic carries no
// authority — it only triggers a pull from the configured Revoker — so it
// needs no authentication; its reply reports the epoch reached and the
// sessions evicted. Each revocation lands in the audit log as a
// ClassIdentity observation by the gateway operator
// ("revoked:<identity>#<serial>@<epoch>"), and GatewayStats exposes
// SessionsRevoked, KeyEpochsRevokedRotations, and RevocationSweeps.
//
// Routine key rotation is not a withdrawal: when the revoked serial was
// already superseded by a re-enrollment (pki.Revocation.Superseded), the
// identity keeps its envelope membership — only sessions rooted in the old
// certificate die. An identity revoked outright and later re-enrolled is
// restored with Gateway.ReadmitMember, which lifts the envelope exclusion
// and lets its channels re-key to include it on their next submission.
//
// # Sharded ordering topologies
//
// A single ordering node bounds aggregate throughput: every channel's
// block cutting funnels through one sequencer. The gateway therefore
// accepts an ordering.ShardedBackend transparently — it implements
// ordering.Backend — and Config declares the topology so misconfiguration
// fails at construction like every other knob:
//
//   - Config.Shards names the expected shard count. Zero accepts any
//     backend; a positive count requires the gateway's backend to be a
//     ShardedBackend with exactly that many shards.
//   - Config.ShardPins maps channels to explicit shard indices, overriding
//     consistent hashing for hot channels. Every index must lie inside
//     [0, Shards); the pins are installed on the backend before any
//     traffic, and a pin that would move a channel with live subscribers
//     is rejected (its block chain would fork across shards).
//
// Routing is consistent hashing over the channel name (deterministic
// across processes), so each channel is owned by exactly one shard and the
// per-channel delivery serialization the ordering layer guarantees is
// preserved unchanged; sharding divides only the cross-channel contention
// on each node's sequencer. GatewayStats.Shards exposes per-shard routed
// transactions, delivered blocks, and pinned-channel counts, alongside
// GatewayStats.Sessions (sessions opened, expired at TTL/idle, evicted by
// the per-principal cap) and GatewayStats.KeyEpochsRotated (encrypt
// data-key epoch installs) — the counters session hardening and key
// rotation are monitored by. TestGatewayShardedEndToEnd and the ordering
// package's sharded tests cover routing and pinning; the benchmark's
// replicated_failover workload runs two shards over a socket.
//
// # Observability
//
// Every stage is wrapped by an instrument layer feeding two timing views.
// StageStats.Nanos is inclusive wall time — the stage plus everything
// downstream of it, because Handle(ctx, req, next) brackets the rest of
// the chain — which is the right number for "where does a request spend
// its life" but double-counts when summed across stages.
// StageStats.ExclusiveNanos subtracts the inclusive time of the direct
// downstream calls, so the per-stage histograms
// (confmw_stage_latency_seconds{stage=...}, exported by
// Chain.RegisterMetrics / Gateway.RegisterMetrics into an
// internal/telemetry Registry) measure only the stage's own work and sum
// to the pipeline total. The subtraction is exact, not sampled, and
// handles re-entrant stages: a retry stage that calls next three times
// accumulates all three attempts as downstream (its exclusive time is the
// backoff bookkeeping), and a batch stage that absorbs a request without
// calling next at all is charged its full inclusive time, which is
// correct because batch is always the terminal stage.
//
// Metric names follow confmw_<subsystem>_<name>{labels}: stage latency
// histograms and call/error counters, gateway submitted/ordered/rejected
// totals, session lifecycle counters and the live-session gauge, the
// certificate verifiers' check and hit counters (session and authn), per-shard
// routing counters, revocation sweep and epoch series, and key-epoch
// rotation counters — one registry, one scrape. cmd/gateway serves the
// registry at /metrics (Prometheus text format 0.0.4) on the -telemetry
// listen address, next to /statusz (the GatewayStats snapshot as JSON),
// /tracez, and /debug/pprof.
//
// Sampled request tracing rides the same instrument layer at zero cost to
// unsampled requests. Config.Trace ("off" default, or a positive N)
// samples one submission in N: the gateway assigns a trace ID, each
// instrumented stage appends a span (inclusive + exclusive duration,
// error), and the finished trace lands in a bounded in-memory ring
// dumpable via /tracez. A request that arrives with a wire-carried
// TraceID — the request frame carries it as one uvarint, and the hello
// frames annotate session.open the same way —
// bypasses the sampler entirely, so a caller tracing a specific request
// always gets its trace. The TraceID is observability annotation, not
// authority: it is excluded from request digests, signatures, and MACs.
//
// The Gateway fronts the platform backends: it runs every submission
// through the chain, submits the resulting transaction to an
// internal/ordering backend, and relays cut blocks to registered platform
// adapters (Fabric, Corda, Quorum); re-binding an already-bound adapter is
// a no-op. It registers as an internal/transport endpoint serving
// gateway.submit, session.open, and session.close, running requests under
// the caller-supplied context so server-side deadlines reach the chain,
// is safe for concurrent use, and exposes per-stage Stats counters.
package middleware

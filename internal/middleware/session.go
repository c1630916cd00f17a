package middleware

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/pki"
)

// Session errors. They are distinct so clients can tell a token that never
// existed (or was evicted) from one that aged out, and either from a
// request whose per-request signature failed.
var (
	// ErrNoSession is returned for a token the manager does not hold:
	// forged, never issued, closed, or already evicted.
	ErrNoSession = errors.New("middleware: unknown session token")
	// ErrSessionExpired is returned when a held session has passed its TTL
	// or its idle window; the session is evicted as a side effect.
	ErrSessionExpired = errors.New("middleware: session expired")
	// ErrStaleHello is returned for a handshake issued outside the
	// freshness window, closing the long-horizon replay surface.
	ErrStaleHello = errors.New("middleware: session hello outside freshness window")
	// ErrReplayedHello is returned when a handshake nonce is seen twice
	// within the freshness window: a recorded hello cannot mint a second
	// token.
	ErrReplayedHello = errors.New("middleware: session hello replayed")
	// ErrSessionRevoked is returned when the certificate a session was
	// opened under has been revoked: the session is evicted, and requests
	// carrying its token are rejected with this error (not ErrNoSession)
	// until the token's original expiry, so clients can tell trust
	// withdrawal from ordinary eviction. Opening a session with an
	// already-revoked certificate fails the same way. Eviction also
	// destroys the session's MAC key, so a revoked client's symmetric
	// fast path dies with its session.
	ErrSessionRevoked = errors.New("middleware: session certificate revoked")
	// ErrSessionBound is returned when a token minted on one transport
	// connection is presented over a different one (or over a transport
	// with no connection identity at all). Sessions opened through
	// OpenBound are pinned to the connection that performed the handshake,
	// so a stolen or replayed token is useless anywhere else; the session
	// itself stays live for its rightful connection.
	ErrSessionBound = errors.New("middleware: session token bound to another connection")
)

// RequestAuthMode selects how the session stage authenticates token-bearing
// requests in steady state.
type RequestAuthMode int

const (
	// AuthSig (the default) verifies an ECDSA signature over the request
	// digest against the session's cached certified key on every request.
	AuthSig RequestAuthMode = iota
	// AuthMAC verifies an HMAC over the request digest under the
	// per-session symmetric key handed out in the SessionGrant — roughly
	// two orders of magnitude cheaper than an ECDSA verify. Requests
	// without a MAC still fall back to the signature path, so first-contact
	// and mixed client populations keep working.
	AuthMAC
)

// String implements fmt.Stringer (config error messages).
func (m RequestAuthMode) String() string {
	switch m {
	case AuthSig:
		return "sig"
	case AuthMAC:
		return "mac"
	default:
		return fmt.Sprintf("RequestAuthMode(%d)", int(m))
	}
}

// ParseRequestAuthMode parses the "reqauth" config parameter.
func ParseRequestAuthMode(s string) (RequestAuthMode, error) {
	switch s {
	case "sig":
		return AuthSig, nil
	case "mac":
		return AuthMAC, nil
	default:
		return AuthSig, fmt.Errorf("unknown request auth mode %q (want sig or mac)", s)
	}
}

// SessionHello is the signed handshake a client sends to open a session:
// the full Authn verification (certificate chain + signature) is paid once
// here instead of on every submission. The signature covers the nonce and
// issue time, so a recorded hello cannot be replayed: the manager rejects
// stale issue times outright and remembers nonces within the freshness
// window.
type SessionHello struct {
	Principal string            `json:"principal"`
	Nonce     []byte            `json:"nonce"`
	IssuedAt  time.Time         `json:"issuedAt"`
	Cert      pki.Certificate   `json:"cert"`
	Sig       dcrypto.Signature `json:"sig"`
	// TraceID optionally carries the client's trace identifier so a traced
	// client flow records its session handshake too. It is not covered by
	// the handshake signature: it annotates observability, not authority —
	// tampering can at worst mislabel a trace.
	TraceID uint64 `json:"trace,omitempty"`
}

// SessionGrant is the manager's reply to an accepted handshake.
type SessionGrant struct {
	Token     string    `json:"token"`
	Principal string    `json:"principal"`
	ExpiresAt time.Time `json:"expiresAt"`
	// MacKey is the per-session request-authentication key, present only
	// when the manager runs reqauth=mac. It is derived via HKDF with the
	// handshake transcript digest as salt, so the key is cryptographically
	// bound to the handshake that opened the session. It never crosses a
	// network: an in-process Open returns it here, and a grant that travelled
	// (ServeWire) leaves it empty for the client to derive from the master
	// secret (Handshaker does). The server's copy dies with the session
	// (expiry, close, or revocation).
	MacKey []byte `json:"macKey,omitempty"`
	// Codec is kept under the name the repository benchmark calls: a grant
	// decoded off the wire reads CodecBinary, the one request framing.
	Codec string `json:"codec,omitempty"`
	// MacAuth says the gateway authenticates this session's requests by MAC
	// (reqauth=mac), i.e. that there is a MacKey to derive.
	MacAuth bool `json:"macAuth,omitempty"`
	// ResumeID and Sealed are set on the grant of a full handshake that
	// crossed a network: the master secret encrypted to the certified key
	// (dcrypto.EncryptHybrid, the hello's transcript digest as associated
	// data), and the id a later resume hello names it by.
	ResumeID []byte                    `json:"resumeId,omitempty"`
	Sealed   *dcrypto.HybridCiphertext `json:"sealed,omitempty"`
	// Resumed marks a session opened by a resume hello.
	Resumed bool `json:"resumed,omitempty"`
}

// helloDigest is the canonical signed content of a handshake.
func helloDigest(principal string, nonce []byte, issuedAt time.Time) [32]byte {
	return dcrypto.HashConcat(
		[]byte("middleware/session/hello/v1"),
		[]byte(principal),
		nonce,
		[]byte(issuedAt.UTC().Format(time.RFC3339Nano)),
	)
}

// helloFreshness bounds how old (or future-dated, for clock skew) a
// handshake may be; nonces are remembered for this window, so a recorded
// hello can never mint a second token.
const helloFreshness = 2 * time.Minute

// NewSessionHello builds and signs a handshake for a principal, stamped
// with the wall clock.
func NewSessionHello(principal string, cert pki.Certificate, key *dcrypto.PrivateKey) (SessionHello, error) {
	return NewSessionHelloAt(principal, cert, key, time.Now())
}

// NewSessionHelloAt builds and signs a handshake with an explicit issue
// time, for callers running on an injected clock.
func NewSessionHelloAt(principal string, cert pki.Certificate, key *dcrypto.PrivateKey, at time.Time) (SessionHello, error) {
	nonce, err := dcrypto.RandomBytes(helloNonceBytes)
	if err != nil {
		return SessionHello{}, fmt.Errorf("middleware: hello nonce: %w", err)
	}
	d := helloDigest(principal, nonce, at)
	sig, err := key.Sign(d[:])
	if err != nil {
		return SessionHello{}, fmt.Errorf("middleware: sign hello: %w", err)
	}
	return SessionHello{Principal: principal, Nonce: nonce, IssuedAt: at, Cert: cert, Sig: sig}, nil
}

// sessionTokenBytes is the entropy of a session token (hex-encoded on the
// wire), far beyond guessability.
const sessionTokenBytes = 32

// session is one established client session: the verified principal and
// its certified key, cached so subsequent requests skip PKI verification.
// serial is the certificate the trust was rooted in at Open, the handle
// revocation checks match against. lastUsed is atomic unix-nanos so the
// resolve fast path can touch the idle clock under a read lock.
type session struct {
	// token is the table key, kept so the wire decoder can hand a request
	// the session's own string instead of allocating one per frame.
	token     string
	principal string
	key       dcrypto.PublicKey
	// macKey is the per-session HMAC verifier (reqauth=mac), its pads
	// precomputed once at Open so the per-request check skips their
	// derivation; held by value, so the session record is the one
	// allocation it costs. Zero, and never handed out, under reqauth=sig.
	macKey dcrypto.MACKey
	serial uint64
	// boundTo pins the session to the transport connection that opened it
	// (OpenBound); empty for unbound sessions. resolve rejects any other
	// connection's TransportID with ErrSessionBound.
	boundTo   string
	openedAt  time.Time
	expiresAt time.Time
	lastUsed  atomic.Int64
}

// sessionStripeCount divides the token table into independently locked
// stripes so concurrent resolves on different tokens never contend on one
// mutex. Power of two, sized past any plausible core count.
const sessionStripeCount = 32

// sessionStripe is one lock stripe of the token table: its own sessions,
// its own revocation tombstones, its own RWMutex. The resolve hot path
// touches exactly one stripe, read-locked.
type sessionStripe struct {
	mu       sync.RWMutex
	sessions map[string]*session
	// revoked are tombstones for sessions evicted by revocation: their
	// tokens answer ErrSessionRevoked (not ErrNoSession) until the
	// session's original expiry, so a revoked client sees why it was cut
	// off. Keyed by token, valued by forget-after time. An explicit Close
	// clears the tombstone.
	revoked map[string]time.Time
}

// stripeFor hashes a token onto its stripe: FNV-1a over the first 8 token
// bytes plus the length. Genuine tokens are uniformly random hex, so an
// 8-byte prefix already carries 32 bits of stripe entropy against
// sessionStripeCount = 32 stripes; bounding the scan keeps the per-request
// hash O(1) in token length (tokens are 64 hex chars, and this sits on the
// resolve hot path).
func (m *SessionManager) stripeFor(token string) *sessionStripe {
	return &m.stripes[stripeIndex(token)]
}

// stripeIndex is stripeFor's hash, over a token held as a string or as the
// bytes of a frame.
func stripeIndex[T string | []byte](token T) uint32 {
	h := uint32(2166136261)
	n := len(token)
	if n > 8 {
		n = 8
	}
	for i := 0; i < n; i++ {
		h = (h ^ uint32(token[i])) * 16777619
	}
	h = (h ^ uint32(len(token))) * 16777619
	return h & (sessionStripeCount - 1)
}

// names returns the token and principal of a frame as strings: the held
// session's own when the bytes name one, fresh copies otherwise. It
// authenticates nothing — resolve does, on the strings it returns — and
// exists so that the session fast path allocates neither.
func (m *SessionManager) names(token, principal []byte) (string, string) {
	st := &m.stripes[stripeIndex(token)]
	st.mu.RLock()
	s := st.sessions[string(token)] // the conversion in a map index does not allocate
	st.mu.RUnlock()
	switch {
	case s == nil:
		return string(token), string(principal)
	case s.principal == string(principal):
		return s.token, s.principal
	default:
		return s.token, string(principal)
	}
}

// SessionManager establishes and resolves gateway sessions. Opening a
// session performs the full certificate verification the authn stage would;
// afterwards, requests carrying the session token are bound to the cached
// verified principal by a per-request signature (reqauth=sig) or
// per-session HMAC (reqauth=mac) over the request digest. Sessions die at
// their TTL, or earlier when idle longer than the idle window. Safe for
// concurrent use: the token table is striped across independent RWMutexes,
// so resolve — the per-request hot path — takes one read lock on one
// stripe, while the control plane (open, close, sweeps, revocation deltas,
// the per-principal index) serializes on a separate mutex.
type SessionManager struct {
	// certs checks handshake certificates against the pinned CA key and
	// remembers the ones whose CA signature it has verified, so only an
	// identity's first handshake pays that verification. Expiry, revocation
	// and the hello's own signature are checked on every open regardless.
	certs           *pki.Verifier
	ttl             time.Duration
	idle            time.Duration
	maxPerPrincipal int
	reqauth         RequestAuthMode
	now             func() time.Time
	// defaultClock marks now as the package default (coarseNow): only then
	// may the session stage stamp its reading onto requests for downstream
	// stages on the same clock to reuse.
	defaultClock bool

	// Revocation plane, fixed at construction (WithRevocationChecks).
	revoker       Revoker
	revMode       RevokeCheckMode
	revSweepEvery time.Duration

	// sweepEvery throttles the Open-path table sweep: a full sweep walks
	// every stripe, so running one per open makes opens O(live sessions)
	// and a 100k-session edge quadratic. Expiry enforcement does not
	// depend on the sweep — resolve rejects and evicts stale tokens
	// itself — so the sweep is pure table hygiene and an interval bound
	// keeps it amortized O(1) per open. Derived from ttl/idle at
	// construction; lastSweep is guarded by mu.
	sweepEvery time.Duration
	lastSweep  time.Time

	// stripes is the token table. Lock order: mu (when needed) strictly
	// before any stripe lock; never acquire mu while holding a stripe.
	stripes [sessionStripeCount]sessionStripe

	// mu guards the control plane: the per-principal index and the
	// handshake nonce table. The resolve hot path never takes it.
	mu sync.Mutex
	// byPrincipal indexes live session tokens (and their open times, for
	// cap eviction) per principal, so neither the per-principal cap nor a
	// revocation delta ever scans other principals' sessions. Kept in
	// lockstep with the stripes under mu.
	byPrincipal map[string]map[string]time.Time
	// byTransport indexes bound session tokens per transport connection,
	// so EvictTransport (the connection-close path) reaps exactly the dead
	// connection's sessions without scanning the stripes. Kept in lockstep
	// with the stripes under mu; unbound sessions never appear here.
	byTransport map[string]map[string]bool
	// seenNonces remembers handshake nonces until their freshness window
	// closes, so a recorded hello cannot be replayed to mint a second
	// token. Keyed by the nonce itself (every hello's is helloNonceBytes),
	// valued by forget-after time in unix nanos: an entry is a fixed 24
	// bytes, and only a verified hello plants one.
	seenNonces map[[helloNonceBytes]byte]int64
	// resumes remembers what full handshakes over the wire proved, so a
	// returning principal proves possession of its master secret instead of
	// its private key. Bounded; guarded by mu.
	resumes resumeTable

	// revEpoch is the last revocation epoch applied; lastRevSweep stamps
	// the last delta application (unix nanos) for the sweep-mode interval
	// check. Both atomic so resolve-mode probes and sweep-mode interval
	// checks stay lock-free while nothing changed.
	revEpoch     atomic.Uint64
	lastRevSweep atomic.Int64

	// Lifecycle counters; atomic so hot-path evictions skip mu.
	opened  atomic.Uint64
	expired atomic.Uint64
	evicted atomic.Uint64
	revoked atomic.Uint64
	// resumed counts sessions opened by a resume hello (also in opened),
	// resumeMisses resume hellos naming an id the table did not hold.
	resumed      atomic.Uint64
	resumeMisses atomic.Uint64
}

// SessionStats is a snapshot of the manager's lifecycle counters, the
// numbers "session hardening at scale" watches.
type SessionStats struct {
	// Live is the number of held sessions (including any not yet swept).
	Live int
	// Opened counts sessions granted over the manager's lifetime.
	Opened uint64
	// Expired counts sessions evicted at their TTL or idle window.
	Expired uint64
	// Evicted counts sessions displaced by the per-principal cap.
	Evicted uint64
	// Revoked counts sessions evicted because their certificate was
	// revoked (never double-counted with Expired or Evicted).
	Revoked uint64
	// CertVerifications counts the CA signature checks handshakes cost,
	// CertCacheHits the handshakes whose certificate was already in the
	// manager's verified set (pki.Verifier). A handshake refused before
	// its certificate is looked at — stale, mismatched, replayed — counts
	// in neither.
	CertVerifications uint64
	CertCacheHits     uint64
	// Resumed counts sessions opened by a resume hello (they are in Opened
	// too), ResumeMisses the resume hellos that named an id the manager did
	// not hold and were sent back to the full handshake, ResumeEntries the
	// resumption table's current size.
	Resumed       uint64
	ResumeMisses  uint64
	ResumeEntries int
}

// SessionOption configures a SessionManager beyond the required fields.
type SessionOption func(*SessionManager)

// WithMaxPerPrincipal caps live sessions per principal: opening a session
// beyond the cap evicts the principal's oldest session. n <= 0 means
// unlimited, the default.
func WithMaxPerPrincipal(n int) SessionOption {
	return func(m *SessionManager) {
		if n > 0 {
			m.maxPerPrincipal = n
		}
	}
}

// WithRequestAuth selects how token-bearing requests are authenticated in
// steady state: AuthSig (default) per-request ECDSA, AuthMAC per-session
// HMAC with the key handed out in the grant. The config parameter form is
// "reqauth" on the session stage.
func WithRequestAuth(mode RequestAuthMode) SessionOption {
	return func(m *SessionManager) { m.reqauth = mode }
}

// defaultRevokeSweep is the sweep-mode interval when none is configured.
const defaultRevokeSweep = 30 * time.Second

// WithRevocationChecks wires the manager to a revocation plane. In mode
// RevokeCheckResolve every token resolution probes the revoker's version
// and applies the delta when it moved; in RevokeCheckSweep the delta is
// applied every sweepEvery (<= 0 defaults to 30s) and on SweepRevoked
// calls (the push/admin-notification path). Either way, opening a session
// with a revoked certificate fails, evicted tokens answer
// ErrSessionRevoked until their original expiry, and evictions are counted
// in SessionStats.Revoked. Mode RevokeCheckOff ignores the revoker.
func WithRevocationChecks(r Revoker, mode RevokeCheckMode, sweepEvery time.Duration) SessionOption {
	return func(m *SessionManager) {
		m.revoker = r
		m.revMode = mode
		if sweepEvery <= 0 {
			sweepEvery = defaultRevokeSweep
		}
		m.revSweepEvery = sweepEvery
	}
}

// NewSessionManager creates a manager pinned to the consortium CA key.
// ttl bounds total session lifetime; idle evicts sessions unused that long.
func NewSessionManager(caKey dcrypto.PublicKey, ttl, idle time.Duration, now func() time.Time, opts ...SessionOption) (*SessionManager, error) {
	if caKey.IsZero() {
		return nil, errors.New("middleware: session manager needs the CA key")
	}
	if ttl <= 0 || idle <= 0 {
		return nil, fmt.Errorf("middleware: session ttl and idle must be positive, got ttl=%v idle=%v", ttl, idle)
	}
	defaultClock := now == nil
	if defaultClock {
		// The default clock is the cheap monotonic-anchored one: resolve
		// reads it on every authenticated request.
		now = coarseNow
	}
	m := &SessionManager{
		certs:        pki.NewVerifier(caKey),
		ttl:          ttl,
		idle:         idle,
		now:          now,
		defaultClock: defaultClock,
		byPrincipal:  make(map[string]map[string]time.Time),
		byTransport:  make(map[string]map[string]bool),
		seenNonces:   make(map[[helloNonceBytes]byte]int64),
	}
	for i := range m.stripes {
		m.stripes[i].sessions = make(map[string]*session)
		m.stripes[i].revoked = make(map[string]time.Time)
	}
	for _, opt := range opts {
		opt(m)
	}
	if m.revMode != RevokeCheckOff && m.revoker == nil {
		return nil, fmt.Errorf("middleware: revocation checks (%v) need a revoker", m.revMode)
	}
	// A quarter of the shortest lifetime keeps test clocks (millisecond
	// ttls) sweeping on practically every open, while production windows
	// (minutes) settle at the one-second cap.
	m.sweepEvery = m.ttl
	if m.idle < m.sweepEvery {
		m.sweepEvery = m.idle
	}
	m.sweepEvery /= 4
	if m.sweepEvery > time.Second {
		m.sweepEvery = time.Second
	}
	m.lastRevSweep.Store(m.now().UnixNano())
	return m, nil
}

// RequestAuth reports the steady-state request authentication mode.
func (m *SessionManager) RequestAuth() RequestAuthMode { return m.reqauth }

// sessionMACInfo labels the HKDF derivation of per-session request keys.
const sessionMACInfo = "middleware/session/mac/v1/"

// Open verifies the handshake exactly as the authn stage verifies a
// request — certificate chains to the CA, identity matches, signature
// verifies against the certified key — and issues an unguessable token.
// Under reqauth=mac the grant additionally carries a per-session HMAC key,
// derived via HKDF salted with the handshake transcript digest so the
// symmetric fast path stays rooted in the PKI handshake it amortizes.
// Sessions opened this way are unbound: the token works from any transport.
func (m *SessionManager) Open(hello SessionHello) (SessionGrant, error) {
	return m.OpenBound(hello, "")
}

// OpenBound is Open with the token pinned to a transport connection
// identity: every subsequent resolve must present the same TransportID or
// fail with ErrSessionBound, so a token captured in flight (or leaked by a
// client) cannot be replayed over a different connection. The TCP edge
// opens every session this way, stamping each connection's identity; an
// empty transportID degrades to an unbound Open. Connection teardown
// should call EvictTransport to reap the bound sessions.
//
// This is the in-process handshake: the grant is handed over in memory, so
// it carries the MAC key itself, nothing is sealed and nothing is remembered
// for resumption. The handshake that crosses a network is ServeWire's.
func (m *SessionManager) OpenBound(hello SessionHello, transportID string) (SessionGrant, error) {
	return m.open(&hello, nil, transportID, false)
}

// open runs one handshake, full (hello) or resumed (resume); exactly one of
// the two is set. The two differ only in how the caller proves who it is — a
// certificate and a signature over the transcript, or an HMAC over it under
// the master secret an earlier full handshake sealed to the certified key.
// Everything else is one path: the freshness window, the nonce memory, the
// validity and revocation checks on this call's clock, the per-principal
// cap, the transport binding, the counters.
//
// wire says the grant will cross a network: a full handshake then draws a
// master secret, remembers it for resumption and returns it only sealed to
// the certified key, and no grant carries the MAC key — both sides derive it
// from the master. Resumed handshakes are wire handshakes by construction.
func (m *SessionManager) open(hello *SessionHello, resume *resumeHello, transportID string, wire bool) (SessionGrant, error) {
	now := m.now()
	var nonce [helloNonceBytes]byte
	var issuedAt time.Time
	if resume != nil {
		nonce, issuedAt = resume.Nonce, resume.IssuedAt
	} else {
		// A frame with another length never gets here (decodeHelloFrame);
		// an in-process hello is held to the same rule.
		var err error
		if nonce, err = helloNonce(hello.Nonce); err != nil {
			return SessionGrant{}, err
		}
		issuedAt = hello.IssuedAt
	}
	if issuedAt.Before(now.Add(-helloFreshness)) || issuedAt.After(now.Add(helloFreshness)) {
		return SessionGrant{}, fmt.Errorf("%w: issued %v, now %v", ErrStaleHello, issuedAt, now)
	}
	// The rejection that costs nothing comes before any other work.
	if hello != nil && hello.Cert.Identity != hello.Principal {
		return SessionGrant{}, fmt.Errorf("%w: cert for %q, hello by %q",
			ErrIdentityMismatch, hello.Cert.Identity, hello.Principal)
	}
	// A replayed hello is byte-identical to one already consumed, so it would
	// pass every check below only to be refused at the insert. This peek only
	// reads: the nonce is recorded after verification, under the same lock as
	// the authoritative check, so an unverified hello cannot plant one. An
	// entry the sweep has yet to forget is left to that check.
	var known *resumeEntry
	m.mu.Lock()
	forgetAfter, seen := m.seenNonces[nonce]
	if resume != nil {
		known = m.resumes.get(resume.ID, now)
	}
	m.mu.Unlock()
	if seen && now.UnixNano() <= forgetAfter {
		return SessionGrant{}, fmt.Errorf("%w: nonce %x", ErrReplayedHello, nonce)
	}

	// The proof of identity: who is opening, under which certificate, and
	// the transcript digest the session's MAC key is salted with.
	var (
		principal string
		serial    uint64
		key       dcrypto.PublicKey
		digest    [32]byte
	)
	if resume != nil {
		// An entry is looked up with this call's clock, so one past the
		// session ttl or its certificate's NotAfter is already gone.
		if known == nil {
			m.resumeMisses.Add(1)
			return SessionGrant{}, errResumeUnknown
		}
		digest = resumeDigest(resume.ID, nonce, issuedAt)
		if dcrypto.VerifyMAC(known.master[:], digest[:], resume.Tag) != nil {
			return SessionGrant{}, fmt.Errorf("%w: resume hello for %s", ErrBadMAC, known.identity)
		}
		principal, serial, key = known.identity, known.serial, known.key
	} else {
		if err := m.certs.Verify(hello.Cert, now); err != nil {
			return SessionGrant{}, fmt.Errorf("session open %s: %w", hello.Principal, err)
		}
		principal, serial = hello.Principal, hello.Cert.Serial
		digest = helloDigest(hello.Principal, hello.Nonce, hello.IssuedAt)
	}
	// A revoked certificate cannot root a new session, whatever the check
	// mode does to established ones — and whether or not the verifier or the
	// resumption table has seen the certificate before: revocation is never
	// cached. This unlocked check is the cheap fast-fail; the authoritative
	// re-check runs under the control lock below, so a revocation sweeping
	// between here and the insert cannot slip a revoked serial into the table.
	if m.revMode != RevokeCheckOff && m.revoker.IsRevoked(serial) {
		return SessionGrant{}, fmt.Errorf("%w: open by %s (serial %d)", ErrSessionRevoked, principal, serial)
	}
	if hello != nil {
		var err error
		if key, err = hello.Cert.Key(); err != nil {
			return SessionGrant{}, fmt.Errorf("session open %s: %w", principal, err)
		}
		if err := key.Verify(digest[:], hello.Sig); err != nil {
			return SessionGrant{}, fmt.Errorf("%w: session hello by %s", ErrBadSignature, principal)
		}
	}

	// The token is drawn into a stack array and hex-encoded once, into the
	// string the table keys on and the grant carries.
	var raw [sessionTokenBytes]byte
	if _, err := rand.Read(raw[:]); err != nil {
		return SessionGrant{}, fmt.Errorf("session token: %w", err)
	}
	var hexToken [2 * sessionTokenBytes]byte
	hex.Encode(hexToken[:], raw[:])
	token := string(hexToken[:])
	expires := now.Add(m.ttl)
	grant := SessionGrant{Token: token, Principal: principal, ExpiresAt: expires, Resumed: resume != nil}

	// The secret the MAC key is derived from: the remembered master of a
	// resumed handshake, a fresh one otherwise — which a wire handshake
	// remembers and seals, and an in-process one uses once and forgets.
	var secret []byte
	var fresh *resumeEntry
	var err error
	switch {
	case resume != nil:
		secret = known.master[:]
	case wire || m.reqauth == AuthMAC:
		if secret, err = dcrypto.RandomBytes(masterBytes); err != nil {
			return SessionGrant{}, fmt.Errorf("session master secret: %w", err)
		}
	}
	if hello != nil && wire {
		id, err := dcrypto.RandomBytes(resumeIDBytes)
		if err != nil {
			return SessionGrant{}, fmt.Errorf("session resume id: %w", err)
		}
		// The transcript digest as associated data ties the sealed secret to
		// this hello: a grant recorded off the wire opens under no other. (A
		// copy, so that only this branch pays for the one that escapes.)
		ad := digest
		sealed, err := dcrypto.EncryptHybrid(key, secret, ad[:])
		if err != nil {
			return SessionGrant{}, fmt.Errorf("session open %s: seal master secret: %w", principal, err)
		}
		fresh = &resumeEntry{identity: principal, serial: serial, key: key, expires: expires}
		if hello.Cert.NotAfter.Before(expires) {
			fresh.expires = hello.Cert.NotAfter
		}
		copy(fresh.master[:], secret)
		grant.ResumeID, grant.Sealed = id, &sealed
	}
	s := &session{
		token:     token,
		principal: principal,
		key:       key,
		serial:    serial,
		boundTo:   transportID,
		openedAt:  now,
		expiresAt: expires,
	}
	if m.reqauth == AuthMAC {
		mac, err := sessionMACKey(secret, digest, token)
		if err != nil {
			return SessionGrant{}, err
		}
		s.macKey = *dcrypto.NewMACKey(mac[:])
		grant.MacAuth = true
		if !wire {
			grant.MacKey = append([]byte(nil), mac[:]...)
		}
	}
	s.lastUsed.Store(now.UnixNano())

	// A verified hello is consumed: its nonce is remembered until every
	// copy of it has gone stale, so replaying it cannot mint a token. Two
	// copies racing past the peek above meet here, and one loses.
	m.mu.Lock()
	defer m.mu.Unlock()
	if now.Sub(m.lastSweep) >= m.sweepEvery {
		m.sweepLocked(now)
		m.lastSweep = now
	}
	if _, seen := m.seenNonces[nonce]; seen {
		return SessionGrant{}, fmt.Errorf("%w: nonce %x", ErrReplayedHello, nonce)
	}
	m.seenNonces[nonce] = issuedAt.Add(2 * helloFreshness).UnixNano()
	// Authoritative revocation re-check, under the same lock revocation
	// deltas are applied with: a Revoke that landed after the unlocked
	// check above has either already been applied (we must not insert a
	// session its sweep can no longer see) or will be applied later (and
	// will then evict the insert by serial). Either way no revoked serial
	// survives — in the session table or the resumption table.
	if m.revMode != RevokeCheckOff && m.revoker.IsRevoked(serial) {
		return SessionGrant{}, fmt.Errorf("%w: open by %s (serial %d)", ErrSessionRevoked, principal, serial)
	}
	m.capPrincipalLocked(principal)
	m.opened.Add(1)
	if resume != nil {
		m.resumed.Add(1)
	}
	if fresh != nil {
		m.resumes.put([resumeIDBytes]byte(grant.ResumeID), fresh)
	}
	st := m.stripeFor(token)
	st.mu.Lock()
	st.sessions[token] = s
	st.mu.Unlock()
	set := m.byPrincipal[principal]
	if set == nil {
		set = make(map[string]time.Time)
		m.byPrincipal[principal] = set
	}
	set[token] = now
	if transportID != "" {
		conns := m.byTransport[transportID]
		if conns == nil {
			conns = make(map[string]bool)
			m.byTransport[transportID] = conns
		}
		conns[token] = true
	}
	return grant, nil
}

// Close ends a session. Closing an unknown token is a no-op: the token may
// already have been evicted by expiry, the per-principal cap, or a
// revocation sweep — a client draining its sessions must never see an
// error or skew a lifecycle counter for losing that race. Closing a
// revocation-tombstoned token clears the tombstone, so an explicitly
// closed token degrades to ErrNoSession like any other closed one.
func (m *SessionManager) Close(token string) {
	m.mu.Lock()
	st := m.stripeFor(token)
	st.mu.Lock()
	m.closeLocked(st, token)
	st.mu.Unlock()
	m.mu.Unlock()
}

// CloseFrom is Close for a request that arrived over a transport
// connection: a bound session closes only from the connection it is bound
// to. From anywhere else it answers ErrSessionBound and the session stays
// live for its rightful connection — a captured token can no more end a
// session than use it. Unbound sessions close from anywhere.
func (m *SessionManager) CloseFrom(token, transportID string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.stripeFor(token)
	st.mu.Lock()
	defer st.mu.Unlock()
	if s, ok := st.sessions[token]; ok && s.boundTo != "" && s.boundTo != transportID {
		return ErrSessionBound
	}
	m.closeLocked(st, token)
	return nil
}

// closeLocked removes the token's session and tombstone. Called with mu AND
// the token's stripe lock held.
func (m *SessionManager) closeLocked(st *sessionStripe, token string) {
	if s, ok := st.sessions[token]; ok {
		m.deleteSessionLocked(st, token, s)
	}
	delete(st.revoked, token)
}

// deleteSessionLocked removes a session from its stripe and the
// per-principal index. Called with mu AND the token's stripe lock held.
func (m *SessionManager) deleteSessionLocked(st *sessionStripe, token string, s *session) {
	delete(st.sessions, token)
	if set := m.byPrincipal[s.principal]; set != nil {
		delete(set, token)
		if len(set) == 0 {
			delete(m.byPrincipal, s.principal)
		}
	}
	if s.boundTo != "" {
		if conns := m.byTransport[s.boundTo]; conns != nil {
			delete(conns, token)
			if len(conns) == 0 {
				delete(m.byTransport, s.boundTo)
			}
		}
	}
}

// EvictTransport evicts every session bound to the transport connection —
// the connection-teardown path: a closed TCP connection's sessions can
// never be used again (their tokens answer ErrSessionBound everywhere
// else), so the edge reaps them immediately instead of waiting out the
// idle window. Evictions count in SessionStats.Evicted. Returns how many
// sessions died. Trivial for transports that never bound a session.
func (m *SessionManager) EvictTransport(transportID string) int {
	if transportID == "" {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for token := range m.byTransport[transportID] {
		st := m.stripeFor(token)
		st.mu.Lock()
		if s, ok := st.sessions[token]; ok {
			m.deleteSessionLocked(st, token, s)
			m.evicted.Add(1)
			n++
		}
		st.mu.Unlock()
	}
	delete(m.byTransport, transportID)
	return n
}

// resolve returns the verified principal, certified key, and (under
// reqauth=mac) precomputed session MAC verifier bound to a token, touching
// its idle clock.
// This is the gateway's per-request hot path: one read lock on one stripe,
// no control-plane mutex, no allocation. Expired or idle sessions are
// evicted via a write-locked slow path, and the revocation plane is
// consulted per the configured mode: resolve mode probes the revoker's
// version on every call (one atomic load when nothing changed), sweep mode
// only applies the delta when the sweep interval has elapsed.
// transportID is the connection identity the token arrived over; a
// bound session resolves only for its own connection (ErrSessionBound
// otherwise, without touching the idle clock — a replay must not keep the
// victim's session warm).
func (m *SessionManager) resolve(token, transportID string) (string, dcrypto.PublicKey, *dcrypto.MACKey, error) {
	return m.resolveAt(m.now(), token, transportID)
}

// resolveAt is resolve with the caller's clock reading: the session stage
// reads the clock once per request and shares the value between resolve and
// the stamp it leaves for downstream stages.
func (m *SessionManager) resolveAt(now time.Time, token, transportID string) (string, dcrypto.PublicKey, *dcrypto.MACKey, error) {
	switch m.revMode {
	case RevokeCheckResolve:
		if m.revoker.RevocationVersion() != m.revEpoch.Load() {
			m.applyRevocationDelta(now)
		}
	case RevokeCheckSweep:
		if now.UnixNano()-m.lastRevSweep.Load() >= int64(m.revSweepEvery) {
			m.applyRevocationDelta(now)
		}
	}
	st := m.stripeFor(token)
	st.mu.RLock()
	// The len guard skips hashing the token against an empty tombstone
	// table — the steady state of a deployment with no recent revocations.
	if len(st.revoked) > 0 {
		if forgetAfter, tombstoned := st.revoked[token]; tombstoned {
			st.mu.RUnlock()
			if now.After(forgetAfter) {
				st.mu.Lock()
				if forgetAfter, still := st.revoked[token]; still && now.After(forgetAfter) {
					delete(st.revoked, token)
				}
				st.mu.Unlock()
				return "", dcrypto.PublicKey{}, nil, ErrNoSession
			}
			return "", dcrypto.PublicKey{}, nil, ErrSessionRevoked
		}
	}
	s, ok := st.sessions[token]
	if !ok {
		st.mu.RUnlock()
		return "", dcrypto.PublicKey{}, nil, ErrNoSession
	}
	nowNanos := now.UnixNano()
	if now.After(s.expiresAt) || nowNanos-s.lastUsed.Load() > int64(m.idle) {
		st.mu.RUnlock()
		m.evictExpired(st, token, now)
		return "", dcrypto.PublicKey{}, nil, ErrSessionExpired
	}
	if s.boundTo != "" && s.boundTo != transportID {
		st.mu.RUnlock()
		return "", dcrypto.PublicKey{}, nil, ErrSessionBound
	}
	// Concurrent stores race benignly: every racer writes "about now".
	s.lastUsed.Store(nowNanos)
	principal, key := s.principal, s.key
	var mac *dcrypto.MACKey
	if m.reqauth == AuthMAC {
		mac = &s.macKey
	}
	st.mu.RUnlock()
	return principal, key, mac, nil
}

// evictExpired upgrades to the write-locked slow path after resolve saw a
// session past its TTL or idle window, rechecking under the locks (a
// concurrent Close or sweep may have beaten us here).
func (m *SessionManager) evictExpired(st *sessionStripe, token string, now time.Time) {
	m.mu.Lock()
	st.mu.Lock()
	if s, ok := st.sessions[token]; ok &&
		(now.After(s.expiresAt) || now.UnixNano()-s.lastUsed.Load() > int64(m.idle)) {
		m.deleteSessionLocked(st, token, s)
		m.expired.Add(1)
	}
	st.mu.Unlock()
	m.mu.Unlock()
}

// applyRevocationDelta serializes delta application on the control mutex;
// racing resolvers apply an empty delta and move on.
func (m *SessionManager) applyRevocationDelta(now time.Time) {
	m.mu.Lock()
	m.applyRevocationDeltaLocked(now)
	m.mu.Unlock()
}

// applyRevocationDeltaLocked pulls the revocations issued since the last
// applied epoch and evicts every session rooted in a revoked certificate,
// leaving a tombstone so the token answers ErrSessionRevoked until its
// original expiry. Only the revoked identity's own sessions are scanned,
// via the byPrincipal index. Called with mu held.
func (m *SessionManager) applyRevocationDeltaLocked(now time.Time) {
	revs, version := m.revoker.RevokedSince(m.revEpoch.Load())
	m.revEpoch.Store(version)
	m.lastRevSweep.Store(now.UnixNano())
	for _, rev := range revs {
		for token := range m.byPrincipal[rev.Identity] {
			st := m.stripeFor(token)
			st.mu.Lock()
			s := st.sessions[token]
			if s == nil || s.serial != rev.Serial {
				st.mu.Unlock()
				continue // a newer cert of the same identity still stands
			}
			m.deleteSessionLocked(st, token, s)
			m.revoked.Add(1)
			st.revoked[token] = s.expiresAt
			st.mu.Unlock()
		}
		// What the revoked certificate proved is withdrawn with it: its
		// holder cannot resume, and a full handshake meets IsRevoked.
		m.resumes.drop(func(e *resumeEntry) bool { return e.serial == rev.Serial })
	}
}

// SweepRevoked applies the pending revocation delta immediately — the
// push path: the gateway calls it when the revocation source notifies or
// an admin hits the revocation.notify topic. It reports how many sessions
// the sweep evicted. A manager without revocation checks sweeps trivially.
func (m *SessionManager) SweepRevoked() int {
	if m.revMode == RevokeCheckOff {
		return 0
	}
	now := m.now()
	m.mu.Lock()
	before := m.revoked.Load()
	m.applyRevocationDeltaLocked(now)
	after := m.revoked.Load()
	m.mu.Unlock()
	return int(after - before)
}

// sweepLocked evicts every session past its TTL or idle window, and every
// remembered nonce and revocation tombstone past its forget-after time.
// Called with mu held, from Open at most once per sweepEvery, so an
// abandoned client population cannot grow any table without bound while a
// 100k-session open flood never pays a full table walk per handshake.
func (m *SessionManager) sweepLocked(now time.Time) {
	for i := range m.stripes {
		st := &m.stripes[i]
		st.mu.Lock()
		for token, s := range st.sessions {
			if now.After(s.expiresAt) || now.UnixNano()-s.lastUsed.Load() > int64(m.idle) {
				m.deleteSessionLocked(st, token, s)
				m.expired.Add(1)
			}
		}
		for token, forgetAfter := range st.revoked {
			if now.After(forgetAfter) {
				delete(st.revoked, token)
			}
		}
		st.mu.Unlock()
	}
	nowNanos := now.UnixNano()
	for nonce, forgetAfter := range m.seenNonces {
		if nowNanos > forgetAfter {
			delete(m.seenNonces, nonce)
		}
	}
	m.resumes.drop(func(e *resumeEntry) bool { return now.After(e.expires) })
}

// capPrincipalLocked makes room for one more session of the principal:
// while the principal sits at (or, after a cap change, above) the cap, the
// session opened longest ago is evicted. Called with mu held, after the
// sweep, so sessions expiring anyway do not count against the cap. Only
// the principal's own sessions are consulted, via the byPrincipal index —
// which carries each token's open time precisely so cap eviction never
// has to chase sessions across stripes to find the oldest.
func (m *SessionManager) capPrincipalLocked(principal string) {
	if m.maxPerPrincipal <= 0 {
		return
	}
	set := m.byPrincipal[principal]
	for len(set) >= m.maxPerPrincipal {
		oldestToken := ""
		var oldest time.Time
		for token, openedAt := range set {
			if oldestToken == "" || openedAt.Before(oldest) {
				oldestToken, oldest = token, openedAt
			}
		}
		st := m.stripeFor(oldestToken)
		st.mu.Lock()
		if s, ok := st.sessions[oldestToken]; ok {
			m.deleteSessionLocked(st, oldestToken, s)
		} else {
			delete(set, oldestToken) // index/stripe drift is impossible, but never loop forever
		}
		st.mu.Unlock()
		m.evicted.Add(1)
	}
}

// Len reports the number of live sessions (including any not yet swept).
func (m *SessionManager) Len() int {
	n := 0
	for i := range m.stripes {
		st := &m.stripes[i]
		st.mu.RLock()
		n += len(st.sessions)
		st.mu.RUnlock()
	}
	return n
}

// resumeEntries reports the resumption table's size.
func (m *SessionManager) resumeEntries() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return uint64(m.resumes.len())
}

// Stats snapshots the manager's lifecycle counters.
func (m *SessionManager) Stats() SessionStats {
	var gs GatewayStats
	for _, r := range m.statRows() {
		r.set(&gs, r.load())
	}
	return *gs.Sessions
}

// statRows declares the lifecycle counters and the live gauge. Order is
// load order, and the eviction counters come before Opened: an eviction
// always follows the open it undoes, so reading the evictions first (and
// Opened, which can only have grown, last) keeps the snapshot invariant
// Opened >= Expired+Evicted+Revoked even while submitters race the poll.
// The reverse order could observe an open-then-evict pair's eviction
// without its open.
func (m *SessionManager) statRows() []statRow {
	// The rows fill GatewayStats.Sessions, which is nil on a gateway
	// without a session stage: the first setter to run allocates it.
	stats := func(s *GatewayStats) *SessionStats {
		if s.Sessions == nil {
			s.Sessions = new(SessionStats)
		}
		return s.Sessions
	}
	return []statRow{
		{"confmw_sessions_live", "Currently held sessions.", gauge, func() uint64 { return uint64(m.Len()) }, func(s *GatewayStats, v uint64) { stats(s).Live = int(v) }},
		{"confmw_sessions_expired_total", "Sessions evicted at their TTL or idle window.", counter, m.expired.Load, func(s *GatewayStats, v uint64) { stats(s).Expired = v }},
		{"confmw_sessions_evicted_total", "Sessions displaced by the per-principal cap.", counter, m.evicted.Load, func(s *GatewayStats, v uint64) { stats(s).Evicted = v }},
		// SessionsRevoked surfaces the same number beside the gateway's
		// other revocation counters.
		{"confmw_sessions_revoked_total", "Sessions evicted by certificate revocation.", counter, m.revoked.Load, func(s *GatewayStats, v uint64) { stats(s).Revoked, s.SessionsRevoked = v, v }},
		// A resumed session is an opened one, counted after it: read first,
		// for the same reason, Resumed <= Opened in every snapshot.
		{"confmw_session_resumed_total", "Sessions opened by a resume hello: possession proved by HMAC under a remembered master secret, no public-key work.", counter, m.resumed.Load, func(s *GatewayStats, v uint64) { stats(s).Resumed = v }},
		{"confmw_sessions_opened_total", "Sessions granted.", counter, m.opened.Load, func(s *GatewayStats, v uint64) { stats(s).Opened = v }},
		{"confmw_session_cert_verifications_total", "CA signature checks session handshakes cost (certificates not in the verified set).", counter, m.certs.Verifications, func(s *GatewayStats, v uint64) { stats(s).CertVerifications = v }},
		{"confmw_session_cert_cache_hits_total", "Session handshakes whose certificate was in the verified set.", counter, m.certs.Hits, func(s *GatewayStats, v uint64) { stats(s).CertCacheHits = v }},
		{"confmw_session_resume_misses_total", "Resume hellos naming an id the resumption table did not hold; the client falls back to the full handshake.", counter, m.resumeMisses.Load, func(s *GatewayStats, v uint64) { stats(s).ResumeMisses = v }},
		{"confmw_session_resume_entries", "Entries in the resumption table.", gauge, m.resumeEntries, func(s *GatewayStats, v uint64) { stats(s).ResumeEntries = int(v) }},
	}
}

// Session is the session-aware authn stage. A request carrying a token is
// bound to its session's cached verified principal by a per-request
// signature — or, under reqauth=mac, a per-session HMAC — over the request
// digest: no certificate verification on the hot path, and in MAC mode no
// public-key operation at all. A request without a token passes through
// untouched for the full authn stage downstream, so one chain serves both
// kinds of traffic.
type Session struct {
	mgr *SessionManager
}

// NewSession creates the session stage over an established manager.
func NewSession(mgr *SessionManager) (*Session, error) {
	if mgr == nil {
		return nil, errors.New("middleware: session stage needs a manager")
	}
	return &Session{mgr: mgr}, nil
}

// Name implements Stage.
func (s *Session) Name() string { return StageSession }

// Manager returns the stage's session manager, the handle the gateway
// serves session.open / session.close through.
func (s *Session) Manager() *SessionManager { return s.mgr }

// verifier implements verifierHolder.
func (s *Session) verifier() *pki.Verifier { return s.mgr.certs }

// statRows exports the manager's numbers through the stage.
func (s *Session) statRows() []statRow { return s.mgr.statRows() }

// Handle implements Stage.
func (s *Session) Handle(ctx context.Context, req *Request, next Handler) error {
	if req.SessionToken == "" {
		return next(ctx, req)
	}
	now := s.mgr.now()
	if s.mgr.defaultClock {
		// Leave the reading for downstream stages on the same default
		// clock (encrypt's epoch expiry check): one clock read per request
		// instead of one per stage.
		req.nowStamp = now
	}
	principal, key, mac, err := s.mgr.resolveAt(now, req.SessionToken, req.TransportID)
	if err != nil {
		return fmt.Errorf("session %s: %w", req.Principal, err)
	}
	if principal != req.Principal {
		return fmt.Errorf("%w: session for %q, request by %q",
			ErrIdentityMismatch, principal, req.Principal)
	}
	d := req.digest()
	if len(req.MAC) > 0 {
		// A MAC is only meaningful under reqauth=mac, where the session
		// holds the key to check it against; in sig mode no key was ever
		// derived, so a MAC-bearing request is a misconfigured client.
		if s.mgr.reqauth != AuthMAC || mac == nil {
			return fmt.Errorf("%w: session principal %s sent a MAC to a signature-only gateway", ErrBadMAC, req.Principal)
		}
		if err := mac.Verify(d[:], req.MAC); err != nil {
			return fmt.Errorf("%w: session principal %s", ErrBadMAC, req.Principal)
		}
	} else {
		// The signature path stays available in every mode: sessionless
		// and first-contact clients (and MAC-mode clients that have not
		// adopted the grant key yet) keep working unchanged.
		if err := key.Verify(d[:], req.Sig); err != nil {
			return fmt.Errorf("%w: session principal %s", ErrBadSignature, req.Principal)
		}
	}
	req.authenticated = true
	return next(ctx, req)
}

package middleware

import (
	"context"
	"crypto/rand"
	"encoding/binary"
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
// request whose MAC failed.
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

// RequestAuthMode is the type of AuthMAC, which the repository benchmark
// passes to WithRequestAuth: token-bearing requests are authenticated one
// way, by an HMAC under the per-session key, and AuthMAC is its one value.
type RequestAuthMode int

// AuthMAC is the one request authentication mode; see RequestAuthMode.
const AuthMAC RequestAuthMode = 0

// SessionHello is the signed handshake a client sends to open a session:
// the certificate chain and the signature are verified once, here, and
// never on a submission. The signature covers the nonce and
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
	// MacKey is the per-session request-authentication key: every
	// token-bearing request is MAC'd under it (MACRequest). It is derived via
	// HKDF with the handshake transcript digest as salt, so the key is
	// cryptographically bound to the handshake that opened the session. It
	// never crosses a network: an in-process Open returns it here, and a
	// grant that travelled (AppendWire) leaves it empty for the client to
	// derive from the master secret (Handshaker does). The server's copy dies
	// with the session (expiry, close, or revocation).
	MacKey []byte `json:"macKey,omitempty"`
	// Codec is kept under the name the repository benchmark calls: a grant
	// decoded off the wire reads CodecBinary, the one request framing.
	Codec string `json:"codec,omitempty"`
	// ResumeID and Sealed are set on the grant of a full handshake that
	// crossed a network: the master secret encrypted to the certified key
	// (dcrypto.EncryptHybrid, the hello's transcript digest as associated
	// data), and the id a later resume hello names it by.
	ResumeID []byte                    `json:"resumeId,omitempty"`
	Sealed   *dcrypto.HybridCiphertext `json:"sealed,omitempty"`
	// Resumed marks a session opened by a resume hello.
	Resumed bool `json:"resumed,omitempty"`
}

// helloDigestDomain separates hello transcripts from every other digest.
const helloDigestDomain = "middleware/session/hello/v1"

// helloDigest is the canonical signed content of a handshake, and the salt
// of the MAC key of the session it opens: dcrypto.HashConcat of the domain,
// principal, nonce and the issue time in UTC as RFC 3339 with nanoseconds,
// staged on the stack and hashed once (the resumeDigest idiom).
// TestHelloDigestIsGolden holds its bytes.
func helloDigest(principal string, nonce []byte, issuedAt time.Time) [32]byte {
	var buf [256]byte // a principal of up to 150 bytes stays on the stack
	b := appendDigestPart(buf[:0], helloDigestDomain)
	b = appendDigestPart(b, principal)
	b = append(binary.BigEndian.AppendUint64(b, uint64(len(nonce))), nonce...)
	// The time's length prefix is written once the time is.
	at := len(b)
	b = issuedAt.UTC().AppendFormat(binary.BigEndian.AppendUint64(b, 0), time.RFC3339Nano)
	binary.BigEndian.PutUint64(b[at:], uint64(len(b)-at-8))
	return dcrypto.Hash(b)
}

// helloFreshness bounds how old (or future-dated, for clock skew) a
// handshake may be; nonces are remembered for this window, so a recorded
// hello can never mint a second token.
const helloFreshness = 2 * time.Minute

// NewSessionHello builds and signs a handshake for a principal, stamped
// with the wall clock.
func NewSessionHello(principal string, cert pki.Certificate, key *dcrypto.PrivateKey) (SessionHello, error) {
	return newSessionHelloAt(principal, cert, key, time.Now())
}

// newSessionHelloAt builds and signs a handshake with an explicit issue
// time, for callers running on an injected clock.
func newSessionHelloAt(principal string, cert pki.Certificate, key *dcrypto.PrivateKey, at time.Time) (SessionHello, error) {
	hello, _, err := newSessionHello(principal, cert, key, at)
	return hello, err
}

// newSessionHello is newSessionHelloAt returning beside the hello the
// transcript digest it signed, which a client that unseals the grant's
// master secret needs again.
func newSessionHello(principal string, cert pki.Certificate, key *dcrypto.PrivateKey, at time.Time) (SessionHello, [32]byte, error) {
	nonce, err := dcrypto.RandomBytes(helloNonceBytes)
	if err != nil {
		return SessionHello{}, [32]byte{}, fmt.Errorf("middleware: hello nonce: %w", err)
	}
	d := helloDigest(principal, nonce, at)
	sig, err := key.Sign(d[:])
	if err != nil {
		return SessionHello{}, [32]byte{}, fmt.Errorf("middleware: sign hello: %w", err)
	}
	return SessionHello{Principal: principal, Nonce: nonce, IssuedAt: at, Cert: cert, Sig: sig}, d, nil
}

// sessionTokenBytes is the entropy of a session token, far beyond
// guessability: the length of its key, half that of its hex spelling.
const sessionTokenBytes = 32

// sessionKey is a session token's random bytes: the key of the token table
// and of its revocation tombstones, and what a grant frame, a request frame
// and a session.close payload carry. The token is these bytes in 64
// lowercase hex characters, the spelling the API hands out and takes
// (SessionGrant.Token, Request.SessionToken) and the MAC key's HKDF label
// holds; the wire carries no spelling at all.
type sessionKey [sessionTokenBytes]byte

// hexNibble maps a lowercase hex digit to its value and every other byte to
// 0xff, whose high nibble no digit's value has.
var hexNibble = func() (t [256]byte) {
	for c := range t {
		switch {
		case '0' <= c && c <= '9':
			t[c] = byte(c - '0')
		case 'a' <= c && c <= 'f':
			t[c] = byte(c - 'a' + 10)
		default:
			t[c] = 0xff
		}
	}
	return t
}()

// parseSessionKey reads a token's 64 lowercase hex characters into the key
// they spell, on the caller's stack. Any other spelling — another length,
// an upper-case digit, a byte that is no hex digit — names no session. The
// characters are read in pairs through hexNibble with no branch on their
// values: what they look up is OR-ed together and checked once at the end.
// Only the API's spellings are parsed (a caller's token, the encoders'
// input); no decoder of a frame calls it.
func parseSessionKey(token string) (key sessionKey, ok bool) {
	if len(token) != 2*sessionTokenBytes {
		return key, false
	}
	var bad byte
	for i := range key {
		hi, lo := hexNibble[token[2*i]], hexNibble[token[2*i+1]]
		bad |= hi | lo
		key[i] = hi<<4 | lo
	}
	if bad&0xf0 != 0 {
		return sessionKey{}, false
	}
	return key, true
}

// hex spells the key as its token.
func (k *sessionKey) hex() (token [2 * sessionTokenBytes]byte) {
	hex.Encode(token[:], k[:])
	return token
}

// session is one established client session: the verified principal and
// the key its requests are MAC'd under, cached so subsequent requests skip
// PKI verification. serial is the certificate the trust was rooted in at
// Open, the handle revocation checks match against.
type session struct {
	// key is the token's bytes, the table key; the token is its hex.
	key       sessionKey
	principal string
	// macKey is the per-session HMAC verifier, its pads precomputed once at
	// Open so the per-request check skips their derivation; held by value,
	// so it costs nothing beyond the record, which is itself a slot of a
	// slab (carveSessionLocked).
	macKey dcrypto.MACKey
	serial uint64
	// boundTo pins the session to the transport connection that opened it
	// (OpenBound); empty for unbound sessions. A request from any other
	// connection's TransportID is refused with ErrSessionBound.
	boundTo string
	// expires is the session's TTL deadline and lastUsed its last request,
	// both unix nanos on the manager's clock; lastUsed is atomic so that a
	// request touches the idle clock without a write lock.
	expires  int64
	lastUsed atomic.Int64
	// deleted is set, under the stripe lock, when the record leaves the
	// table: a request the decoder handed the record to asks the table
	// again (admit).
	deleted atomic.Bool
	// links thread the record through its principal's ring and, when
	// bound, its transport's (sessionIndex); guarded by the manager's mu.
	links [2]sessionLinks
}

// sessionSlabLen is how many session records one slab holds: eleven
// records of 344 bytes, 3,784 B, fill the 4,096-byte size class, so a live
// record keeps at most ten dead neighbours alive.
// TestSessionRecordSlabFillsItsSizeClass holds the arithmetic.
const sessionSlabLen = 11

// carveSessionLocked returns a zeroed record, the next slot of the
// manager's slab, starting a slab when the last one is used up. Slots are
// never handed out twice: a record that has left the table stays as it was
// for a request the decoder handed it to (admit), and its slab is freed
// once none of its records is live or held. Called with mu held.
func (m *SessionManager) carveSessionLocked() *session {
	if len(m.slab) == 0 {
		m.slab = make([]session, sessionSlabLen)
	}
	s := &m.slab[0]
	m.slab = m.slab[1:]
	return s
}

// sessionLinks are a record's neighbours in one sessionIndex ring.
type sessionLinks struct{ prev, next *session }

// Which of session.links each sessionIndex threads its rings through.
const (
	principalLinks = iota
	transportLinks
)

// sessionRing is one key's sessions in a sessionIndex, in the order they
// were opened: oldest, and n records linked in a ring behind it.
type sessionRing struct {
	oldest *session
	n      int
}

// sessionIndex groups live sessions by a key — a principal, a transport
// connection — in rings threaded through the records' links[link], so a
// session joining or leaving its group allocates nothing; an emptied ring's
// entry is deleted. Guarded by the manager's mu.
type sessionIndex struct {
	rings map[string]sessionRing
	link  int
}

// add appends s to key's ring, as its newest member.
func (x sessionIndex) add(key string, s *session) {
	r := x.rings[key]
	l := &s.links[x.link]
	if r.oldest == nil {
		r.oldest, l.prev, l.next = s, s, s
	} else {
		newest := r.oldest.links[x.link].prev
		l.prev, l.next = newest, r.oldest
		newest.links[x.link].next = s
		r.oldest.links[x.link].prev = s
	}
	r.n++
	x.rings[key] = r
}

// remove takes s out of key's ring.
func (x sessionIndex) remove(key string, s *session) {
	r := x.rings[key]
	l := &s.links[x.link]
	if r.n <= 1 {
		delete(x.rings, key)
	} else {
		l.prev.links[x.link].next = l.next
		l.next.links[x.link].prev = l.prev
		if r.oldest == s {
			r.oldest = l.next
		}
		r.n--
		x.rings[key] = r
	}
	*l = sessionLinks{}
}

// each calls fn on every session in key's ring, oldest first. fn may remove
// the session it is handed.
func (x sessionIndex) each(key string, fn func(*session)) {
	r := x.rings[key]
	for s, n := r.oldest, r.n; n > 0; n-- {
		next := s.links[x.link].next
		fn(s)
		s = next
	}
}

// sessionStripeCount divides the token table into independently locked
// stripes so concurrent requests on different tokens never contend on one
// mutex. Power of two, sized past any plausible core count.
const sessionStripeCount = 32

// sessionStripe is one lock stripe of the token table: its own sessions,
// its own revocation tombstones, its own RWMutex. A request's lookup
// touches exactly one stripe, read-locked.
type sessionStripe struct {
	mu       sync.RWMutex
	sessions map[sessionKey]*session
	// revoked are tombstones for sessions evicted by revocation: their
	// tokens answer ErrSessionRevoked (not ErrNoSession) until the
	// session's original expiry, so a revoked client sees why it was cut
	// off. Valued by forget-after time, unix nanos. An explicit Close
	// clears the tombstone.
	revoked map[sessionKey]int64
}

// stripe returns the key's stripe. A key is random bytes, so its first byte
// spreads keys evenly over the stripes.
func (m *SessionManager) stripe(key *sessionKey) *sessionStripe {
	return &m.stripes[key[0]&(sessionStripeCount-1)]
}

// lookup returns the live session of key, or nil. It authenticates
// nothing: the wire decoder hands what it finds to the session stage, which
// checks the record (admit).
func (m *SessionManager) lookup(key *sessionKey) *session {
	st := m.stripe(key)
	st.mu.RLock()
	s := st.sessions[*key]
	st.mu.RUnlock()
	return s
}

// SessionManager establishes and resolves gateway sessions. Opening a
// session performs the full certificate verification; afterwards, requests carrying the session token are bound to the cached
// verified principal by a per-session HMAC over the request digest.
// Sessions die at their TTL, or earlier when idle longer than the idle
// window. Safe for concurrent use: the token table is striped across
// independent RWMutexes, so a request's lookup takes one read lock on one
// stripe, while the control plane (open, close, sweeps, revocation deltas,
// the per-principal and per-transport indexes) serializes on a separate
// mutex.
type SessionManager struct {
	// certs checks handshake certificates against the pinned CA key and
	// remembers the ones whose CA signature it has verified, so only an
	// identity's first handshake pays that verification. Expiry, revocation
	// and the hello's own signature are checked on every open regardless.
	certs           *pki.Verifier
	ttl             time.Duration
	idle            time.Duration
	maxPerPrincipal int
	now             func() time.Time
	// defaultClock marks now as the package default (coarseNow): only then
	// may the session stage stamp its reading onto requests for downstream
	// stages on the same clock to reuse.
	defaultClock bool

	// revoker is the revocation plane, fixed at construction (withRevoker);
	// nil means the manager checks no revocation.
	revoker Revoker

	// sweepEvery throttles the Open-path table sweep: a full sweep walks
	// every stripe, so running one per open makes opens O(live sessions)
	// and a 100k-session edge quadratic. Expiry enforcement does not
	// depend on the sweep — admit rejects and evicts stale tokens
	// itself — so the sweep is pure table hygiene and an interval bound
	// keeps it amortized O(1) per open. Derived from ttl/idle at
	// construction; lastSweep is guarded by mu.
	sweepEvery time.Duration
	lastSweep  time.Time

	// stripes is the token table. Lock order: mu (when needed) strictly
	// before any stripe lock; never acquire mu while holding a stripe.
	stripes [sessionStripeCount]sessionStripe

	// mu guards the control plane: the two indexes and the handshake nonce
	// table. A request's admission never takes it.
	mu sync.Mutex
	// byPrincipal rings each principal's live sessions in open order, so
	// neither the per-principal cap (which evicts the oldest) nor a
	// revocation delta ever scans other principals' sessions. Kept in
	// lockstep with the stripes under mu.
	byPrincipal sessionIndex
	// byTransport rings the bound sessions of each transport connection,
	// so EvictTransport (the connection-close path) reaps exactly the dead
	// connection's sessions without scanning the stripes. Kept in lockstep
	// with the stripes under mu; unbound sessions never appear here.
	byTransport sessionIndex
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
	// slab is the rest of the slab the next session records are cut from
	// (carveSessionLocked). Guarded by mu.
	slab []session

	// revEpoch is the last revocation epoch applied; atomic so admit's
	// probe stays lock-free while nothing changed.
	revEpoch atomic.Uint64

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

// withMaxPerPrincipal caps live sessions per principal: opening a session
// beyond the cap evicts the principal's oldest session. n <= 0 means
// unlimited, the default.
func withMaxPerPrincipal(n int) SessionOption {
	return func(m *SessionManager) {
		if n > 0 {
			m.maxPerPrincipal = n
		}
	}
}

// WithRequestAuth is kept under the name the repository benchmark calls; it
// changes nothing, since AuthMAC is the one mode.
func WithRequestAuth(RequestAuthMode) SessionOption {
	return func(*SessionManager) {}
}

// withRevoker wires the manager to a revocation plane: opening a session
// with a revoked certificate fails, every token-bearing request probes the
// revoker's version and applies the delta when it moved (sweepRevoked
// applies it at once, the push path), evicted tokens answer
// ErrSessionRevoked until their original expiry, and evictions are counted
// in SessionStats.Revoked. A manager without a revoker checks nothing.
func withRevoker(r Revoker) SessionOption {
	return func(m *SessionManager) { m.revoker = r }
}

// WithRevocationChecks is kept under the name the repository benchmark
// calls: it is withRevoker, and it ignores the mode and the interval.
func WithRevocationChecks(r Revoker, _ RevokeCheckMode, _ time.Duration) SessionOption {
	return withRevoker(r)
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
		// The default clock is the cheap monotonic-anchored one: admit
		// reads it on every authenticated request.
		now = coarseNow
	}
	m := &SessionManager{
		certs:        pki.NewVerifier(caKey),
		ttl:          ttl,
		idle:         idle,
		now:          now,
		defaultClock: defaultClock,
		byPrincipal:  sessionIndex{rings: make(map[string]sessionRing), link: principalLinks},
		byTransport:  sessionIndex{rings: make(map[string]sessionRing), link: transportLinks},
		seenNonces:   make(map[[helloNonceBytes]byte]int64),
	}
	for i := range m.stripes {
		m.stripes[i].sessions = make(map[sessionKey]*session)
		m.stripes[i].revoked = make(map[sessionKey]int64)
	}
	for _, opt := range opts {
		opt(m)
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
	return m, nil
}

// sessionMACInfo labels the HKDF derivation of per-session request keys.
const sessionMACInfo = "middleware/session/mac/v1/"

// Open verifies the handshake — certificate chains to the CA, identity
// matches, signature verifies against the certified key — and issues an unguessable token.
// The grant carries the per-session HMAC key, derived via HKDF salted with
// the handshake transcript digest so the symmetric fast path stays rooted
// in the PKI handshake it amortizes.
// Sessions opened this way are unbound: the token works from any transport.
func (m *SessionManager) Open(hello SessionHello) (SessionGrant, error) {
	return m.OpenBound(hello, "")
}

// OpenBound is Open with the token pinned to a transport connection
// identity: every subsequent request must present the same TransportID or
// fail with ErrSessionBound, so a token captured in flight (or leaked by a
// client) cannot be replayed over a different connection. The TCP edge
// opens every session this way, stamping each connection's identity; an
// empty transportID degrades to an unbound Open. Connection teardown
// should call EvictTransport to reap the bound sessions.
//
// This is the in-process handshake: the grant is handed over in memory, so
// it carries the MAC key itself, nothing is sealed and nothing is remembered
// for resumption. The handshake that crosses a network is AppendWire's.
func (m *SessionManager) OpenBound(hello SessionHello, transportID string) (SessionGrant, error) {
	return m.open(&hello, nil, transportID, false)
}

// open is openKeyed with the grant's token spelled out, for a grant handed
// over in memory.
func (m *SessionManager) open(hello *SessionHello, resume *resumeHello, transportID string, wire bool) (SessionGrant, error) {
	grant, key, err := m.openKeyed(hello, resume, transportID, wire)
	if err == nil {
		token := key.hex()
		grant.Token = string(token[:])
	}
	return grant, err
}

// openKeyed runs one handshake, full (hello) or resumed (resume); exactly
// one of the two is set. The grant it returns carries no token: the session's
// key is returned beside it, and the token is that key's hex (open spells it
// into the grant, the grant encoder into the frame). The two handshakes
// differ only in how the caller proves who it is — a certificate and a
// signature over the transcript, or an HMAC over it under the master secret
// an earlier full handshake sealed to the certified key.
// Everything else is one path: the freshness window, the nonce memory, the
// validity and revocation checks on this call's clock, the per-principal
// cap, the transport binding, the counters.
//
// wire says the grant will cross a network: a full handshake then draws a
// master secret, remembers it for resumption and returns it only sealed to
// the certified key, and no grant carries the MAC key — both sides derive it
// from the master. Resumed handshakes are wire handshakes by construction.
func (m *SessionManager) openKeyed(hello *SessionHello, resume *resumeHello, transportID string, wire bool) (SessionGrant, sessionKey, error) {
	now := m.now()
	// Times from outside — the hello's IssuedAt, the nonce memory's
	// forget-after derived from it, the certificate's window — are other
	// clocks' wall readings, so they are judged on the wall clock:
	// coarseNow's wall reading is the process epoch plus monotonic time,
	// and drifts from the system clock by every step and slew since the
	// process started. What the tables are stamped with stays on now.
	wall := now
	if m.defaultClock {
		wall = time.Now()
	}
	var nonce [helloNonceBytes]byte
	var issuedAt time.Time
	if resume != nil {
		nonce, issuedAt = resume.Nonce, resume.IssuedAt
	} else {
		// A frame with another length never gets here (decodeHelloFrame);
		// an in-process hello is held to the same rule.
		var err error
		if nonce, err = helloNonce(hello.Nonce); err != nil {
			return SessionGrant{}, sessionKey{}, err
		}
		issuedAt = hello.IssuedAt
	}
	if issuedAt.Before(wall.Add(-helloFreshness)) || issuedAt.After(wall.Add(helloFreshness)) {
		return SessionGrant{}, sessionKey{}, fmt.Errorf("%w: issued %v, now %v", ErrStaleHello, issuedAt, wall)
	}
	// The rejection that costs nothing comes before any other work.
	if hello != nil && hello.Cert.Identity != hello.Principal {
		return SessionGrant{}, sessionKey{}, fmt.Errorf("%w: cert for %q, hello by %q",
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
	if seen && wall.UnixNano() <= forgetAfter {
		return SessionGrant{}, sessionKey{}, fmt.Errorf("%w: nonce %x", ErrReplayedHello, nonce)
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
			return SessionGrant{}, sessionKey{}, errResumeUnknown
		}
		digest = resumeDigest(resume.ID, nonce, issuedAt)
		if dcrypto.VerifyMAC(known.master[:], digest[:], resume.Tag) != nil {
			return SessionGrant{}, sessionKey{}, fmt.Errorf("%w: resume hello for %s", ErrBadMAC, known.identity)
		}
		principal, serial = known.identity, known.serial
	} else {
		if err := m.certs.Verify(hello.Cert, wall); err != nil {
			return SessionGrant{}, sessionKey{}, fmt.Errorf("session open %s: %w", hello.Principal, err)
		}
		principal, serial = hello.Principal, hello.Cert.Serial
		digest = helloDigest(hello.Principal, hello.Nonce, hello.IssuedAt)
	}
	// A revoked certificate cannot root a new session — whether or not the
	// verifier or the resumption table has seen the certificate before:
	// revocation is never cached. This unlocked check is the cheap
	// fast-fail; the authoritative re-check runs under the control lock
	// below, so a revocation sweeping between here and the insert cannot
	// slip a revoked serial into the table.
	if m.revoker != nil && m.revoker.IsRevoked(serial) {
		return SessionGrant{}, sessionKey{}, fmt.Errorf("%w: open by %s (serial %d)", ErrSessionRevoked, principal, serial)
	}
	if hello != nil {
		var err error
		if key, err = hello.Cert.Key(); err != nil {
			return SessionGrant{}, sessionKey{}, fmt.Errorf("session open %s: %w", principal, err)
		}
		if err := key.Verify(digest[:], hello.Sig); err != nil {
			return SessionGrant{}, sessionKey{}, fmt.Errorf("%w: session hello by %s", ErrBadSignature, principal)
		}
	}

	// The token is drawn into the key the table holds; its hex, which the
	// MAC key's label takes, is spelled on the stack.
	var tokenKey sessionKey
	if _, err := rand.Read(tokenKey[:]); err != nil {
		return SessionGrant{}, sessionKey{}, fmt.Errorf("session token: %w", err)
	}
	token := tokenKey.hex()
	expires := now.Add(m.ttl)
	grant := SessionGrant{Principal: principal, ExpiresAt: expires, Resumed: resume != nil}

	// The secret the MAC key is derived from: the remembered master of a
	// resumed handshake, a fresh one otherwise — which a wire handshake
	// remembers and seals, and an in-process one uses once and forgets.
	var secret []byte
	var fresh *resumeEntry
	var err error
	if resume != nil {
		secret = known.master[:]
	} else if secret, err = dcrypto.RandomBytes(masterBytes); err != nil {
		return SessionGrant{}, sessionKey{}, fmt.Errorf("session master secret: %w", err)
	}
	if hello != nil && wire {
		id, err := dcrypto.RandomBytes(resumeIDBytes)
		if err != nil {
			return SessionGrant{}, sessionKey{}, fmt.Errorf("session resume id: %w", err)
		}
		// The transcript digest as associated data ties the sealed secret to
		// this hello: a grant recorded off the wire opens under no other. (A
		// copy, so that only this branch pays for the one that escapes.)
		ad := digest
		sealed, err := dcrypto.EncryptHybrid(key, secret, ad[:])
		if err != nil {
			return SessionGrant{}, sessionKey{}, fmt.Errorf("session open %s: seal master secret: %w", principal, err)
		}
		fresh = &resumeEntry{identity: principal, serial: serial, expires: expires}
		if left := hello.Cert.NotAfter.Sub(wall); left < m.ttl {
			fresh.expires = now.Add(left)
		}
		copy(fresh.master[:], secret)
		grant.ResumeID, grant.Sealed = id, &sealed
	}
	mac, err := sessionMACKey(secret, digest, token[:])
	if err != nil {
		return SessionGrant{}, sessionKey{}, err
	}
	// The pads are computed here, on the stack, and copied into the record
	// once the open can no longer be refused.
	macKey := *dcrypto.NewMACKey(mac[:])
	if !wire {
		grant.MacKey = append([]byte(nil), mac[:]...)
	}

	// A verified hello is consumed: its nonce is remembered until every
	// copy of it has gone stale, so replaying it cannot mint a token. Two
	// copies racing past the peek above meet here, and one loses.
	m.mu.Lock()
	defer m.mu.Unlock()
	if now.Sub(m.lastSweep) >= m.sweepEvery {
		m.sweepLocked(now, wall)
		m.lastSweep = now
	}
	if _, seen := m.seenNonces[nonce]; seen {
		return SessionGrant{}, sessionKey{}, fmt.Errorf("%w: nonce %x", ErrReplayedHello, nonce)
	}
	m.seenNonces[nonce] = issuedAt.Add(2 * helloFreshness).UnixNano()
	// Authoritative revocation re-check, under the same lock revocation
	// deltas are applied with: a Revoke that landed after the unlocked
	// check above has either already been applied (we must not insert a
	// session its sweep can no longer see) or will be applied later (and
	// will then evict the insert by serial). Either way no revoked serial
	// survives — in the session table or the resumption table.
	if m.revoker != nil && m.revoker.IsRevoked(serial) {
		return SessionGrant{}, sessionKey{}, fmt.Errorf("%w: open by %s (serial %d)", ErrSessionRevoked, principal, serial)
	}
	s := m.carveSessionLocked()
	*s = session{
		key:       tokenKey,
		principal: principal,
		macKey:    macKey,
		serial:    serial,
		boundTo:   transportID,
		expires:   expires.UnixNano(),
	}
	s.lastUsed.Store(now.UnixNano())
	m.capPrincipalLocked(principal)
	m.opened.Add(1)
	if resume != nil {
		m.resumed.Add(1)
	}
	if fresh != nil {
		m.resumes.put([resumeIDBytes]byte(grant.ResumeID), fresh)
	}
	st := m.stripe(&tokenKey)
	st.mu.Lock()
	st.sessions[tokenKey] = s
	st.mu.Unlock()
	m.byPrincipal.add(principal, s)
	if transportID != "" {
		m.byTransport.add(transportID, s)
	}
	return grant, tokenKey, nil
}

// close ends a session. Closing an unknown token is a no-op: the token may
// already have been evicted by expiry, the per-principal cap, or a
// revocation sweep — a client draining its sessions must never see an
// error or skew a lifecycle counter for losing that race. Closing a
// revocation-tombstoned token clears the tombstone, so an explicitly
// closed token degrades to ErrNoSession like any other closed one.
func (m *SessionManager) close(token string) {
	key, ok := parseSessionKey(token)
	if !ok {
		return
	}
	m.mu.Lock()
	st := m.stripe(&key)
	st.mu.Lock()
	m.closeLocked(st, &key)
	st.mu.Unlock()
	m.mu.Unlock()
}

// EncodeSessionClose returns the session.close payload that ends the
// session token names: the token's 32 key bytes. A malformed token names no
// session, and ok is false: there is nothing to close, so nothing need be
// sent.
func EncodeSessionClose(token string) (payload [sessionTokenBytes]byte, ok bool) {
	return parseSessionKey(token)
}

// closeKey ends the session a session.close payload names by its key, for a
// frame that arrived over transportID: a bound session closes only from the
// connection it is bound to. From anywhere else it answers ErrSessionBound
// and the session stays live for its rightful connection — a captured token
// can no more end a session than use it. Unbound sessions close from
// anywhere, and a key that names no session closes nothing.
func (m *SessionManager) closeKey(key *sessionKey, transportID string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.stripe(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	if s := st.sessions[*key]; s != nil && s.boundTo != "" && s.boundTo != transportID {
		return ErrSessionBound
	}
	m.closeLocked(st, key)
	return nil
}

// closeLocked removes the key's session and tombstone. Called with mu AND
// the key's stripe lock held.
func (m *SessionManager) closeLocked(st *sessionStripe, key *sessionKey) {
	if s := st.sessions[*key]; s != nil {
		m.deleteSessionLocked(st, s)
	}
	delete(st.revoked, *key)
}

// deleteSessionLocked removes a session from its stripe and both indexes,
// and marks the record deleted for whoever holds it. Called with mu AND the
// session's stripe lock held.
func (m *SessionManager) deleteSessionLocked(st *sessionStripe, s *session) {
	delete(st.sessions, s.key)
	s.deleted.Store(true)
	m.byPrincipal.remove(s.principal, s)
	if s.boundTo != "" {
		m.byTransport.remove(s.boundTo, s)
	}
}

// deleteLocked is deleteSessionLocked for a session found through an
// index, whose stripe lock it takes. Called with mu held.
func (m *SessionManager) deleteLocked(s *session) {
	st := m.stripe(&s.key)
	st.mu.Lock()
	m.deleteSessionLocked(st, s)
	st.mu.Unlock()
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
	m.byTransport.each(transportID, func(s *session) {
		m.deleteLocked(s)
		m.evicted.Add(1)
		n++
	})
	return n
}

// admit is a token-bearing request's session check at now: it returns the
// session the request runs under, its idle clock touched. held is the
// record the wire decoder found the frame's token to name
// (SessionManager.lookup), so that a submission costs one table lookup; with
// none, token is looked up here. A held record deleted since the decoder
// found it is not trusted: its key is looked up again and meets what the
// table now says of it — ErrSessionRevoked under a revocation tombstone,
// ErrNoSession otherwise — exactly as if the request had been decoded after
// the session died.
//
// This is the gateway's per-request hot path: on a held live record no lock
// at all, no control-plane mutex, no allocation. Expired or idle sessions
// are evicted via a write-locked slow path, and a manager with a revoker
// probes its version on every call (one atomic load when nothing changed)
// and applies the delta when it moved. A bound session admits only
// requests from its own connection (ErrSessionBound otherwise, without
// touching the idle clock — a replay must not keep the victim's session
// warm).
func (m *SessionManager) admit(now time.Time, held *session, token, transportID string) (*session, error) {
	if m.revoker != nil && m.revoker.RevocationVersion() != m.revEpoch.Load() {
		m.applyRevocationDelta()
	}
	s := held
	if s == nil || s.deleted.Load() {
		var key sessionKey
		if s != nil {
			key = s.key
		} else if k, ok := parseSessionKey(token); ok {
			key = k
		} else {
			return nil, ErrNoSession
		}
		var err error
		if s, err = m.find(now, &key); err != nil {
			return nil, err
		}
	}
	nowNanos := now.UnixNano()
	if m.stale(s, nowNanos) {
		m.evictExpired(s, nowNanos)
		return nil, ErrSessionExpired
	}
	if s.boundTo != "" && s.boundTo != transportID {
		return nil, ErrSessionBound
	}
	// Concurrent stores race benignly: every racer writes "about now".
	s.lastUsed.Store(nowNanos)
	return s, nil
}

// find returns the live session of key, or the error a request carrying its
// token meets: ErrSessionRevoked while a revocation tombstone stands (one
// past its forget-after time is deleted here), ErrNoSession otherwise.
func (m *SessionManager) find(now time.Time, key *sessionKey) (*session, error) {
	st := m.stripe(key)
	st.mu.RLock()
	s := st.sessions[*key]
	// The len guard skips hashing the key against an empty tombstone
	// table — the steady state of a deployment with no recent revocations.
	var forgetAfter int64
	tombstoned := false
	if len(st.revoked) > 0 {
		forgetAfter, tombstoned = st.revoked[*key]
	}
	st.mu.RUnlock()
	switch {
	case s != nil:
		return s, nil
	case !tombstoned:
		return nil, ErrNoSession
	case now.UnixNano() <= forgetAfter:
		return nil, ErrSessionRevoked
	}
	st.mu.Lock()
	if forgetAfter, still := st.revoked[*key]; still && now.UnixNano() > forgetAfter {
		delete(st.revoked, *key)
	}
	st.mu.Unlock()
	return nil, ErrNoSession
}

// stale reports a session past its TTL or its idle window at nowNanos.
func (m *SessionManager) stale(s *session, nowNanos int64) bool {
	return nowNanos > s.expires || nowNanos-s.lastUsed.Load() > int64(m.idle)
}

// evictExpired upgrades to the write-locked slow path after admit saw a
// session past its TTL or idle window, rechecking under the locks (a
// concurrent Close or sweep may have beaten us here).
func (m *SessionManager) evictExpired(s *session, nowNanos int64) {
	m.mu.Lock()
	st := m.stripe(&s.key)
	st.mu.Lock()
	if !s.deleted.Load() && m.stale(s, nowNanos) {
		m.deleteSessionLocked(st, s)
		m.expired.Add(1)
	}
	st.mu.Unlock()
	m.mu.Unlock()
}

// applyRevocationDelta serializes delta application on the control mutex;
// racing admissions apply an empty delta and move on.
func (m *SessionManager) applyRevocationDelta() {
	m.mu.Lock()
	m.applyRevocationDeltaLocked()
	m.mu.Unlock()
}

// applyRevocationDeltaLocked pulls the revocations issued since the last
// applied epoch and evicts every session rooted in a revoked certificate,
// leaving a tombstone so the token answers ErrSessionRevoked until its
// original expiry. Only the revoked identity's own sessions are scanned,
// via the byPrincipal index. Called with mu held.
func (m *SessionManager) applyRevocationDeltaLocked() {
	revs, version := m.revoker.RevokedSince(m.revEpoch.Load())
	m.revEpoch.Store(version)
	for _, rev := range revs {
		m.byPrincipal.each(rev.Identity, func(s *session) {
			if s.serial != rev.Serial {
				return // a newer cert of the same identity still stands
			}
			st := m.stripe(&s.key)
			st.mu.Lock()
			m.deleteSessionLocked(st, s)
			m.revoked.Add(1)
			st.revoked[s.key] = s.expires
			st.mu.Unlock()
		})
		// What the revoked certificate proved is withdrawn with it: its
		// holder cannot resume, and a full handshake meets IsRevoked.
		m.resumes.drop(func(e *resumeEntry) bool { return e.serial == rev.Serial })
	}
}

// sweepRevoked applies the pending revocation delta immediately — the
// push path: the gateway calls it when the revocation source notifies or
// an admin hits the revocation.notify topic. It reports how many sessions
// the sweep evicted. A manager without a revoker sweeps trivially.
func (m *SessionManager) sweepRevoked() int {
	if m.revoker == nil {
		return 0
	}
	m.mu.Lock()
	before := m.revoked.Load()
	m.applyRevocationDeltaLocked()
	after := m.revoked.Load()
	m.mu.Unlock()
	return int(after - before)
}

// sweepLocked evicts every session past its TTL or idle window, and every
// revocation tombstone and remembered nonce past its forget-after time —
// a nonce's on the wall clock, see open. Called with mu held, from Open at
// most once per sweepEvery, so an abandoned client population cannot grow
// any table without bound while a 100k-session open flood never pays a
// full table walk per handshake.
func (m *SessionManager) sweepLocked(now, wall time.Time) {
	nowNanos := now.UnixNano()
	for i := range m.stripes {
		st := &m.stripes[i]
		st.mu.Lock()
		for _, s := range st.sessions {
			if m.stale(s, nowNanos) {
				m.deleteSessionLocked(st, s)
				m.expired.Add(1)
			}
		}
		for key, forgetAfter := range st.revoked {
			if nowNanos > forgetAfter {
				delete(st.revoked, key)
			}
		}
		st.mu.Unlock()
	}
	wallNanos := wall.UnixNano()
	for nonce, forgetAfter := range m.seenNonces {
		if wallNanos > forgetAfter {
			delete(m.seenNonces, nonce)
		}
	}
	m.resumes.drop(func(e *resumeEntry) bool { return now.After(e.expires) })
}

// capPrincipalLocked makes room for one more session of the principal:
// while the principal sits at (or, after a cap change, above) the cap, the
// session opened longest ago — its ring's oldest — is evicted. Called with
// mu held, after the sweep, so sessions expiring anyway do not count against
// the cap. Only the principal's own sessions are consulted, via the
// byPrincipal index.
func (m *SessionManager) capPrincipalLocked(principal string) {
	if m.maxPerPrincipal <= 0 {
		return
	}
	for r := m.byPrincipal.rings[principal]; r.n >= m.maxPerPrincipal; r = m.byPrincipal.rings[principal] {
		m.deleteLocked(r.oldest)
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

// stats snapshots the manager's lifecycle counters.
func (m *SessionManager) stats() SessionStats {
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
		{"confmw_sessions_live", "Currently held sessions.", gauge, func() uint64 { return uint64(m.Len()) }, func(s *GatewayStats, v uint64) { stats(s).Live = int(v) }, nil},
		{"confmw_sessions_expired_total", "Sessions evicted at their TTL or idle window.", counter, m.expired.Load, func(s *GatewayStats, v uint64) { stats(s).Expired = v }, nil},
		{"confmw_sessions_evicted_total", "Sessions displaced by the per-principal cap.", counter, m.evicted.Load, func(s *GatewayStats, v uint64) { stats(s).Evicted = v }, nil},
		// SessionsRevoked surfaces the same number beside the gateway's
		// other revocation counters.
		{"confmw_sessions_revoked_total", "Sessions evicted by certificate revocation.", counter, m.revoked.Load, func(s *GatewayStats, v uint64) { stats(s).Revoked, s.SessionsRevoked = v, v }, nil},
		// A resumed session is an opened one, counted after it: read first,
		// for the same reason, Resumed <= Opened in every snapshot.
		{"confmw_session_resumed_total", "Sessions opened by a resume hello: possession proved by HMAC under a remembered master secret, no public-key work.", counter, m.resumed.Load, func(s *GatewayStats, v uint64) { stats(s).Resumed = v }, nil},
		{"confmw_sessions_opened_total", "Sessions granted.", counter, m.opened.Load, func(s *GatewayStats, v uint64) { stats(s).Opened = v }, nil},
		{"confmw_session_cert_verifications_total", "CA signature checks session handshakes cost (certificates not in the verified set).", counter, m.certs.Verifications, func(s *GatewayStats, v uint64) { stats(s).CertVerifications = v }, nil},
		{"confmw_session_cert_cache_hits_total", "Session handshakes whose certificate was in the verified set.", counter, m.certs.Hits, func(s *GatewayStats, v uint64) { stats(s).CertCacheHits = v }, nil},
		{"confmw_session_resume_misses_total", "Resume hellos naming an id the resumption table did not hold; the client falls back to the full handshake.", counter, m.resumeMisses.Load, func(s *GatewayStats, v uint64) { stats(s).ResumeMisses = v }, nil},
		{"confmw_session_resume_entries", "Entries in the resumption table.", gauge, m.resumeEntries, func(s *GatewayStats, v uint64) { stats(s).ResumeEntries = int(v) }, nil},
	}
}

// sessionStage authenticates requests. A request carrying a token is bound
// to its session's cached verified principal by a per-session HMAC over the
// request digest: no certificate verification and no public-key operation
// on the hot path. A token-bearing request without a valid MAC is
// ErrBadMAC, and one without a token is ErrNoSession unless an earlier
// stage (anoncred) authenticated it.
type sessionStage struct {
	mgr *SessionManager
}

// newSession creates the session stage over an established manager.
func newSession(mgr *SessionManager) (*sessionStage, error) {
	if mgr == nil {
		return nil, errors.New("middleware: session stage needs a manager")
	}
	return &sessionStage{mgr: mgr}, nil
}

// Name implements Stage.
func (s *sessionStage) Name() string { return StageSession }

// Manager returns the stage's session manager, the handle the gateway
// serves session.open / session.close through.
func (s *sessionStage) Manager() *SessionManager { return s.mgr }

// statRows exports the manager's numbers through the stage.
func (s *sessionStage) statRows() []statRow { return s.mgr.statRows() }

// Handle implements Stage. A request off the wire whose token named a live
// session arrives with that record (Request.session) and no token string;
// the stage checks the record, and looks nothing up again. A request with no
// token passes only if an earlier stage (anoncred) authenticated it: every
// other request rides a session.
func (s *sessionStage) Handle(ctx context.Context, req *Request, next Handler) error {
	if req.session == nil && req.SessionToken == "" {
		if req.authenticated {
			return next(ctx, req)
		}
		return fmt.Errorf("session %s: %w: the request names no session", req.Principal, ErrNoSession)
	}
	now := s.mgr.now()
	if s.mgr.defaultClock {
		// Leave the reading for downstream stages on the same default
		// clock (encrypt's epoch expiry check): one clock read per request
		// instead of one per stage.
		req.nowStamp = now.Sub(chainEpoch)
	}
	sess, err := s.mgr.admit(now, req.session, req.SessionToken, req.TransportID)
	if err != nil {
		return fmt.Errorf("session %s: %w", req.Principal, err)
	}
	if sess.principal != req.Principal {
		return fmt.Errorf("%w: session for %q, request by %q",
			ErrIdentityMismatch, sess.principal, req.Principal)
	}
	// The MAC is the only proof a token-bearing request is checked for: a
	// signature beside it, or instead of it, is not read.
	d := req.digest()
	if err := sess.macKey.Verify(d[:], req.MAC); err != nil {
		return fmt.Errorf("%w: session principal %s", ErrBadMAC, req.Principal)
	}
	req.authenticated = true
	return next(ctx, req)
}

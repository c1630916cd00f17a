// Package pki implements the public key infrastructure the paper assumes for
// every enterprise DLT (§2.1): a certificate authority that verifies party
// identities during onboarding and issues certificates mapping public keys to
// identities, plus certificates for one-time (pseudonymous) keys that reveal
// the link only to parties that need to verify signatures.
//
// Relying parties check a certificate one of three ways. CA.Verify asks the
// CA itself: signature, validity window and revocation. VerifyCertificate
// is the stateless full check against a pinned CA key — signature and
// window, no revocation — and the definition of a valid certificate. A
// Verifier is the same check for a party that sees the same certificates
// again and again (a gateway's session handshakes): it remembers, as a
// bounded set of SHA-256 fingerprints, the certificates whose CA signature
// it has already verified, and skips the ECDSA check for those. It caches
// nothing else — not failures, not the validity window, not revocation —
// and it must agree with VerifyCertificate on every input, which
// FuzzVerifierAgrees checks.
package pki

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dltprivacy/internal/dcrypto"
)

// Errors returned by certificate operations.
var (
	// ErrBadCertificate is returned when a certificate signature does not
	// verify against the issuing CA.
	ErrBadCertificate = errors.New("pki: certificate verification failed")
	// ErrRevoked is returned when the certificate has been revoked.
	ErrRevoked = errors.New("pki: certificate revoked")
	// ErrExpired is returned when the certificate validity window has
	// passed.
	ErrExpired = errors.New("pki: certificate expired")
	// ErrUnknownIdentity is returned when an identity has not been
	// enrolled with the CA.
	ErrUnknownIdentity = errors.New("pki: unknown identity")
)

// CertKind distinguishes long-term identity certificates from one-time-key
// certificates.
type CertKind int

// Certificate kinds.
const (
	// KindIdentity binds a party's legal identity to its long-term key.
	KindIdentity CertKind = iota + 1
	// KindOneTime binds a pseudonymous one-time key to an identity; it is
	// disclosed only to counterparties that must verify signatures
	// (§2.1, "One-time public keys").
	KindOneTime
)

// Certificate binds a public key to an identity, signed by a CA.
type Certificate struct {
	Serial    uint64            `json:"serial"`
	Kind      CertKind          `json:"kind"`
	Identity  string            `json:"identity"`
	PublicKey []byte            `json:"publicKey"`
	Issuer    string            `json:"issuer"`
	NotBefore time.Time         `json:"notBefore"`
	NotAfter  time.Time         `json:"notAfter"`
	Sig       dcrypto.Signature `json:"sig"`
}

// payload returns the canonical signed content of the certificate.
func (c Certificate) payload() []byte {
	clone := c
	clone.Sig = dcrypto.Signature{}
	b, err := json.Marshal(clone)
	if err != nil {
		// Marshal of a plain struct with no cycles cannot fail; keep the
		// signature path total anyway.
		return nil
	}
	return b
}

// Key parses the certified public key.
func (c Certificate) Key() (dcrypto.PublicKey, error) {
	return dcrypto.ParsePublicKey(c.PublicKey)
}

// Revocation is one entry of the CA's append-only revocation log: which
// certificate was revoked, whose it was, and the revocation epoch the entry
// carries. Epochs are dense and monotonic (the first revocation is epoch 1),
// so relying parties cache the last epoch they applied and pull only the
// delta with RevokedSince. Superseded records that the identity had
// already re-enrolled under a newer certificate when the revocation was
// issued: the routine key-rotation flow (enroll replacement, then revoke
// the old serial), which withdraws one certificate, not the identity's
// standing — relying parties keyed by identity (envelope membership) must
// not act on it.
type Revocation struct {
	Serial     uint64   `json:"serial"`
	Identity   string   `json:"identity"`
	Kind       CertKind `json:"kind"`
	Epoch      uint64   `json:"epoch"`
	Superseded bool     `json:"superseded,omitempty"`
}

// CA is a certificate authority. It verifies identities of parties
// onboarded to the platform and optionally exposes a global membership list
// so that parties may establish relationships (§2.1). It also runs the
// revocation plane: an append-only revocation log with a monotonic epoch,
// a cheap version probe for hot-path freshness checks, and a subscription
// hook so in-process relying parties learn about revocations immediately.
type CA struct {
	name string
	key  *dcrypto.PrivateKey
	now  func() time.Time

	// revEpoch is the current revocation epoch, read lock-free by
	// RevocationVersion so per-request freshness probes stay off the CA
	// mutex. Bumped only under mu, so it is in lockstep with revLog.
	revEpoch atomic.Uint64

	mu         sync.Mutex
	serial     uint64
	enrolled   map[string]Certificate // identity -> identity cert
	issued     map[uint64]Revocation  // serial -> identity/kind, pre-filled at issue
	revoked    map[uint64]bool
	revLog     []Revocation // append-only; entry i carries epoch i+1
	onRevoke   map[uint64]func(Revocation)
	nextSub    uint64
	exposeList bool
}

// Option configures a CA.
type Option func(*CA)

// WithClock overrides the CA's time source (for tests).
func WithClock(now func() time.Time) Option {
	return func(ca *CA) { ca.now = now }
}

// WithMembershipList makes the CA expose the global membership list.
// Platforms that want member privacy leave it off.
func WithMembershipList() Option {
	return func(ca *CA) { ca.exposeList = true }
}

// NewCA creates a certificate authority with a fresh signing key.
func NewCA(name string, opts ...Option) (*CA, error) {
	key, err := dcrypto.GenerateKey()
	if err != nil {
		return nil, fmt.Errorf("ca key: %w", err)
	}
	ca := &CA{
		name:     name,
		key:      key,
		now:      time.Now,
		enrolled: make(map[string]Certificate),
		issued:   make(map[uint64]Revocation),
		revoked:  make(map[uint64]bool),
	}
	for _, opt := range opts {
		opt(ca)
	}
	return ca, nil
}

// Name returns the CA's name.
func (ca *CA) Name() string { return ca.name }

// PublicKey returns the CA verification key that relying parties pin.
func (ca *CA) PublicKey() dcrypto.PublicKey { return ca.key.Public() }

// certValidity is the default certificate lifetime.
const certValidity = 365 * 24 * time.Hour

// Enroll verifies an identity (out of band, as in any enterprise onboarding
// process) and issues its long-term identity certificate.
func (ca *CA) Enroll(identity string, pub dcrypto.PublicKey) (Certificate, error) {
	if identity == "" {
		return Certificate{}, errors.New("pki: empty identity")
	}
	cert, err := ca.issue(KindIdentity, identity, pub)
	if err != nil {
		return Certificate{}, err
	}
	ca.mu.Lock()
	ca.enrolled[identity] = cert
	ca.mu.Unlock()
	return cert, nil
}

// IssueOneTime certifies a pseudonymous one-time key for an already enrolled
// identity. The resulting certificate is shared only with parties that must
// link the pseudonym to the identity.
func (ca *CA) IssueOneTime(identity string, pub dcrypto.PublicKey) (Certificate, error) {
	ca.mu.Lock()
	_, ok := ca.enrolled[identity]
	ca.mu.Unlock()
	if !ok {
		return Certificate{}, fmt.Errorf("issue one-time cert for %q: %w", identity, ErrUnknownIdentity)
	}
	return ca.issue(KindOneTime, identity, pub)
}

func (ca *CA) issue(kind CertKind, identity string, pub dcrypto.PublicKey) (Certificate, error) {
	ca.mu.Lock()
	ca.serial++
	serial := ca.serial
	ca.issued[serial] = Revocation{Serial: serial, Identity: identity, Kind: kind}
	ca.mu.Unlock()

	now := ca.now()
	cert := Certificate{
		Serial:    serial,
		Kind:      kind,
		Identity:  identity,
		PublicKey: pub.Bytes(),
		Issuer:    ca.name,
		NotBefore: now,
		NotAfter:  now.Add(certValidity),
	}
	sig, err := ca.key.Sign(cert.payload())
	if err != nil {
		return Certificate{}, fmt.Errorf("sign certificate: %w", err)
	}
	cert.Sig = sig
	return cert, nil
}

// Revoke invalidates a certificate by serial number, appends the
// revocation to the log under a fresh epoch, and notifies subscribers.
// Revoking an already-revoked serial is a no-op: the epoch never advances
// without a log entry, so delta reads stay exact. Subscribers run after the
// CA lock is released, so a subscriber may call back into the CA (e.g.
// RevokedSince) without deadlocking.
func (ca *CA) Revoke(serial uint64) {
	ca.mu.Lock()
	if ca.revoked[serial] {
		ca.mu.Unlock()
		return
	}
	ca.revoked[serial] = true
	rev := ca.issued[serial] // zero Identity/Kind for a serial this CA never issued
	// The issuance record is only ever needed here; dropping it caps
	// ca.issued growth for revoked serials (the data lives on in revLog).
	delete(ca.issued, serial)
	rev.Serial = serial
	rev.Epoch = ca.revEpoch.Add(1)
	if rev.Kind == KindIdentity {
		if cur, enrolled := ca.enrolled[rev.Identity]; enrolled && cur.Serial != serial {
			rev.Superseded = true
		}
	}
	ca.revLog = append(ca.revLog, rev)
	subs := make([]func(Revocation), 0, len(ca.onRevoke))
	for _, fn := range ca.onRevoke {
		subs = append(subs, fn)
	}
	ca.mu.Unlock()
	for _, fn := range subs {
		fn(rev)
	}
}

// RevocationVersion returns the current revocation epoch: 0 before any
// revocation, then the epoch of the latest log entry. It is lock-free, so
// relying parties can probe it on every request and fetch the delta only
// when the version moved.
func (ca *CA) RevocationVersion() uint64 { return ca.revEpoch.Load() }

// RevokedSince returns the revocations issued after the given epoch, in
// epoch order, plus the current revocation version. A caller that applies
// the delta and remembers the returned version sees every revocation
// exactly once.
func (ca *CA) RevokedSince(epoch uint64) ([]Revocation, uint64) {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	v := ca.revEpoch.Load()
	if epoch >= v {
		return nil, v
	}
	// Epochs are dense: log entry i carries epoch i+1, so the delta after
	// `epoch` starts at index `epoch`.
	return append([]Revocation(nil), ca.revLog[epoch:]...), v
}

// IsRevoked reports whether a serial has been revoked.
func (ca *CA) IsRevoked(serial uint64) bool {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	return ca.revoked[serial]
}

// OnRevoke subscribes to revocations: fn runs on every future Revoke, after
// the CA lock is released, in revocation order with respect to that serial.
// Subscribers must be fast or hand off; they run on the revoker's
// goroutine. The returned cancel detaches the subscription (idempotent) —
// a relying party that does not outlive the CA must call it, or the CA
// keeps it reachable and keeps notifying it forever.
func (ca *CA) OnRevoke(fn func(Revocation)) (cancel func()) {
	if fn == nil {
		return func() {}
	}
	ca.mu.Lock()
	if ca.onRevoke == nil {
		ca.onRevoke = make(map[uint64]func(Revocation))
	}
	id := ca.nextSub
	ca.nextSub++
	ca.onRevoke[id] = fn
	ca.mu.Unlock()
	return func() {
		ca.mu.Lock()
		delete(ca.onRevoke, id)
		ca.mu.Unlock()
	}
}

// Verify checks a certificate's signature, validity window, and revocation
// status against this CA.
func (ca *CA) Verify(cert Certificate) error {
	if err := VerifyCertificate(cert, ca.PublicKey(), ca.now()); err != nil {
		return err
	}
	ca.mu.Lock()
	revoked := ca.revoked[cert.Serial]
	ca.mu.Unlock()
	if revoked {
		return ErrRevoked
	}
	return nil
}

// VerifyCertificate validates a certificate against a pinned CA key without
// consulting revocation state. Relying parties that only hold the CA public
// key use this form.
func VerifyCertificate(cert Certificate, caKey dcrypto.PublicKey, at time.Time) error {
	if at.Before(cert.NotBefore) || at.After(cert.NotAfter) {
		return ErrExpired
	}
	if err := caKey.Verify(cert.payload(), cert.Sig); err != nil {
		return fmt.Errorf("%w: %v", ErrBadCertificate, err)
	}
	return nil
}

// Members returns the global membership list if the CA exposes one, or
// ErrMembershipHidden otherwise.
func (ca *CA) Members() ([]string, error) {
	if !ca.exposeList {
		return nil, ErrMembershipHidden
	}
	ca.mu.Lock()
	defer ca.mu.Unlock()
	out := make([]string, 0, len(ca.enrolled))
	for id := range ca.enrolled {
		out = append(out, id)
	}
	return out, nil
}

// ErrMembershipHidden is returned when the CA does not expose a global
// membership list.
var ErrMembershipHidden = errors.New("pki: membership list not exposed")

// CertificateOf returns the identity certificate for an enrolled party.
func (ca *CA) CertificateOf(identity string) (Certificate, error) {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	cert, ok := ca.enrolled[identity]
	if !ok {
		return Certificate{}, ErrUnknownIdentity
	}
	return cert, nil
}

package pki

import (
	"crypto/sha256"
	"sync"
	"sync/atomic"
	"time"

	"dltprivacy/internal/dcrypto"
)

// verifierGeneration is the size of one generation of a Verifier's set. A
// constant, not an option: a consortium presents tens to thousands of
// long-lived certificates, two full generations of 4,096 hold 8,192
// fingerprints in about 0.65 MB of map (a 50-certificate consortium's set is
// a few KB), and a population larger than that only costs what every
// certificate cost before the set existed — one verification per miss.
const verifierGeneration = 4096

// Verifier is a relying party's view of one CA: the pinned CA key plus the
// fingerprints of the certificates whose CA signature it has already
// verified under that key, so a certificate presented again — every session
// handshake after an identity's first — skips the ECDSA check.
//
// What is cached is one fact: "the CA signed exactly these bytes with
// exactly this signature". The fingerprint is SHA-256 of the certificate's
// binary encoding (Certificate.AppendBinary): every field the CA's signature
// covers and both signature components at fixed width — the whole input of
// the signature check — so two certificates share a fingerprint only if the
// full check cannot tell them apart. A certificate with no encoding (a nil,
// non-positive or over-wide signature component, which a JSON-decoded
// certificate can carry, or a time its signed payload cannot hold) is never
// looked up or remembered: it goes to the full check every time.
//
// What is never cached: a failure (a peer without CA-signed certificates
// can neither grow nor poison the set, and a bad certificate costs one
// verification every time, as it always did), the validity window (checked
// against the caller's clock on every call, hit or miss), and revocation
// (not a property of the certificate's bytes: relying parties keep asking
// their Revoker). There is no TTL because nothing cached can go stale: a
// positive verdict about fixed bytes under a fixed key stays true.
//
// The set is bounded because valid, distinct, single-use certificates exist
// (IssueOneTime): it holds two generations of verifierGeneration
// fingerprints. Inserts go to the current generation; when it is full it
// becomes the old one and the previous old one is dropped; a hit in the old
// generation is promoted. A certificate in use therefore survives any
// number of rotations, and one not seen for a generation is forgotten.
//
// Safe for concurrent use; the hit path takes a read lock and allocates
// nothing. Callers that present an unknown certificate at the same moment
// each verify it — nobody waits on another's check, and the extra cost is
// bounded by the number of concurrent first presenters.
type Verifier struct {
	caKey dcrypto.PublicKey

	mu       sync.RWMutex
	cur, old map[[sha256.Size]byte]struct{}

	verifications atomic.Uint64
	hits          atomic.Uint64
}

// NewVerifier returns a verifier pinned to the CA key, with an empty set.
func NewVerifier(caKey dcrypto.PublicKey) *Verifier {
	return &Verifier{caKey: caKey, cur: make(map[[sha256.Size]byte]struct{})}
}

// Verify reports what VerifyCertificate(cert, caKey, at) would: ErrExpired
// outside the validity window, ErrBadCertificate when the CA signature does
// not verify, nil otherwise. Only the signature check is remembered.
func (v *Verifier) Verify(cert Certificate, at time.Time) error {
	if at.Before(cert.NotBefore) || at.After(cert.NotAfter) {
		return ErrExpired
	}
	// A certificate with no binary encoding has no exact fingerprint; it
	// goes straight to the full check.
	fp, exact := fingerprint(&cert)
	if exact && v.seen(fp) {
		v.hits.Add(1)
		return nil
	}
	v.verifications.Add(1)
	err := VerifyCertificate(cert, v.caKey, at)
	if err == nil && exact {
		v.insert(fp)
	}
	return err
}

// Verifications counts the full checks run: every miss, whatever its
// outcome.
func (v *Verifier) Verifications() uint64 { return v.verifications.Load() }

// Hits counts calls answered from the set.
func (v *Verifier) Hits() uint64 { return v.hits.Load() }

// fingerprint is SHA-256 of the certificate's binary encoding, staged on
// the stack unless an identity is unusually long. The encoding is injective
// and keeps everything the signed payload tells apart, and with the
// signature at fixed width it is the whole input of the signature check, so
// it stands in for the JSON marshal that produces the signed bytes.
// TestFingerprintCoversCertificate fails when Certificate gains a field the
// encoding does not carry. ok is false for a certificate with no encoding.
func fingerprint(cert *Certificate) (fp [sha256.Size]byte, ok bool) {
	var buf [384]byte
	b, err := cert.AppendBinary(buf[:0])
	if err != nil {
		return fp, false
	}
	return sha256.Sum256(b), true
}

// seen looks the fingerprint up, promoting a hit in the old generation.
func (v *Verifier) seen(fp [sha256.Size]byte) bool {
	v.mu.RLock()
	_, inCur := v.cur[fp]
	_, inOld := v.old[fp]
	v.mu.RUnlock()
	if !inCur && inOld {
		v.insert(fp)
	}
	return inCur || inOld
}

// insert adds a verified fingerprint to the current generation, rotating
// first when it is full.
func (v *Verifier) insert(fp [sha256.Size]byte) {
	v.mu.Lock()
	if _, ok := v.cur[fp]; !ok && len(v.cur) >= verifierGeneration {
		v.old, v.cur = v.cur, make(map[[sha256.Size]byte]struct{})
	}
	v.cur[fp] = struct{}{}
	v.mu.Unlock()
}

package pki

import (
	"crypto/sha256"
	"encoding/binary"
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
// exactly this signature". The fingerprint is SHA-256 over an injective
// encoding of every field the CA's signature covers and both signature
// components at fixed width — the whole input of the signature check — so
// two certificates share a fingerprint only if the full check cannot tell
// them apart. A signature that has no fixed-width form (a nil, non-positive
// or over-wide component, which a JSON-decoded certificate can carry) is
// never looked up: it goes to the full check, which rejects it.
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
	// A signature with no fixed-width form has no exact fingerprint; it
	// goes straight to the full check, which cannot accept it.
	exact := cert.Sig.WellFormed()
	var fp [sha256.Size]byte
	if exact {
		fp = fingerprint(cert)
		if v.seen(fp) {
			v.hits.Add(1)
			return nil
		}
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

// fingerprint commits to everything the signature check reads, without
// paying for the JSON marshal that produces the signed bytes: the signed
// payload is a function of the seven fields below and of nothing else, so an
// injective encoding of them — fixed-width integers, length-prefixed strings
// — stands in for it. Two things the marshal distinguishes are easy to lose
// and are kept: a nil PublicKey from an empty one ("null" against ""), and a
// time's zone offset (the same instant in another zone is different signed
// bytes). TestFingerprintCoversCertificate fails when Certificate gains a
// field this does not hash. The caller has established cert.Sig.WellFormed,
// so the fixed-width signature is exact: sign and width are settled.
func fingerprint(cert Certificate) [sha256.Size]byte {
	b := make([]byte, 0, 384) // on the stack unless an identity is unusually long
	b = binary.BigEndian.AppendUint64(b, cert.Serial)
	b = binary.BigEndian.AppendUint64(b, uint64(cert.Kind))
	b = binary.AppendUvarint(b, uint64(len(cert.Identity)))
	b = append(b, cert.Identity...)
	if cert.PublicKey == nil {
		b = append(b, 0)
	} else {
		b = append(b, 1)
	}
	b = binary.AppendUvarint(b, uint64(len(cert.PublicKey)))
	b = append(b, cert.PublicKey...)
	b = binary.AppendUvarint(b, uint64(len(cert.Issuer)))
	b = append(b, cert.Issuer...)
	for _, t := range [2]time.Time{cert.NotBefore, cert.NotAfter} {
		_, offset := t.Zone()
		b = binary.BigEndian.AppendUint64(b, uint64(t.Unix()))
		b = binary.BigEndian.AppendUint32(b, uint32(t.Nanosecond()))
		b = binary.BigEndian.AppendUint32(b, uint32(offset))
	}
	var sig [64]byte
	cert.Sig.R.FillBytes(sig[:32])
	cert.Sig.S.FillBytes(sig[32:])
	return sha256.Sum256(append(b, sig[:]...))
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

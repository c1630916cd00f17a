// Package dcrypto provides the cryptographic primitives shared by every
// substrate in the library: ECDSA identity keys, one-time (pseudonymous)
// keys, AES-GCM symmetric encryption, ECIES-style hybrid encryption, and
// hashing helpers.
//
// All primitives are built from the Go standard library only. The package is
// named dcrypto ("distributed-ledger crypto") to avoid colliding with the
// standard library's crypto package.
package dcrypto

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"math/big"
	"sync"
)

// Errors returned by key operations.
var (
	// ErrInvalidSignature is returned when signature verification fails.
	ErrInvalidSignature = errors.New("dcrypto: invalid signature")
	// ErrInvalidPublicKey is returned when a serialized public key cannot
	// be decoded onto the curve.
	ErrInvalidPublicKey = errors.New("dcrypto: invalid public key")
	// ErrInvalidPrivateKey is returned when a serialized private key is
	// out of range for the curve order.
	ErrInvalidPrivateKey = errors.New("dcrypto: invalid private key")
)

// curve is the elliptic curve used for all signing keys in the library.
func curve() elliptic.Curve { return elliptic.P256() }

// PrivateKey is an ECDSA P-256 signing key.
type PrivateKey struct {
	key *ecdsa.PrivateKey
}

// PublicKey is an ECDSA P-256 verification key. Its string form doubles as
// an address: ownership of assets is recorded against it (§2.1 of the
// paper, "One-time public keys").
type PublicKey struct {
	X, Y *big.Int
}

// GenerateKey creates a fresh random private key.
func GenerateKey() (*PrivateKey, error) {
	k, err := ecdsa.GenerateKey(curve(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("generate ecdsa key: %w", err)
	}
	return &PrivateKey{key: k}, nil
}

// DeriveKey deterministically derives a private key from a secret seed and a
// context label. It is used for hierarchical one-time key derivation: the
// holder of the seed can re-derive every one-time key it has ever handed
// out, while observers cannot link them.
func DeriveKey(seed []byte, context string) (*PrivateKey, error) {
	if len(seed) == 0 {
		return nil, errors.New("dcrypto: empty seed")
	}
	// Hash-to-scalar with rejection sampling over a counter, so the result
	// is uniform in [1, N-1].
	n := curve().Params().N
	for ctr := 0; ctr < 256; ctr++ {
		h := sha256.New()
		h.Write(seed)
		h.Write([]byte{0x00})
		h.Write([]byte(context))
		h.Write([]byte{byte(ctr)})
		d := new(big.Int).SetBytes(h.Sum(nil))
		if d.Sign() > 0 && d.Cmp(n) < 0 {
			return fromScalar(d)
		}
	}
	return nil, errors.New("dcrypto: key derivation failed to produce a valid scalar")
}

func fromScalar(d *big.Int) (*PrivateKey, error) {
	n := curve().Params().N
	if d.Sign() <= 0 || d.Cmp(n) >= 0 {
		return nil, ErrInvalidPrivateKey
	}
	priv := new(ecdsa.PrivateKey)
	priv.Curve = curve()
	priv.D = new(big.Int).Set(d)
	priv.PublicKey.X, priv.PublicKey.Y = curve().ScalarBaseMult(d.Bytes())
	return &PrivateKey{key: priv}, nil
}

// Public returns the verification key for p.
func (p *PrivateKey) Public() PublicKey {
	return PublicKey{
		X: new(big.Int).Set(p.key.PublicKey.X),
		Y: new(big.Int).Set(p.key.PublicKey.Y),
	}
}

// D returns a copy of the private scalar. It is exposed for the zkp and
// anoncred packages, which need to prove statements about identity keys.
func (p *PrivateKey) D() *big.Int { return new(big.Int).Set(p.key.D) }

// Sign produces an ECDSA signature over the SHA-256 digest of msg.
func (p *PrivateKey) Sign(msg []byte) (Signature, error) {
	digest := sha256.Sum256(msg)
	r, s, err := ecdsa.Sign(rand.Reader, p.key, digest[:])
	if err != nil {
		return Signature{}, fmt.Errorf("ecdsa sign: %w", err)
	}
	return Signature{R: r, S: s}, nil
}

// Signature is an ECDSA signature.
type Signature struct {
	R, S *big.Int
}

// WellFormed reports whether both components are present, positive and at
// most 256 bits wide: the only signatures Bytes can serialize — FillBytes
// panics on a wider component and drops the sign of a negative one — and
// the only ones Verify can accept. A Signature decoded from JSON can hold
// any integer, so code that re-encodes or fingerprints one it did not make
// checks this first.
func (s Signature) WellFormed() bool {
	return s.R != nil && s.S != nil &&
		s.R.Sign() > 0 && s.S.Sign() > 0 &&
		s.R.BitLen() <= 256 && s.S.BitLen() <= 256
}

// Bytes returns a fixed-width serialization of the signature. The signature
// must be WellFormed.
func (s Signature) Bytes() []byte {
	out := make([]byte, 64)
	s.R.FillBytes(out[:32])
	s.S.FillBytes(out[32:])
	return out
}

// ParseSignature decodes a signature produced by Bytes.
func ParseSignature(b []byte) (Signature, error) {
	if len(b) != 64 {
		return Signature{}, fmt.Errorf("dcrypto: signature must be 64 bytes, got %d", len(b))
	}
	return Signature{
		R: new(big.Int).SetBytes(b[:32]),
		S: new(big.Int).SetBytes(b[32:]),
	}, nil
}

// Verify checks sig over msg against the public key. It returns
// ErrInvalidSignature on mismatch. A signature with nil components — the
// zero Signature, or one JSON-decoded from a hostile wire message — is
// invalid, not a panic: this is the single chokepoint every network-facing
// decode path (gateway.submit, session.open) funnels through.
func (pk PublicKey) Verify(msg []byte, sig Signature) error {
	if pk.X == nil || pk.Y == nil {
		return ErrInvalidPublicKey
	}
	if sig.R == nil || sig.S == nil {
		return ErrInvalidSignature
	}
	pub := ecdsa.PublicKey{Curve: curve(), X: pk.X, Y: pk.Y}
	digest := sha256.Sum256(msg)
	if !ecdsa.Verify(&pub, digest[:], sig.R, sig.S) {
		return ErrInvalidSignature
	}
	return nil
}

// Bytes returns the uncompressed SEC1 encoding of the public key.
func (pk PublicKey) Bytes() []byte {
	if pk.X == nil || pk.Y == nil {
		return nil
	}
	out := make([]byte, 65)
	out[0] = 0x04
	pk.X.FillBytes(out[1:33])
	pk.Y.FillBytes(out[33:])
	return out
}

// ParsePublicKey decodes an uncompressed SEC1 public key.
func ParsePublicKey(b []byte) (PublicKey, error) {
	if len(b) != 65 || b[0] != 0x04 {
		return PublicKey{}, ErrInvalidPublicKey
	}
	x := new(big.Int).SetBytes(b[1:33])
	y := new(big.Int).SetBytes(b[33:])
	if !curve().IsOnCurve(x, y) {
		return PublicKey{}, ErrInvalidPublicKey
	}
	return PublicKey{X: x, Y: y}, nil
}

// Equal reports whether two public keys are identical.
func (pk PublicKey) Equal(other PublicKey) bool {
	if pk.X == nil || other.X == nil {
		return pk.X == other.X && pk.Y == other.Y
	}
	return pk.X.Cmp(other.X) == 0 && pk.Y.Cmp(other.Y) == 0
}

// Address returns a short hex identifier derived from the public key, used
// as the on-ledger address form.
func (pk PublicKey) Address() string {
	sum := sha256.Sum256(pk.Bytes())
	return hex.EncodeToString(sum[:20])
}

// String implements fmt.Stringer.
func (pk PublicKey) String() string { return pk.Address() }

// IsZero reports whether the key is the zero value.
func (pk PublicKey) IsZero() bool { return pk.X == nil && pk.Y == nil }

// Hash returns the SHA-256 digest of data. It is the canonical hash used
// throughout the library for transaction IDs, Merkle leaves, and anchors.
func Hash(data []byte) [32]byte { return sha256.Sum256(data) }

// hashScratch is the working memory of one HashConcat or ConcatHasher
// computation. The length prefixes and the digest pass through the
// hash.Hash interface, so stack buffers would escape; pooling them keeps
// the request-digest path allocation-free for real.
type hashScratch struct {
	buf [hmacBlockSize]byte
	sum [32]byte
}

var hashScratchPool = sync.Pool{New: func() any { return new(hashScratch) }}

// HashConcat hashes the concatenation of the given byte slices with
// unambiguous length prefixes. The hash state and scratch come from shared
// pools, so the call itself is allocation-free — it sits on the
// per-request digest path of the gateway. (The variadic slice is the
// caller's; hot paths with string fields should use ConcatHasher, which
// has no variadic and no []byte conversions.)
func HashConcat(parts ...[]byte) [32]byte {
	h := getSHA256()
	s := hashScratchPool.Get().(*hashScratch)
	for _, p := range parts {
		putUint64(s.buf[:8], uint64(len(p)))
		h.Write(s.buf[:8])
		h.Write(p)
	}
	h.Sum(s.sum[:0])
	out := s.sum
	hashScratchPool.Put(s)
	putSHA256(h)
	return out
}

// ConcatHasher computes the same digest as HashConcat incrementally:
// each part is length-prefixed and fed to a pooled SHA-256 state, and
// string parts stream through pooled scratch instead of converting to
// []byte — so hashing a struct of string and []byte fields allocates
// nothing at all (no variadic slice, no conversions, no escaping
// buffers). Obtain with NewConcatHasher, feed parts in order, and call
// Sum exactly once; the hasher is dead after Sum (its state returns to
// the pools).
type ConcatHasher struct {
	h hash.Hash
	s *hashScratch
}

// NewConcatHasher returns a hasher over pooled state. Every hasher
// obtained must be finished with Sum, or its state leaks from the pools.
func NewConcatHasher() ConcatHasher {
	return ConcatHasher{h: getSHA256(), s: hashScratchPool.Get().(*hashScratch)}
}

// Part feeds one length-prefixed byte part.
func (c ConcatHasher) Part(p []byte) {
	putUint64(c.s.buf[:8], uint64(len(p)))
	c.h.Write(c.s.buf[:8])
	c.h.Write(p)
}

// PartString feeds one length-prefixed string part, streamed through the
// pooled scratch so no []byte conversion is allocated. The digest is
// identical to Part of the string's bytes.
func (c ConcatHasher) PartString(p string) {
	putUint64(c.s.buf[:8], uint64(len(p)))
	c.h.Write(c.s.buf[:8])
	for len(p) > 0 {
		n := copy(c.s.buf[:], p)
		c.h.Write(c.s.buf[:n])
		p = p[n:]
	}
}

// PartSum feeds one part by commitment: its length and SHA-256 in place of
// its bytes. A digest built this way still binds every byte of the part,
// but a holder of the part's hash can compute it without streaming the part
// again — which is what lets a payload be hashed once and its sum carried
// from hop to hop. The sum is staged through the pooled scratch: handed to
// the hash interface directly it would escape to the heap.
func (c ConcatHasher) PartSum(length int, sum [32]byte) {
	putUint64(c.s.buf[:8], uint64(length))
	copy(c.s.buf[8:], sum[:])
	c.h.Write(c.s.buf[:8+len(sum)])
}

// Raw feeds bytes with no length prefix — for callers streaming an
// already-canonical encoding (one whose framing the caller owns) through
// the pooled hash state instead of staging it in a buffer first.
func (c ConcatHasher) Raw(p []byte) { c.h.Write(p) }

// RawString feeds a string with no length prefix, streamed through the
// pooled scratch so no []byte conversion is allocated.
func (c ConcatHasher) RawString(p string) {
	for len(p) > 0 {
		n := copy(c.s.buf[:], p)
		c.h.Write(c.s.buf[:n])
		p = p[n:]
	}
}

// RawUint64 feeds v as 8 big-endian bytes, no length prefix.
func (c ConcatHasher) RawUint64(v uint64) {
	putUint64(c.s.buf[:8], v)
	c.h.Write(c.s.buf[:8])
}

// RawByte feeds a single byte, no length prefix.
func (c ConcatHasher) RawByte(b byte) {
	c.s.buf[0] = b
	c.h.Write(c.s.buf[:1])
}

// Sum finalizes the digest and releases the hasher's pooled state. The
// hasher must not be used again.
func (c ConcatHasher) Sum() [32]byte {
	c.h.Sum(c.s.sum[:0])
	out := c.s.sum
	hashScratchPool.Put(c.s)
	putSHA256(c.h)
	return out
}

func putUint64(b []byte, v uint64) {
	for i := 7; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
}

// RandomBytes returns n cryptographically random bytes.
func RandomBytes(n int) ([]byte, error) {
	b := make([]byte, n)
	if _, err := io.ReadFull(rand.Reader, b); err != nil {
		return nil, fmt.Errorf("read random: %w", err)
	}
	return b, nil
}

package dcrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Errors returned by the symmetric and hybrid encryption helpers.
var (
	// ErrDecrypt is returned when a ciphertext fails authentication or is
	// malformed. The cause is deliberately opaque.
	ErrDecrypt = errors.New("dcrypto: decryption failed")
	// ErrBadKeySize is returned for symmetric keys that are not 32 bytes.
	ErrBadKeySize = errors.New("dcrypto: symmetric key must be 32 bytes")
)

// SymmetricKeySize is the AES-256 key length in bytes.
const SymmetricKeySize = 32

// NewSymmetricKey generates a fresh AES-256 key. The paper's "Symmetric key
// encryption" mechanism (§2.2) encrypts transaction data under a key shared
// between parties via PKI.
func NewSymmetricKey() ([]byte, error) {
	return RandomBytes(SymmetricKeySize)
}

// EncryptSymmetric encrypts plaintext under an AES-256-GCM key. The nonce is
// generated randomly and prepended to the ciphertext. The associated data
// binds the ciphertext to a context (for example a transaction ID) so it
// cannot be replayed elsewhere.
func EncryptSymmetric(key, plaintext, associatedData []byte) ([]byte, error) {
	aead, err := newAEAD(key)
	if err != nil {
		return nil, err
	}
	return EncryptWithAEAD(aead, plaintext, associatedData)
}

// NewAEAD builds the AES-256-GCM AEAD for a symmetric key once, so callers
// sealing many payloads under the same key (the encrypt stage's epoch key
// cache) skip the per-call AES key schedule and GCM table setup.
func NewAEAD(key []byte) (cipher.AEAD, error) { return newAEAD(key) }

// EncryptWithAEAD seals like EncryptSymmetric under a prebuilt AEAD: a
// random prepended nonce, a single exactly-sized output allocation.
func EncryptWithAEAD(aead cipher.AEAD, plaintext, associatedData []byte) ([]byte, error) {
	return AppendEncryptWithAEAD(make([]byte, 0, SealedSize(aead, len(plaintext))), aead, plaintext, associatedData)
}

// SealedSize is the exact ciphertext length EncryptWithAEAD (and its append
// form) produces for n plaintext bytes under aead: nonce, body, and tag.
func SealedSize(aead cipher.AEAD, n int) int {
	return aead.NonceSize() + n + aead.Overhead()
}

// AppendEncryptWithAEAD seals like EncryptWithAEAD but appends the
// ciphertext to dst, so a caller framing it inside a larger buffer (the
// binary envelope) pays one allocation for the whole frame. Give dst
// SealedSize free capacity. plaintext must not overlap dst.
func AppendEncryptWithAEAD(dst []byte, aead cipher.AEAD, plaintext, associatedData []byte) ([]byte, error) {
	base, ns := len(dst), aead.NonceSize()
	out := append(dst, make([]byte, ns)...)
	if _, err := io.ReadFull(rand.Reader, out[base:]); err != nil {
		return nil, fmt.Errorf("read random: %w", err)
	}
	return aead.Seal(out, out[base:], plaintext, associatedData), nil
}

// EncryptSegmentsWithAEAD seals N plaintext segments with a single AEAD
// invocation: the segments are concatenated into one length-prefixed frame
// (uvarint count, then uvarint length + bytes per segment) and sealed in
// place, so a group of N payloads pays one random-nonce read, one GCM pass,
// and one authentication tag instead of N of each. The frame is staged
// directly inside the output buffer and encrypted in place — the whole
// group seal is a single exactly-sized allocation. The middleware batch
// stage's group seal is the intended caller; DecryptSegmentsWithAEAD
// reverses it.
func EncryptSegmentsWithAEAD(aead cipher.AEAD, segments [][]byte, associatedData []byte) ([]byte, error) {
	out := make([]byte, 0, SealedSegmentsSize(aead, segments))
	return AppendEncryptSegmentsWithAEAD(out, aead, segments, associatedData)
}

// SealedSegmentsSize is the exact ciphertext length EncryptSegmentsWithAEAD
// (and its append form) produces for segments under aead: nonce,
// length-prefixed frame, and tag. Callers embedding the ciphertext inside a
// larger buffer size it with this.
func SealedSegmentsSize(aead cipher.AEAD, segments [][]byte) int {
	total := uvarintLen(uint64(len(segments)))
	for _, s := range segments {
		total += uvarintLen(uint64(len(s))) + len(s)
	}
	return aead.NonceSize() + total + aead.Overhead()
}

// AppendEncryptSegmentsWithAEAD seals like EncryptSegmentsWithAEAD but
// appends the ciphertext to dst instead of allocating its own buffer, so a
// caller staging the sealed group inside a larger frame (the binary group
// envelope) pays one allocation for the whole frame rather than a
// ciphertext buffer plus a copy. Give dst SealedSegmentsSize free capacity;
// with less, append reallocates and the fusion benefit is lost, but the
// output bytes are the same.
func AppendEncryptSegmentsWithAEAD(dst []byte, aead cipher.AEAD, segments [][]byte, associatedData []byte) ([]byte, error) {
	ns := aead.NonceSize()
	base := len(dst)
	out := dst
	if base+ns <= cap(dst) {
		out = dst[:base+ns]
	} else {
		out = append(dst, make([]byte, ns)...)
	}
	if _, err := io.ReadFull(rand.Reader, out[base:]); err != nil {
		return nil, fmt.Errorf("read random: %w", err)
	}
	out = binary.AppendUvarint(out, uint64(len(segments)))
	for _, s := range segments {
		out = binary.AppendUvarint(out, uint64(len(s)))
		out = append(out, s...)
	}
	// In-place seal: dst resumes exactly where the plaintext starts, which
	// cipher.AEAD documents as the supported exact-overlap form.
	return aead.Seal(out[:base+ns], out[base:base+ns], out[base+ns:], associatedData), nil
}

// DecryptSegmentsWithAEAD reverses EncryptSegmentsWithAEAD, returning the
// plaintext segments. The returned slices alias one decrypted buffer.
func DecryptSegmentsWithAEAD(aead cipher.AEAD, ciphertext, associatedData []byte) ([][]byte, error) {
	ns := aead.NonceSize()
	if len(ciphertext) < ns {
		return nil, ErrDecrypt
	}
	pt, err := aead.Open(nil, ciphertext[:ns], ciphertext[ns:], associatedData)
	if err != nil {
		return nil, ErrDecrypt
	}
	return splitSegments(pt)
}

// DecryptSegments is DecryptSegmentsWithAEAD for callers holding the raw
// symmetric key (envelope recipients, which unwrap the data key per group).
func DecryptSegments(key, ciphertext, associatedData []byte) ([][]byte, error) {
	aead, err := newAEAD(key)
	if err != nil {
		return nil, err
	}
	return DecryptSegmentsWithAEAD(aead, ciphertext, associatedData)
}

// splitSegments parses the length-prefixed segment frame. Lengths are
// validated against the remaining buffer, so a malformed frame is a
// rejection, never a panic — although the frame was authenticated, the
// decoder stays defensive.
func splitSegments(pt []byte) ([][]byte, error) {
	count, n := binary.Uvarint(pt)
	if n <= 0 || count > uint64(len(pt)) {
		return nil, ErrDecrypt
	}
	pt = pt[n:]
	out := make([][]byte, 0, count)
	for i := uint64(0); i < count; i++ {
		l, n := binary.Uvarint(pt)
		if n <= 0 || l > uint64(len(pt)-n) {
			return nil, ErrDecrypt
		}
		out = append(out, pt[n:n+int(l):n+int(l)])
		pt = pt[n+int(l):]
	}
	if len(pt) != 0 {
		return nil, ErrDecrypt
	}
	return out, nil
}

// uvarintLen is the encoded size of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// DecryptSymmetric reverses EncryptSymmetric.
func DecryptSymmetric(key, ciphertext, associatedData []byte) ([]byte, error) {
	aead, err := newAEAD(key)
	if err != nil {
		return nil, err
	}
	if len(ciphertext) < aead.NonceSize() {
		return nil, ErrDecrypt
	}
	nonce, body := ciphertext[:aead.NonceSize()], ciphertext[aead.NonceSize():]
	pt, err := aead.Open(nil, nonce, body, associatedData)
	if err != nil {
		return nil, ErrDecrypt
	}
	return pt, nil
}

func newAEAD(key []byte) (cipher.AEAD, error) {
	if len(key) != SymmetricKeySize {
		return nil, ErrBadKeySize
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("new aes cipher: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("new gcm: %w", err)
	}
	return aead, nil
}

// HybridCiphertext is the result of ECIES-style encryption to ONE recipient
// public key: an ephemeral public key plus an AES-GCM ciphertext (random
// nonce prepended) under the shared secret. It carries the session master
// secret to a certified key and a TEE's confidential inputs and outputs. The
// envelope's wrapped-key table — one secret to many recipients — is
// WrapToRecipients, which spends one ephemeral key on the whole set instead
// of one HybridCiphertext per member.
type HybridCiphertext struct {
	EphemeralPub []byte `json:"ephemeralPub"`
	Ciphertext   []byte `json:"ciphertext"`
}

// EncryptHybrid encrypts plaintext to the holder of recipient's private key
// using ephemeral ECDH over P-256 followed by AES-256-GCM.
func EncryptHybrid(recipient PublicKey, plaintext, associatedData []byte) (HybridCiphertext, error) {
	ecdhCurve := ecdh.P256()
	eph, err := ecdhCurve.GenerateKey(rand.Reader)
	if err != nil {
		return HybridCiphertext{}, fmt.Errorf("generate ephemeral key: %w", err)
	}
	recipECDH, err := ecdhCurve.NewPublicKey(recipient.Bytes())
	if err != nil {
		return HybridCiphertext{}, fmt.Errorf("recipient key: %w", ErrInvalidPublicKey)
	}
	shared, err := eph.ECDH(recipECDH)
	if err != nil {
		return HybridCiphertext{}, fmt.Errorf("ecdh: %w", err)
	}
	key := deriveAEADKey(shared, eph.PublicKey().Bytes())
	ct, err := EncryptSymmetric(key, plaintext, associatedData)
	if err != nil {
		return HybridCiphertext{}, err
	}
	return HybridCiphertext{EphemeralPub: eph.PublicKey().Bytes(), Ciphertext: ct}, nil
}

// DecryptHybrid reverses EncryptHybrid with the recipient's private key.
func DecryptHybrid(recipient *PrivateKey, ct HybridCiphertext, associatedData []byte) ([]byte, error) {
	ecdhCurve := ecdh.P256()
	priv, err := ecdhCurve.NewPrivateKey(recipient.key.D.FillBytes(make([]byte, 32)))
	if err != nil {
		return nil, fmt.Errorf("recipient private key: %w", err)
	}
	ephPub, err := ecdhCurve.NewPublicKey(ct.EphemeralPub)
	if err != nil {
		return nil, ErrDecrypt
	}
	shared, err := priv.ECDH(ephPub)
	if err != nil {
		return nil, ErrDecrypt
	}
	key := deriveAEADKey(shared, ct.EphemeralPub)
	return DecryptSymmetric(key, ct.Ciphertext, associatedData)
}

// deriveAEADKey is a single-block HKDF-like expansion binding the shared
// secret to the ephemeral public key.
func deriveAEADKey(shared, ephPub []byte) []byte {
	h := sha256.New()
	h.Write([]byte("dltprivacy/ecies/v1"))
	h.Write(shared)
	h.Write(ephPub)
	return h.Sum(nil)
}

// WrappedKeySize is the length of one recipient's wrap: the secret XOR its
// key-encryption key, nothing added (see WrapToRecipients).
const WrappedKeySize = SymmetricKeySize

// KeyCommitmentSize is the length of the commitment WrapToRecipients returns
// beside the wraps, one for the whole recipient set.
const KeyCommitmentSize = sha256.Size

// WrapToRecipients wraps one 32-byte secret to every recipient under a SINGLE
// ephemeral P-256 key: per recipient one ECDH, a key-encryption key
//
//	KEK_i  = SHA-256("dltprivacy/ecies-multi/v2" ‖ ECDH(eph, pub_i) ‖ ephPub ‖ pub_i)
//	wrap_i = secret ⊕ KEK_i
//
// and for the whole set one commitment to the secret and the associated data,
//
//	commit = SHA-256("dltprivacy/ecies-multi/commit/v2" ‖ len(ad) ‖ ad ‖ secret)
//
// so a wrap is 32 bytes and the set shares the 65-byte ephPub and the 32-byte
// commit. This is how a data key gets "shared over the network using PKI"
// (§2.2) to a channel.
//
// Why the pad is enough: each KEK is a fresh SHA-256 output that masks exactly
// one secret, which is also all AES-GCM under the KEK at a fixed nonce ever
// was for a 32-byte message — the key XOR a one-time keystream. The GCM tag's
// other job, refusing a tampered wrap, is the commitment's: Unwrap recomputes
// it from the key it recovers, so a flipped bit in any field, a wrap filed
// under another recipient or other associated data yields no key. And it
// checks something per-recipient tags never did: every recipient that
// unwraps recovers the same secret, the one the commitment names.
//
// Why one ephemeral key is enough: ECIES is reproducible, and a reproducible
// scheme keeps each recipient's security when its randomness is reused across
// recipients (Bellare, Boldyreva and Staddon, "Randomness Re-use in
// Multi-recipient Encryption Schemes", PKC 2003). Binding pub_i into the KEK
// gives every recipient a distinct key even where two shared secrets could be
// related. The one rule that keeps it safe: an ephemeral key wraps exactly
// one secret — two secrets under one KEK would hand an observer their XOR.
// The function is one-shot to make that unrepresentable: the ephemeral
// private key is a local of this call, never returned and never stored.
//
// The KEK binds the recipient's key, not its name: the same public key listed
// under two names unwraps for both, and a wrap moved under another
// recipient's name does not unwrap.
func WrapToRecipients(recipients map[string]PublicKey, secret, associatedData []byte) (ephPub, commit []byte, wraps map[string][]byte, err error) {
	if len(secret) != SymmetricKeySize {
		return nil, nil, nil, ErrBadKeySize
	}
	p256 := ecdh.P256()
	eph, err := p256.GenerateKey(rand.Reader)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("generate ephemeral key: %w", err)
	}
	ephPub = eph.PublicKey().Bytes()
	wraps = make(map[string][]byte, len(recipients))
	// One backing array for the commitment and every wrap: n+1 small
	// allocations become one.
	buf := make([]byte, KeyCommitmentSize+len(recipients)*WrappedKeySize)
	commit = buf[:KeyCommitmentSize:KeyCommitmentSize]
	sum := keyCommitment(secret, associatedData)
	copy(commit, sum[:])
	at := KeyCommitmentSize
	for id, recipient := range recipients {
		pub := recipient.Bytes()
		recipECDH, err := p256.NewPublicKey(pub)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("recipient %s: %w", id, ErrInvalidPublicKey)
		}
		shared, err := eph.ECDH(recipECDH)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("ecdh for %s: %w", id, err)
		}
		kek := deriveWrapKey(shared, ephPub, pub)
		wrap := buf[at : at+WrappedKeySize : at+WrappedKeySize]
		subtle.XORBytes(wrap, secret, kek[:])
		wraps[id], at = wrap, at+WrappedKeySize
	}
	return ephPub, commit, wraps, nil
}

// Unwrap recovers the secret WrapToRecipients wrapped for the holder of
// recipient and checks it against the set's commitment. Every failure — a
// malformed or off-curve ephPub, a commitment or wrap of the wrong length, a
// wrap made for another key or under other associated data, a flipped bit
// anywhere, a wrap that decodes to a secret the commitment does not name — is
// ErrDecrypt, deliberately opaque.
func Unwrap(recipient *PrivateKey, ephPub, commit, wrap, associatedData []byte) ([]byte, error) {
	if len(commit) != KeyCommitmentSize || len(wrap) != WrappedKeySize {
		return nil, ErrDecrypt
	}
	p256 := ecdh.P256()
	priv, err := p256.NewPrivateKey(recipient.key.D.FillBytes(make([]byte, 32)))
	if err != nil {
		return nil, fmt.Errorf("recipient private key: %w", err)
	}
	peer, err := p256.NewPublicKey(ephPub)
	if err != nil {
		return nil, ErrDecrypt
	}
	shared, err := priv.ECDH(peer)
	if err != nil {
		return nil, ErrDecrypt
	}
	kek := deriveWrapKey(shared, ephPub, recipient.Public().Bytes())
	secret := make([]byte, SymmetricKeySize)
	subtle.XORBytes(secret, wrap, kek[:])
	if sum := keyCommitment(secret, associatedData); subtle.ConstantTimeCompare(sum[:], commit) != 1 {
		return nil, ErrDecrypt
	}
	return secret, nil
}

// deriveWrapKey derives a recipient's key-encryption key. Its domain differs
// from deriveAEADKey's, so no (shared secret, ephemeral key) pair yields the
// same key under both constructions.
func deriveWrapKey(shared, ephPub, recipientPub []byte) [32]byte {
	c := NewConcatHasher()
	c.RawString("dltprivacy/ecies-multi/v2")
	c.Raw(shared)
	c.Raw(ephPub)
	c.Raw(recipientPub)
	return c.Sum()
}

// keyCommitment is the commitment to a wrapped secret and the associated data
// it was wrapped under, in a domain of its own.
func keyCommitment(secret, associatedData []byte) [32]byte {
	c := NewConcatHasher()
	c.RawString("dltprivacy/ecies-multi/commit/v2")
	c.Part(associatedData)
	c.Raw(secret)
	return c.Sum()
}

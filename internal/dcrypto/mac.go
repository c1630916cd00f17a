package dcrypto

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding"
	"errors"
	"fmt"
	"hash"
	"sync"
)

// ErrInvalidMAC is returned when a message authentication code does not
// verify. Like ErrDecrypt, the cause is deliberately opaque.
var ErrInvalidMAC = errors.New("dcrypto: invalid mac")

// MACSize is the HMAC-SHA256 output length in bytes.
const MACSize = 32

// MACKeySize is the symmetric authentication key length handed out by the
// session layer (one SHA-256 block would also work; 32 bytes matches the
// AES-256 and HKDF output sizes used everywhere else).
const MACKeySize = 32

// sha256Pool recycles SHA-256 states across the hashing hot paths
// (HashConcat, MAC, HKDF): request digests and request MACs are computed
// several times per gateway submission, and a pooled state turns each of
// those from two heap allocations into zero.
var sha256Pool = sync.Pool{New: func() any { return sha256.New() }}

func getSHA256() hash.Hash {
	h := sha256Pool.Get().(hash.Hash)
	h.Reset()
	return h
}

func putSHA256(h hash.Hash) { sha256Pool.Put(h) }

// hmacBlockSize is the SHA-256 block length HMAC pads keys to.
const hmacBlockSize = 64

// macScratch is the working memory of one MAC computation. Pads and sums
// would escape to the heap if stack-allocated (they pass through the
// hash.Hash interface), so they are pooled alongside the hash states.
type macScratch struct {
	ipad, opad [hmacBlockSize]byte
	sum        [32]byte
}

var macScratchPool = sync.Pool{New: func() any { return new(macScratch) }}

// MAC computes HMAC-SHA256 (RFC 2104) of the concatenated parts under key.
// It is implemented over pooled hash states and scratch rather than
// crypto/hmac so the per-request authentication path of the gateway
// allocates nothing.
func MAC(key []byte, parts ...[]byte) [32]byte {
	s := macScratchPool.Get().(*macScratch)
	h := getSHA256()
	k := key
	if len(k) > hmacBlockSize {
		h.Write(k)
		h.Sum(s.sum[:0])
		h.Reset()
		k = s.sum[:]
	}
	copy(s.ipad[:], k)
	copy(s.opad[:], k)
	for i := len(k); i < hmacBlockSize; i++ {
		s.ipad[i], s.opad[i] = 0, 0
	}
	for i := range s.ipad {
		s.ipad[i] ^= 0x36
		s.opad[i] ^= 0x5c
	}
	h.Write(s.ipad[:])
	for _, p := range parts {
		h.Write(p)
	}
	h.Sum(s.sum[:0])
	h.Reset()
	h.Write(s.opad[:])
	h.Write(s.sum[:])
	h.Sum(s.sum[:0])
	out := s.sum
	putSHA256(h)
	macScratchPool.Put(s)
	return out
}

// MACKey is an HMAC-SHA256 key with its inner and outer hash states
// precomputed: the pad blocks are derived AND compressed once at key
// establishment, and each Sum restores the one-block-deep states instead
// of re-deriving the pads and re-hashing them — two of the four SHA-256
// compressions of a short-message HMAC disappear from the per-request
// path. A long-lived verifier (a session record checking a MAC per
// request) should hold one of these. Sum and Verify are safe for
// concurrent use; the states are read-only after New.
type MACKey struct {
	// ipadState and opadState are the marshaled SHA-256 states after
	// absorbing the xor-padded key block, restored into a pooled hash via
	// encoding.BinaryUnmarshaler (which every stdlib hash implements).
	ipadState, opadState []byte
}

// NewMACKey precomputes the HMAC states for key. Tags are byte-identical
// to MAC under the same key.
func NewMACKey(key []byte) *MACKey {
	k := key
	if len(k) > hmacBlockSize {
		sum := sha256.Sum256(k)
		k = sum[:]
	}
	var ipad, opad [hmacBlockSize]byte
	copy(ipad[:], k)
	copy(opad[:], k)
	for i := range ipad {
		ipad[i] ^= 0x36
		opad[i] ^= 0x5c
	}
	return &MACKey{ipadState: absorbedState(ipad[:]), opadState: absorbedState(opad[:])}
}

// absorbedState returns the marshaled SHA-256 state after absorbing b.
func absorbedState(b []byte) []byte {
	h := sha256.New()
	h.Write(b)
	state, err := h.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		// The stdlib SHA-256 marshaler cannot fail; a change that makes it
		// fail must not silently produce wrong digests.
		panic("dcrypto: marshal sha256 state: " + err.Error())
	}
	return state
}

// restoreState loads a precomputed state into h.
func restoreState(h hash.Hash, state []byte) {
	if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(state); err != nil {
		panic("dcrypto: restore sha256 state: " + err.Error())
	}
}

// macState bundles one hash state with its staging scratch so the
// per-request Sum pays one pool round trip, not two. The hash needs no
// Reset: restoreState overwrites it completely.
type macState struct {
	h hash.Hash
	s macScratch
}

var macStatePool = sync.Pool{New: func() any { return &macState{h: sha256.New()} }}

// write feeds msg to the hash through the pooled scratch rather than
// directly: a caller's stack buffer passed straight into hash.Hash would
// escape to the heap at every call site.
func (st *macState) write(msg []byte) {
	for len(msg) > 0 {
		n := copy(st.s.ipad[:], msg)
		st.h.Write(st.s.ipad[:n])
		msg = msg[n:]
	}
}

// Sum computes the HMAC-SHA256 tag of msg, allocation-free.
func (k *MACKey) Sum(msg []byte) [32]byte {
	st := macStatePool.Get().(*macState)
	h, s := st.h, &st.s
	restoreState(h, k.ipadState)
	st.write(msg)
	h.Sum(s.sum[:0])
	restoreState(h, k.opadState)
	h.Write(s.sum[:])
	h.Sum(s.sum[:0])
	out := s.sum
	macStatePool.Put(st)
	return out
}

// Verify checks a tag over msg in constant time, with the same contract
// as VerifyMAC.
func (k *MACKey) Verify(msg, tag []byte) error {
	if len(tag) != MACSize {
		return ErrInvalidMAC
	}
	want := k.Sum(msg)
	if subtle.ConstantTimeCompare(want[:], tag) != 1 {
		return ErrInvalidMAC
	}
	return nil
}

// HashPrefix is SHA-256 with a fixed prefix already absorbed — the MACKey
// technique applied to a plain hash. A caller that hashes many messages
// sharing a long constant head (the encrypt stage's envelope frames, whose
// wrapped-key table is constant for a key epoch) absorbs the head once and
// pays per message only for the bytes that differ. Sum is safe for
// concurrent use; the state is read-only after NewHashPrefix.
type HashPrefix struct {
	// state is the marshaled SHA-256 state after the prefix; it carries the
	// partial last block, so the prefix need not be block-aligned.
	state []byte
}

// NewHashPrefix absorbs prefix.
func NewHashPrefix(prefix []byte) HashPrefix {
	return HashPrefix{state: absorbedState(prefix)}
}

// Sum returns SHA-256(prefix ‖ suffix), allocation-free.
func (p HashPrefix) Sum(suffix []byte) [32]byte {
	st := macStatePool.Get().(*macState)
	restoreState(st.h, p.state)
	st.write(suffix)
	st.h.Sum(st.s.sum[:0])
	out := st.s.sum
	macStatePool.Put(st)
	return out
}

// VerifyMAC checks an HMAC-SHA256 tag over msg in constant time. It returns
// ErrInvalidMAC for a tag of the wrong length or wrong value — a tag with
// no bytes (the zero value, or one JSON-decoded from a hostile wire
// message) is invalid, never a panic.
func VerifyMAC(key, msg, tag []byte) error {
	if len(tag) != MACSize {
		return ErrInvalidMAC
	}
	want := MAC(key, msg)
	if subtle.ConstantTimeCompare(want[:], tag) != 1 {
		return ErrInvalidMAC
	}
	return nil
}

// HKDF derives n bytes from a secret via RFC 5869 extract-and-expand over
// HMAC-SHA256. salt is the optional non-secret randomizer (the session
// layer passes the handshake transcript digest, binding the derived key to
// the verified handshake) and info the context label separating uses of the
// same secret. n is capped at 255 blocks per the RFC.
func HKDF(secret, salt, info []byte, n int) ([]byte, error) {
	if len(secret) == 0 {
		return nil, errors.New("dcrypto: hkdf needs a secret")
	}
	if n <= 0 || n > 255*MACSize {
		return nil, fmt.Errorf("dcrypto: hkdf output length %d outside (0, %d]", n, 255*MACSize)
	}
	prk := MAC(salt, secret) // extract
	out := make([]byte, 0, ((n+MACSize-1)/MACSize)*MACSize)
	var t []byte
	for i := byte(1); len(out) < n; i++ {
		block := MAC(prk[:], t, info, []byte{i})
		out = append(out, block[:]...)
		t = out[len(out)-MACSize:]
	}
	return out[:n], nil
}

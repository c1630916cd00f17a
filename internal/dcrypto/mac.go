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

// sha256Pool recycles SHA-256 states across the plain-hash hot paths
// (HashConcat, ConcatHasher): request digests are computed several times per
// gateway submission, and a pooled state turns each of those from two heap
// allocations into zero. The HMAC paths pool theirs with scratch (macState).
var sha256Pool = sync.Pool{New: func() any { return sha256.New() }}

func getSHA256() hash.Hash {
	h := sha256Pool.Get().(hash.Hash)
	h.Reset()
	return h
}

func putSHA256(h hash.Hash) { sha256Pool.Put(h) }

// hmacBlockSize is the SHA-256 block length HMAC pads keys to.
const hmacBlockSize = 64

// sha256StateSize is the length of a marshaled SHA-256 state: crypto/sha256's
// magic, eight state words, one block of pending input and the length.
const sha256StateSize = 108

// macState is the working memory of one HMAC computation: a hash state and
// the scratch every input is staged through. Pads, sums and callers' stack
// buffers would escape to the heap if handed to the hash.Hash interface
// directly, so they are copied into this pooled object first. The hash is
// Reset or restored by whoever uses it.
type macState struct {
	h          hash.Hash
	ipad, opad [hmacBlockSize]byte
	sum        [32]byte
	state      [sha256StateSize]byte
}

var macStatePool = sync.Pool{New: func() any { return &macState{h: sha256.New()} }}

// write feeds msg to the hash through the pooled scratch rather than
// directly: a caller's stack buffer passed straight into hash.Hash would
// escape to the heap at every call site. It stages through ipad, so it runs
// only once ipad has been absorbed or before it is derived.
func (st *macState) write(msg []byte) {
	for len(msg) > 0 {
		n := copy(st.ipad[:], msg)
		st.h.Write(st.ipad[:n])
		msg = msg[n:]
	}
}

// pads derives the xor-padded key blocks of RFC 2104 into ipad and opad; a
// key longer than a block is hashed first.
func (st *macState) pads(key []byte) {
	if len(key) > hmacBlockSize {
		st.h.Reset()
		st.write(key)
		key = st.h.Sum(st.sum[:0])
	}
	n := copy(st.ipad[:], key)
	copy(st.opad[:], key)
	clear(st.ipad[n:])
	clear(st.opad[n:])
	for i := range st.ipad {
		st.ipad[i] ^= 0x36
		st.opad[i] ^= 0x5c
	}
}

// mac returns HMAC-SHA256 of the concatenated parts under key. Nothing it is
// given escapes: every byte is copied into st before it is hashed.
func (st *macState) mac(key []byte, parts ...[]byte) [32]byte {
	st.pads(key)
	h := st.h
	h.Reset()
	h.Write(st.ipad[:])
	for _, p := range parts {
		st.write(p)
	}
	h.Sum(st.sum[:0])
	h.Reset()
	h.Write(st.opad[:])
	h.Write(st.sum[:])
	h.Sum(st.sum[:0])
	return st.sum
}

// MAC computes HMAC-SHA256 (RFC 2104) of the concatenated parts under key.
// It is implemented over pooled hash states and scratch rather than
// crypto/hmac so that it allocates nothing, and a caller's stack buffers stay
// on its stack.
func MAC(key []byte, parts ...[]byte) [32]byte {
	st := macStatePool.Get().(*macState)
	out := st.mac(key, parts...)
	macStatePool.Put(st)
	return out
}

// MACKey is an HMAC-SHA256 key with its inner and outer hash states
// precomputed: the pad blocks are derived AND compressed once at key
// establishment, and each Sum restores the one-block-deep states instead
// of re-deriving the pads and re-hashing them — two of the four SHA-256
// compressions of a short-message HMAC disappear from the per-request
// path. A long-lived verifier (a session record checking a MAC per
// request) should hold one of these, by value if it likes: the states are
// inline. Sum and Verify are safe for concurrent use; the states are
// read-only after NewMACKey.
type MACKey struct {
	// ipad and opad are the marshaled SHA-256 states after absorbing the
	// xor-padded key block, restored into a pooled hash via
	// encoding.BinaryUnmarshaler (which every stdlib hash implements).
	ipad, opad [sha256StateSize]byte
}

// NewMACKey precomputes the HMAC states for key. Tags are byte-identical
// to MAC under the same key. The key it returns is its one allocation, and
// none at all where the compiler keeps it on the caller's stack: a holder
// by value writes *NewMACKey(key).
func NewMACKey(key []byte) *MACKey {
	k := new(MACKey)
	k.init(key)
	return k
}

// init computes k's states through pooled scratch, so that k itself never
// reaches the hash interface and can live wherever its holder does.
func (k *MACKey) init(key []byte) {
	st := macStatePool.Get().(*macState)
	st.pads(key)
	st.h.Reset()
	st.h.Write(st.ipad[:])
	k.ipad = st.saveState()
	st.h.Reset()
	st.h.Write(st.opad[:])
	k.opad = st.saveState()
	macStatePool.Put(st)
}

// saveState returns the marshaled state of st's hash, staged in st.state.
func (st *macState) saveState() [sha256StateSize]byte {
	if s := appendState(st.state[:0], st.h); len(s) != sha256StateSize {
		panic(fmt.Sprintf("dcrypto: sha256 state is %d bytes, not %d", len(s), sha256StateSize))
	}
	return st.state
}

// appendState appends the marshaled state of h to dst: through AppendBinary
// where the hash offers it (crypto/sha256 does from go1.24), which writes
// into dst's spare capacity, through MarshalBinary's fresh slice otherwise.
func appendState(dst []byte, h hash.Hash) []byte {
	var err error
	if a, ok := h.(interface{ AppendBinary([]byte) ([]byte, error) }); ok {
		dst, err = a.AppendBinary(dst)
	} else {
		var state []byte
		state, err = h.(encoding.BinaryMarshaler).MarshalBinary()
		dst = append(dst, state...)
	}
	if err != nil {
		// The stdlib SHA-256 marshaler cannot fail; a change that makes it
		// fail must not silently produce wrong digests.
		panic("dcrypto: marshal sha256 state: " + err.Error())
	}
	return dst
}

// restoreState loads a precomputed state into h.
func restoreState(h hash.Hash, state []byte) {
	if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(state); err != nil {
		panic("dcrypto: restore sha256 state: " + err.Error())
	}
}

// Sum computes the HMAC-SHA256 tag of msg, allocation-free.
func (k *MACKey) Sum(msg []byte) [32]byte {
	st := macStatePool.Get().(*macState)
	h := st.h
	restoreState(h, k.ipad[:])
	st.write(msg)
	h.Sum(st.sum[:0])
	restoreState(h, k.opad[:])
	h.Write(st.sum[:])
	h.Sum(st.sum[:0])
	out := st.sum
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
	h := sha256.New()
	h.Write(prefix)
	return HashPrefix{state: appendState(make([]byte, 0, sha256StateSize), h)}
}

// Sum returns SHA-256(prefix ‖ suffix), allocation-free.
func (p HashPrefix) Sum(suffix []byte) [32]byte {
	st := macStatePool.Get().(*macState)
	restoreState(st.h, p.state)
	st.write(suffix)
	st.h.Sum(st.sum[:0])
	out := st.sum
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

// HKDF fills dst from a secret via RFC 5869 extract-and-expand over
// HMAC-SHA256. salt is the optional non-secret randomizer (the session
// layer passes the handshake transcript digest, binding the derived key to
// the verified handshake) and info the context label separating uses of the
// same secret. len(dst) is the output length, capped at 255 blocks per the
// RFC; dst must not overlap the inputs. It allocates nothing: the
// intermediate keys and blocks live on its stack and every input is staged
// through pooled scratch, so a caller's stack buffers stay there too.
func HKDF(dst, secret, salt, info []byte) error {
	if len(secret) == 0 {
		return errors.New("dcrypto: hkdf needs a secret")
	}
	if len(dst) == 0 || len(dst) > 255*MACSize {
		return fmt.Errorf("dcrypto: hkdf output length %d outside (0, %d]", len(dst), 255*MACSize)
	}
	st := macStatePool.Get().(*macState)
	prk := st.mac(salt, secret) // extract
	var t [MACSize]byte
	var ctr [1]byte
	prev := t[:0]
	for len(dst) > 0 {
		ctr[0]++
		t = st.mac(prk[:], prev, info, ctr[:])
		prev = t[:]
		dst = dst[copy(dst, t[:]):]
	}
	macStatePool.Put(st)
	return nil
}

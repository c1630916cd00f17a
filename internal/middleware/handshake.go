package middleware

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"
	"unsafe"

	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/pki"
)

// The session handshake as it crosses a network: four 0xDC frames on the
// session.open topic, built from the request codec's primitives.
//
//	full hello   principal, nonce, issue time, certificate, signature
//	resume hello resume id, nonce, issue time, HMAC(master, transcript digest)
//	grant        session key, principal, expiry; after a full hello also the
//	             resume id and the master secret sealed to the certified key
//	resume miss  nothing: "this gateway does not hold that id, send the full
//	             hello" — a reply, not an error
//
// Times travel as Unix nanoseconds. The certificate nests in its pki
// binary encoding (pki.Certificate.AppendBinary), the way a wire request
// nests it: the pki package owns that format, and the frame carries it as
// one length-prefixed field. Neither the master secret nor the session's
// MAC key is ever a field: the master travels only as dcrypto.EncryptHybrid
// ciphertext under the certified key, and both sides derive the MAC key
// from it.

// helloNonceBytes is the length of every hello's nonce, full or resumed: the
// only length newSessionHelloAt and Handshaker draw, and the only one a
// gateway accepts — so a nonce it remembers costs it a fixed 16 bytes, not
// whatever a frame can carry.
const helloNonceBytes = 16

// helloNonce returns a full hello's nonce as the key the nonce table holds.
func helloNonce(b []byte) ([helloNonceBytes]byte, error) {
	if len(b) != helloNonceBytes {
		return [helloNonceBytes]byte{}, fmt.Errorf("middleware: hello nonce is %d bytes, want %d", len(b), helloNonceBytes)
	}
	return [helloNonceBytes]byte(b), nil
}

// resumeHello is the handshake of a principal that holds a master secret:
// which secret, a fresh nonce and issue time for the replay window, and the
// tag that proves possession.
type resumeHello struct {
	ID       [resumeIDBytes]byte
	Nonce    [helloNonceBytes]byte
	IssuedAt time.Time
	Tag      []byte
	TraceID  uint64
}

// resumeDigestDomain separates resume transcripts from every other digest.
const resumeDigestDomain = "middleware/session/resume/v1"

// resumeDigest is the transcript of a resume hello: what its tag is an HMAC
// of, and the salt of the MAC key of the session it opens. It is
// dcrypto.HashConcat of the domain, id, nonce and issue time, staged on the
// stack and hashed once (the Request.Digest idiom).
func resumeDigest(id [resumeIDBytes]byte, nonce [helloNonceBytes]byte, issuedAt time.Time) [32]byte {
	var buf [4*8 + len(resumeDigestDomain) + resumeIDBytes + helloNonceBytes + 8]byte
	b := appendDigestPart(buf[:0], resumeDigestDomain)
	b = binary.BigEndian.AppendUint64(b, resumeIDBytes)
	b = append(b, id[:]...)
	b = binary.BigEndian.AppendUint64(b, helloNonceBytes)
	b = append(b, nonce[:]...)
	b = binary.BigEndian.AppendUint64(b, 8)
	b = binary.BigEndian.AppendUint64(b, uint64(issuedAt.UnixNano()))
	return dcrypto.Hash(b)
}

// sessionMACKey derives a session's request-authentication key: from the
// handshake's secret, salted with its transcript digest, labelled with the
// token. The gateway and the client each compute it. The label is staged on
// the stack, and HKDF writes the key into the array returned: nothing here
// allocates for a token of the length the gateway issues.
func sessionMACKey[T string | []byte](secret []byte, digest [32]byte, token T) ([dcrypto.MACKeySize]byte, error) {
	var label [len(sessionMACInfo) + 2*sessionTokenBytes]byte
	info := append(append(label[:0], sessionMACInfo...), token...)
	var key [dcrypto.MACKeySize]byte
	if err := dcrypto.HKDF(key[:], secret, digest[:], info); err != nil {
		return key, fmt.Errorf("session mac key: %w", err)
	}
	return key, nil
}

func appendTime(dst []byte, t time.Time) []byte {
	return binary.AppendUvarint(dst, uint64(t.UnixNano()))
}

// timeSize is the encoded size of appendTime's t.
func timeSize(t time.Time) int { return uvarintSize(uint64(t.UnixNano())) }

func (r *frameReader) time() time.Time { return time.Unix(0, int64(r.uvarint())) }

// encodeHelloFrame marshals a full hello.
func encodeHelloFrame(h *SessionHello) ([]byte, error) {
	if !h.Sig.WellFormed() {
		return nil, fmt.Errorf("middleware: encode hello: %w", dcrypto.ErrInvalidSignature)
	}
	var certBuf [certStackBytes]byte
	cert, err := h.Cert.AppendBinary(certBuf[:0])
	if err != nil {
		return nil, fmt.Errorf("middleware: encode hello: %w", err)
	}
	sig := h.Sig.Bytes()
	out := carveFrame(2 +
		lenPrefixedSize(len(h.Principal)) +
		lenPrefixedSize(len(h.Nonce)) +
		timeSize(h.IssuedAt) +
		lenPrefixedSize(len(cert)) +
		lenPrefixedSize(len(sig)) +
		uvarintSize(h.TraceID))
	out = append(out, binaryMagic, binaryKindHello)
	out = appendLenPrefixed(out, []byte(h.Principal))
	out = appendLenPrefixed(out, h.Nonce)
	out = appendTime(out, h.IssuedAt)
	out = appendLenPrefixed(out, cert)
	out = appendLenPrefixed(out, sig)
	return binary.AppendUvarint(out, h.TraceID), nil
}

// encodeResumeFrame marshals a resume hello.
func encodeResumeFrame(h *resumeHello) []byte {
	out := carveFrame(2 +
		lenPrefixedSize(resumeIDBytes) +
		lenPrefixedSize(helloNonceBytes) +
		timeSize(h.IssuedAt) +
		lenPrefixedSize(len(h.Tag)) +
		uvarintSize(h.TraceID))
	out = append(out, binaryMagic, binaryKindResume)
	out = appendLenPrefixed(out, h.ID[:])
	out = appendLenPrefixed(out, h.Nonce[:])
	out = appendTime(out, h.IssuedAt)
	out = appendLenPrefixed(out, h.Tag)
	return binary.AppendUvarint(out, h.TraceID)
}

// decodeHelloFrame parses either hello: a full one into the hello returned,
// a resume hello into the value returned beside a nil hello. Byte fields
// alias the input. A nonce of any length but helloNonceBytes is refused
// here, before anything is verified or remembered.
func decodeHelloFrame(b []byte) (*SessionHello, resumeHello, error) {
	var resume resumeHello
	if len(b) < 2 || b[0] != binaryMagic {
		return nil, resume, fmt.Errorf("%w: not a handshake frame", ErrBadFrame)
	}
	r := frameReader{b: b[2:]}
	switch b[1] {
	case binaryKindHello:
		h := &SessionHello{}
		h.Principal = r.str()
		h.Nonce = r.bytes()
		h.IssuedAt = r.time()
		cert := r.bytes()
		sig := r.bytes()
		h.TraceID = r.uvarint()
		if err := r.done(); err != nil {
			return nil, resume, err
		}
		if _, err := helloNonce(h.Nonce); err != nil {
			return nil, resume, fmt.Errorf("%w: %v", ErrBadFrame, err)
		}
		var err error
		if h.Sig, err = dcrypto.ParseSignature(sig); err != nil {
			return nil, resume, fmt.Errorf("%w: %v", ErrBadFrame, err)
		}
		if err := h.Cert.UnmarshalBinary(cert); err != nil {
			return nil, resume, fmt.Errorf("%w: cert: %v", ErrBadFrame, err)
		}
		return h, resume, nil
	case binaryKindResume:
		id := r.bytes()
		nonce := r.bytes()
		resume.IssuedAt = r.time()
		resume.Tag = r.bytes()
		resume.TraceID = r.uvarint()
		if err := r.done(); err != nil {
			return nil, resume, err
		}
		if len(id) != resumeIDBytes {
			return nil, resume, fmt.Errorf("%w: resume id must be %d bytes, got %d", ErrBadFrame, resumeIDBytes, len(id))
		}
		var err error
		if resume.Nonce, err = helloNonce(nonce); err != nil {
			return nil, resume, fmt.Errorf("%w: %v", ErrBadFrame, err)
		}
		resume.ID = [resumeIDBytes]byte(id)
		return nil, resume, nil
	default:
		return nil, resume, fmt.Errorf("%w: frame kind 0x%02x is not a hello", ErrBadFrame, b[1])
	}
}

// grantResumed is the grant frame's one flag: the session was opened by a
// resume hello.
const grantResumed = 1

// appendGrant appends a grant's frame to dst, growing it once. The token
// crosses as the session's key, given beside the grant: the gateway spells
// no token string, and the client spells it from the frame's key
// (grantToken). MacKey is not a field of the frame.
func appendGrant(dst []byte, g *SessionGrant, key *sessionKey) []byte {
	var flags byte
	if g.Resumed {
		flags |= grantResumed
	}
	var sealed dcrypto.HybridCiphertext
	if g.Sealed != nil {
		sealed = *g.Sealed
	}
	dst = slices.Grow(dst, 48+len(key)+len(g.Principal)+len(g.ResumeID)+len(sealed.EphemeralPub)+len(sealed.Ciphertext))
	dst = append(dst, binaryMagic, binaryKindGrant, flags)
	dst = appendLenPrefixed(dst, key[:])
	dst = appendLenPrefixed(dst, []byte(g.Principal))
	dst = appendTime(dst, g.ExpiresAt)
	dst = appendLenPrefixed(dst, g.ResumeID)
	dst = appendLenPrefixed(dst, sealed.EphemeralPub)
	return appendLenPrefixed(dst, sealed.Ciphertext)
}

// decodeGrant parses the reply to a hello: a grant (whose fields own their
// memory), or the resume miss, which is the two-byte frame of its kind and
// nothing else. A grant's token field is the session's 32-byte key, any
// other length ErrBadFrame, and Token is its lowercase hex. principal is the
// one the client opened for: a grant that echoes it gets that string rather
// than a copy of the bytes. MacKey is not a field of the frame and is left
// nil. Beside the grant it returns the room its MAC key is derived into
// (grantToken): a client's token and key are one slot of h's grant chunk
// (Handshaker.carveGrant), and the three byte fields of a full handshake's
// grant cost one allocation.
func decodeGrant(b []byte, principal string, h *Handshaker) (g SessionGrant, macRoom []byte, miss bool, err error) {
	if len(b) == 2 && b[0] == binaryMagic && b[1] == binaryKindResumeMiss {
		return g, nil, true, nil
	}
	if len(b) < 3 || b[0] != binaryMagic || b[1] != binaryKindGrant {
		return g, nil, false, fmt.Errorf("%w: not a grant frame", ErrBadFrame)
	}
	flags := b[2]
	if flags&^grantResumed != 0 {
		return g, nil, false, fmt.Errorf("%w: unknown grant flags 0x%02x", ErrBadFrame, flags)
	}
	r := frameReader{b: b[3:]}
	g.Resumed = flags&grantResumed != 0
	token := r.bytes()
	g.Principal = principal
	if p := r.bytes(); string(p) != principal { // the comparison does not allocate
		g.Principal = string(p)
	}
	g.ExpiresAt = r.time()
	g.Codec = CodecBinary // under the name the repository benchmark calls; not a field of the frame
	resumeID := r.bytes()
	eph := r.bytes()
	ct := r.bytes()
	if err := r.done(); err != nil {
		return SessionGrant{}, nil, false, err
	}
	if len(token) != sessionTokenBytes {
		return SessionGrant{}, nil, false, fmt.Errorf("%w: grant token must be %d bytes, got %d", ErrBadFrame, sessionTokenBytes, len(token))
	}
	g.Token, macRoom = grantToken((*sessionKey)(token), h.carveGrant())
	if n := len(resumeID) + len(eph) + len(ct); n > 0 {
		own := append(append(append(make([]byte, 0, n), resumeID...), eph...), ct...)
		i, j := len(resumeID), len(resumeID)+len(eph)
		g.ResumeID = own[:i:i]
		if n > i {
			g.Sealed = &dcrypto.HybridCiphertext{EphemeralPub: own[i:j:j], Ciphertext: own[j:]}
		}
	}
	return g, macRoom, false, nil
}

// grantToken is the one constructor of a client grant's token: it spells
// the frame's key in hex into the head of buf, grantBytes of room no one
// else holds (carveGrant), and returns it as a string, beside buf's tail —
// empty, with room for the session's MAC key exactly — so that the token and
// the key a client derives for it (append(macRoom, key...)) share the room.
// The string is an unsafe.String over the head, and the invariant that makes
// it one is that nothing ever writes the head again: this encoding is its
// only write, the tail starts past the token's last byte, and its capacity is
// clipped, so an append past the key reallocates instead of growing into
// anything — the next grant's slot included.
func grantToken(key *sessionKey, buf []byte) (string, []byte) {
	const n = 2 * sessionTokenBytes
	hex.Encode(buf[:n], key[:])
	return unsafe.String(unsafe.SliceData(buf), n), buf[n:n:len(buf)]
}

// grantBytes is one client grant's room: its token in hex, then its MAC key.
const grantBytes = 2*sessionTokenBytes + dcrypto.MACKeySize

// grantChunkSize is the size of the chunks client grants are carved from:
// 42 grants of grantBytes in the 4,096-byte size class, 64 bytes left over.
const grantChunkSize = 4096

// carveGrant returns grantBytes of room for one grant's token and MAC key,
// cut from h's append-only grant chunk with its capacity clipped, starting
// a chunk when the last one is used up. No slot is handed out twice, so a grant the caller keeps is never written
// by another; keeping one keeps its 4 KB chunk alive.
func (h *Handshaker) carveGrant() []byte {
	h.mu.Lock()
	if len(h.grants) < grantBytes {
		h.grants = make([]byte, grantChunkSize)
	}
	buf := h.grants[:grantBytes:grantBytes]
	h.grants = h.grants[grantBytes:]
	h.mu.Unlock()
	return buf
}

// unseal finishes, on the client, a grant that crossed a network after the
// full hello whose transcript digest is given: it opens the sealed master
// secret with the private half of the certified key and derives MacKey from
// it — the key the gateway derived and did not send — into macRoom, the
// room decodeGrant returned beside the grant (nil allocates). It returns
// the master for a caller that will keep it.
func (g *SessionGrant) unseal(digest [32]byte, key *dcrypto.PrivateKey, macRoom []byte) ([]byte, error) {
	if g.Sealed == nil {
		return nil, errors.New("middleware: grant carries no sealed master secret")
	}
	master, err := dcrypto.DecryptHybrid(key, *g.Sealed, digest[:])
	if err != nil {
		return nil, fmt.Errorf("middleware: unseal master secret: %w", err)
	}
	mac, err := sessionMACKey(master, digest, g.Token)
	if err != nil {
		return nil, err
	}
	g.MacKey = append(macRoom, mac[:]...)
	return master, nil
}

// handshakerSecrets bounds a Handshaker's memory. A client process presents
// the certificates it owns to a gateway (the benchmark's 50, loadgen's 1,000
// by default); past the bound (single-use certificates) it forgets, and a
// forgotten secret only costs the full handshake.
const handshakerSecrets = 1024

// Handshaker is the client half of the session handshake over a network,
// and the client's memory of what its full handshakes established. The first
// Open for a certificate signs a full hello and unseals the master secret
// from the grant; while that secret lives, every later Open for the same
// certificate and the same private key sends a resume hello — an HMAC
// instead of an ECDSA signature, no certificate on the wire — and derives
// the new session's MAC key from the same master. A gateway that no longer
// knows the secret says so, and Open runs the full handshake inside the same
// call and replaces it.
//
// A secret is held for the *dcrypto.PrivateKey it was unsealed with,
// compared by pointer: only a caller holding that key object resumes, and
// any other key, or another object holding the same key, runs the full
// handshake, which the gateway checks against the certificate. So one
// Handshaker can serve every connection a client process dials to one
// gateway (netedge.Dial shares one per address), as a TLS client session
// cache serves every connection dialed from one configuration: the master
// secret belongs to the process and the gateway, not to a connection.
//
// The zero value is ready; safe for concurrent use. Concurrent Opens for a
// certificate whose secret is not held yet run one full handshake between
// them: the others wait for it and resume, so a client process costs the
// gateway one signature check and one table entry per certificate however
// many sessions and connections it opens at once.
type Handshaker struct {
	// Now stamps hellos; nil means time.Now. For callers on an injected
	// clock.
	Now func() time.Time

	mu      sync.Mutex
	secrets map[heldKey]*heldSecret
	// grants is the rest of the chunk the next grants are cut from
	// (carveGrant). Guarded by mu.
	grants []byte
}

// heldKey names a held secret by the certificate it was sealed to, the
// principal that certificate opened sessions as, and the private key that
// unsealed it.
type heldKey struct {
	principal string
	serial    uint64
	key       *dcrypto.PrivateKey
}

// heldSecret is one master secret, the gateway's name for it, and when both
// sides stop honouring it. It enters the table before the full handshake
// that fills it has run: ready is closed once that handshake is over, and
// the other fields are read only after; master is still nil if it failed.
type heldSecret struct {
	ready   chan struct{}
	id      [resumeIDBytes]byte
	master  []byte
	expires time.Time
}

// Open opens one session for principal: resumed when this Handshaker holds
// a live secret for the certificate and key, by the full signed handshake
// otherwise. A nil key is an error.
// roundTrip carries one hello frame to the gateway's session.open topic and
// returns the reply. The grant is complete: MacKey is filled in though it
// was never sent. ctx is handed to roundTrip and bounds the wait for another
// Open's full handshake.
func (h *Handshaker) Open(ctx context.Context, principal string, cert pki.Certificate, key *dcrypto.PrivateKey, roundTrip func(ctx context.Context, hello []byte) ([]byte, error)) (SessionGrant, error) {
	if key == nil {
		return SessionGrant{}, fmt.Errorf("middleware: open session for %s: no private key", principal)
	}
	k := heldKey{principal, cert.Serial, key}
	for {
		// Read on every turn: a hello is stamped after any wait, not before.
		now := time.Now()
		if h.Now != nil {
			now = h.Now()
		}
		h.mu.Lock()
		held := h.secrets[k]
		if held == nil {
			if h.secrets == nil || len(h.secrets) >= handshakerSecrets {
				h.secrets = make(map[heldKey]*heldSecret)
			}
			held = &heldSecret{ready: make(chan struct{})}
			h.secrets[k] = held
			h.mu.Unlock()
			return h.establish(ctx, k, held, now, cert, roundTrip)
		}
		h.mu.Unlock()
		select {
		case <-held.ready:
		case <-ctx.Done():
			return SessionGrant{}, fmt.Errorf("middleware: open session for %s: %w", principal, ctx.Err())
		}
		if held.master != nil && !now.After(held.expires) {
			grant, miss, err := held.resume(ctx, h, now, principal, roundTrip)
			if !miss {
				return grant, err
			}
		}
		// Failed, expired, or unknown to the gateway: then this client does
		// not know it either, and whoever gets there first replaces it.
		h.forget(k, held)
	}
}

// forget drops a secret, unless it has been replaced already.
func (h *Handshaker) forget(k heldKey, held *heldSecret) {
	h.mu.Lock()
	if h.secrets[k] == held {
		delete(h.secrets, k)
	}
	h.mu.Unlock()
}

// establish runs the full signed handshake and fills s, which is in the
// table under k already, from its grant. However it ends, those waiting on s
// are released; a failure drops s first, so that they try for themselves.
func (h *Handshaker) establish(ctx context.Context, k heldKey, s *heldSecret, now time.Time, cert pki.Certificate, roundTrip func(ctx context.Context, hello []byte) ([]byte, error)) (SessionGrant, error) {
	defer func() {
		if s.master == nil {
			h.forget(k, s)
		}
		close(s.ready)
	}()
	hello, digest, err := newSessionHello(k.principal, cert, k.key, now)
	if err != nil {
		return SessionGrant{}, err
	}
	frame, err := encodeHelloFrame(&hello)
	if err != nil {
		return SessionGrant{}, err
	}
	reply, err := roundTrip(ctx, frame)
	if err != nil {
		return SessionGrant{}, err
	}
	grant, macRoom, miss, err := decodeGrant(reply, k.principal, h)
	if err != nil {
		return SessionGrant{}, fmt.Errorf("middleware: decode grant: %w", err)
	}
	if miss || len(grant.ResumeID) != resumeIDBytes {
		return SessionGrant{}, fmt.Errorf("%w: reply to a full hello names no resumption id", ErrBadFrame)
	}
	master, err := grant.unseal(digest, k.key, macRoom)
	if err != nil {
		return SessionGrant{}, err
	}
	s.id, s.expires = [resumeIDBytes]byte(grant.ResumeID), grant.ExpiresAt
	if cert.NotAfter.Before(s.expires) {
		s.expires = cert.NotAfter
	}
	s.master = master
	return grant, nil
}

// resume runs the resumed handshake under a held secret, for the principal
// it was established for. miss reports that the gateway does not hold it
// (any more). It allocates nothing of its own: the grant's token and MAC
// key are a slot of h's grant chunk (carveGrant), and the frame is carved
// (see carveFrame).
func (s *heldSecret) resume(ctx context.Context, h *Handshaker, now time.Time, principal string, roundTrip func(ctx context.Context, hello []byte) ([]byte, error)) (grant SessionGrant, miss bool, err error) {
	hello := resumeHello{ID: s.id, IssuedAt: now}
	if _, err := rand.Read(hello.Nonce[:]); err != nil {
		return SessionGrant{}, false, fmt.Errorf("middleware: hello nonce: %w", err)
	}
	digest := resumeDigest(s.id, hello.Nonce, now)
	tag := dcrypto.MAC(s.master, digest[:])
	hello.Tag = tag[:]
	reply, err := roundTrip(ctx, encodeResumeFrame(&hello))
	if err != nil {
		return SessionGrant{}, false, err
	}
	grant, macRoom, miss, err := decodeGrant(reply, principal, h)
	if err != nil || miss {
		if err != nil {
			err = fmt.Errorf("middleware: decode grant: %w", err)
		}
		return SessionGrant{}, miss, err
	}
	mac, err := sessionMACKey(s.master, digest, grant.Token)
	if err != nil {
		return SessionGrant{}, false, err
	}
	grant.MacKey = append(macRoom, mac[:]...)
	return grant, false, nil
}

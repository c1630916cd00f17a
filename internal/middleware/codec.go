package middleware

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"dltprivacy/internal/dcrypto"
)

// CodecBinary names the one request framing, the 0xDC frame, under the name
// the repository benchmark calls; Config.Codec, SessionGrant.Codec and the
// codec parameters of EncodeWireRequest and netedge.Client.OpenSession take
// it or "" and mean nothing else.
const CodecBinary = "binary"

// ErrBadFrame is returned (wrapped) for every payload that is not a
// well-formed 0xDC frame of the kind its topic takes — a JSON document and an
// empty payload included. It is a rejection, never a panic: length prefixes
// are validated against the remaining buffer before any slice or allocation.
var ErrBadFrame = errors.New("middleware: malformed binary frame")

// Binary framing: one magic byte no JSON document can start with, one
// frame-kind byte, then fields in fixed order, each length-prefixed with a
// uvarint. Strings and byte fields share one shape; maps carry a count
// first. Requests and ledger envelopes share the magic, the kind byte tells
// them apart, and this file holds the request codec plus the primitives every
// kind is built from. A request frame carries no certificate or signature:
// a submitter proves itself once, at session open, and then by MAC. The
// certificate inside a full hello nests as one length-prefixed field holding
// the pki package's own binary encoding (pki.Certificate.AppendBinary): pki
// owns and versions that format, and the framing only carries its bytes.
const (
	binaryMagic        = 0xDC
	binaryKindRequest  = 0x01
	binaryKindEnvelope = 0x02 // single and group alike; 0x03, the old group layout, is retired
	// The session handshake's four messages (handshake.go).
	binaryKindHello      = 0x04
	binaryKindResume     = 0x05
	binaryKindGrant      = 0x06
	binaryKindResumeMiss = 0x07
)

// certStackBytes stages a certificate's encoding on the stack before it is
// copied into a frame: some 200 bytes, and a certificate whose identity and
// issuer are unusually long spills to the heap.
const certStackBytes = 512

// appendLenPrefixed appends a uvarint length and the bytes themselves.
func appendLenPrefixed(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// lenPrefixedSize is the encoded size of a length-prefixed field of n bytes.
func lenPrefixedSize(n int) int {
	return uvarintSize(uint64(n)) + n
}

func uvarintSize(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// frameReader is a bounds-checked cursor over one binary frame. Methods
// record the first error; callers check err once at the end.
type frameReader struct {
	b   []byte
	err error
}

func (r *frameReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.err = fmt.Errorf("%w: truncated varint", ErrBadFrame)
		return 0
	}
	if n > 1 && r.b[n-1] == 0 {
		// A padded varint is a second spelling of the same number: no
		// encoder here emits one, and a ledger frame must have one encoding.
		r.err = fmt.Errorf("%w: non-minimal varint", ErrBadFrame)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// bytes returns the next length-prefixed field, aliasing the frame buffer
// (zero-copy; the transport hands each handler its own message payload).
func (r *frameReader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.err = fmt.Errorf("%w: field length %d exceeds remaining %d bytes", ErrBadFrame, n, len(r.b))
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

func (r *frameReader) str() string { return string(r.bytes()) }

func (r *frameReader) done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, len(r.b))
	}
	return nil
}

// slabCarver cuts frames from append-only slabs. Its pool holds the slab
// each goroutine carves its next frame from; a slab in the pool is the unused
// tail of one, its carved head already handed out.
type slabCarver struct {
	slab int // the nominal slab size; a slab is sized to the frame that opens it
	pool sync.Pool
}

// wireFrames carves the frames a client sends: a 16 KB nominal slab is some
// forty session submissions, and the client copies each frame out and drops
// it. sealedFrames carves the gateway's sealed envelope frames, which a
// subscriber may keep: five of the benchmark's 1,858-byte frames to a
// 9,472-byte slab, so a sparse sample of them pins about half what 16 KB
// slabs would, and its 7,970-byte 64-trade groups two to a 16,384-byte slab.
var wireFrames, sealedFrames = &slabCarver{slab: 16 << 10}, &slabCarver{slab: 8 << 10}

// carve returns an empty slice of capacity exactly size, cut from an
// append-only slab shared with the frames carved before and after it, its
// capacity clipped. A slab is never rewound or written over, so the frame is
// the caller's: nothing later writes over it, appending past size
// reallocates, and a kept frame keeps its slab alive. A frame that does not
// fit the tail opens a slab of whole frames of its size, as many as the
// nominal size rounds up to, grown to the allocator's size class: five
// 1,858-byte frames in 9,472 bytes, where a fixed 8 KB slab would hold four
// and leave 760 bytes, and two 7,970-byte groups in 16,384. So a slab holds
// at least two frames and stays within twice the nominal size (16 KB sealed,
// 32 KB wire), and a slightly larger frame still fits the class's spare
// bytes. A frame of at least the nominal size would be alone in its slab: it
// is an exact allocation of its own, and the pooled slab's tail stays for the
// frames after it. A zero size always fits the tail and never opens a slab.
func (c *slabCarver) carve(size int) []byte {
	if size >= c.slab {
		return make([]byte, 0, size)
	}
	slab, _ := c.pool.Get().(*[]byte)
	if slab == nil {
		slab = new([]byte)
	}
	b := *slab
	if cap(b)-len(b) < size {
		b = slices.Grow([]byte(nil), (c.slab+size-1)/size*size)
	}
	start := len(b)
	*slab = b[:start+size]
	c.pool.Put(slab)
	return b[start : start : start+size]
}

// misnamedSession is the SessionToken of a request whose frame's token field
// was neither empty nor a key. It is no token's spelling, so the session
// stage refuses the request as ErrNoSession whatever the field held, and the
// encoder writes it back as the same kind of field.
const misnamedSession = "?"

// EncodeWireRequest marshals a request into the 0xDC request frame the
// gateway.submit topic takes, carved from a shared slab of some 16 KB
// (wireFrames): a caller that copies the frame out and drops it, as
// netedge.Client does, allocates nothing for it. Nothing writes over the
// frame and appending to it reallocates, but keeping it keeps its slab, under
// 32 KB, alive: copy a frame kept for long. The session token
// crosses as the 32 key bytes its hex spells; a malformed token, which names
// no session, crosses verbatim and is refused as one, except one of exactly
// 32 bytes, which would arrive looking like a key: that is refused here, as
// ErrNoSession. codec is kept under the name the repository benchmark calls:
// "" or CodecBinary, anything else an error.
func EncodeWireRequest(req *Request, codec string) ([]byte, error) {
	if codec != "" && codec != CodecBinary {
		return nil, fmt.Errorf("middleware: unknown codec %q", codec)
	}
	key, keyed := parseSessionKey(req.SessionToken)
	tokenSize := len(req.SessionToken)
	switch {
	case keyed:
		tokenSize = sessionTokenBytes
	case tokenSize == sessionTokenBytes:
		return nil, fmt.Errorf("middleware: encode request: %w: a %d-byte token is no session's spelling", ErrNoSession, tokenSize)
	}
	if len(req.MAC) > 0 && len(req.MAC) != dcrypto.MACSize {
		return nil, fmt.Errorf("middleware: encode request: mac must be %d bytes, got %d", dcrypto.MACSize, len(req.MAC))
	}
	size := 2 +
		lenPrefixedSize(len(req.Channel)) +
		lenPrefixedSize(len(req.Principal)) +
		lenPrefixedSize(len(req.Backend)) +
		lenPrefixedSize(len(req.Payload)) +
		lenPrefixedSize(tokenSize) +
		lenPrefixedSize(len(req.MAC)) +
		uvarintSize(req.TraceID) +
		uvarintSize(uint64(len(req.Meta)))
	for k, v := range req.Meta {
		size += lenPrefixedSize(len(k)) + lenPrefixedSize(len(v))
	}
	out := wireFrames.carve(size)
	out = append(out, binaryMagic, binaryKindRequest)
	out = appendLenPrefixed(out, []byte(req.Channel))
	out = appendLenPrefixed(out, []byte(req.Principal))
	out = appendLenPrefixed(out, []byte(req.Backend))
	out = appendLenPrefixed(out, req.Payload)
	if keyed {
		out = appendLenPrefixed(out, key[:])
	} else {
		out = appendLenPrefixed(out, []byte(req.SessionToken))
	}
	out = appendLenPrefixed(out, req.MAC)
	// The trace ID rides between MAC and meta as a bare uvarint: one byte
	// for the untraced common case (TraceID 0).
	out = binary.AppendUvarint(out, req.TraceID)
	out = binary.AppendUvarint(out, uint64(len(req.Meta)))
	for k, v := range req.Meta {
		out = appendLenPrefixed(out, []byte(k))
		out = appendLenPrefixed(out, []byte(v))
	}
	return out, nil
}

// decodeRequestBinary reverses EncodeWireRequest into req, the request
// the gateway runs. Byte fields alias the input buffer. The three strings
// every session submission carries are not allocated when g already holds
// them: a key that names a live session becomes that record
// (Request.session, no SessionToken), the principal is the session's own
// string, and the channel comes from the gateway's table of channel names
// (see channelName), which also tells Gateway.order whether the channel may
// be ordered on. The token field is read as a key and nothing else: no hex
// is parsed. A key that names no live session is spelled as its token for
// the session stage to refuse — ErrSessionRevoked or ErrSessionExpired if
// that is what it names — and a field of any other non-zero length, 64 hex
// characters included, becomes misnamedSession, which names no session. A
// nil g copies all three strings. On error req is partly filled and must be
// dropped.
func decodeRequestBinary(b []byte, req *Request, g *Gateway) error {
	if len(b) < 2 || b[0] != binaryMagic || b[1] != binaryKindRequest {
		return fmt.Errorf("%w: not a binary request frame", ErrBadFrame)
	}
	r := &frameReader{b: b[2:]}
	channel := r.bytes()
	principal := r.bytes()
	req.Backend = r.str()
	req.Payload = r.bytes()
	token := r.bytes()
	req.MAC = r.bytes()
	req.TraceID = r.uvarint()
	nMeta := r.uvarint()
	if r.err == nil && nMeta > uint64(len(r.b))/2 {
		// Each entry costs at least two length bytes; reject counts the
		// remaining buffer cannot possibly hold.
		return fmt.Errorf("%w: meta count %d exceeds remaining bytes", ErrBadFrame, nMeta)
	}
	if r.err == nil && nMeta > 0 {
		// Unauthenticated so far: the count sizes one bucket, honest maps grow.
		req.Meta = make(map[string]string, min(nMeta, 8))
		for i := uint64(0); i < nMeta && r.err == nil; i++ {
			k := r.str()
			req.Meta[k] = r.str()
		}
	}
	if err := r.done(); err != nil {
		return err
	}
	req.Channel, req.channelKnown = channelName(g, channel)
	switch len(token) {
	case 0: // a sessionless request
	case sessionTokenBytes:
		key := (*sessionKey)(token)
		if g != nil && g.sessions != nil {
			req.session = g.sessions.lookup(key)
		}
		if req.session == nil {
			spelled := key.hex()
			req.SessionToken = string(spelled[:])
		}
	default:
		req.SessionToken = misnamedSession
	}
	if req.session != nil && req.session.principal == string(principal) { // the comparison does not allocate
		req.Principal = req.session.principal
	} else {
		req.Principal = string(principal)
	}
	if len(req.MAC) > 0 && len(req.MAC) != dcrypto.MACSize {
		return fmt.Errorf("%w: mac must be %d bytes, got %d", ErrBadFrame, dcrypto.MACSize, len(req.MAC))
	}
	return nil
}

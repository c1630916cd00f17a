package middleware

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"

	"dltprivacy/internal/dcrypto"
)

// Request codec names, the vocabulary of Config.Codec and the per-session
// negotiation (SessionHello.Codec / SessionGrant.Codec). They name how a
// submission is framed on the wire and nothing else: envelopes on the ledger
// are always 0xDC frames (envelope.go, envelope_group.go).
const (
	// CodecJSON is the default request framing: the submission marshals as
	// JSON, self-describing and diffable.
	CodecJSON = "json"
	// CodecBinary is the length-prefixed binary v2 request framing: no
	// field names, no base64, no reflection — a submission decode is a
	// linear scan that aliases the inbound buffer instead of copying it.
	CodecBinary = "binary"
)

// ErrBadFrame is returned (wrapped) for every malformed binary frame. Like
// JSON decode errors it is a rejection, never a panic: length prefixes are
// validated against the remaining buffer before any slice or allocation.
var ErrBadFrame = errors.New("middleware: malformed binary frame")

// Binary framing: one magic byte no JSON document can start with, one
// frame-kind byte, then fields in fixed order, each length-prefixed with a
// uvarint. Strings and byte fields share one shape; maps carry a count
// first. Requests and ledger envelopes share the magic, the kind byte tells
// them apart, and this file holds the request codec plus the primitives every
// kind is built from. The certificate inside a wire request —
// first-contact traffic only, never the session fast path — nests as a JSON
// blob: certificates are cold, structured, and versioned by the pki package,
// and re-encoding them field-by-field here would couple the framing to pki
// internals.
const (
	binaryMagic             = 0xDC
	binaryKindRequest       = 0x01
	binaryKindEnvelope      = 0x02
	binaryKindGroupEnvelope = 0x03
	// The session handshake's four messages (handshake.go).
	binaryKindHello      = 0x04
	binaryKindResume     = 0x05
	binaryKindGrant      = 0x06
	binaryKindResumeMiss = 0x07
)

// isBinaryFrame sniffs the framing of a wire request: binary frames start
// with the magic byte, which is not a valid first byte of any JSON value.
func isBinaryFrame(b []byte) bool {
	return len(b) >= 2 && b[0] == binaryMagic
}

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

// encodeWireRequestBinary marshals a wire request into the binary v2
// framing with a single exactly-sized allocation.
func encodeWireRequestBinary(w *wireRequest) ([]byte, error) {
	var sig, cert []byte
	if w.Sig.R != nil || w.Sig.S != nil {
		// A request decoded from JSON can carry any integer here; the
		// 64-byte field holds only what a verifier could accept.
		if !w.Sig.WellFormed() {
			return nil, fmt.Errorf("middleware: encode request: %w", dcrypto.ErrInvalidSignature)
		}
		sig = w.Sig.Bytes()
	}
	if len(w.MAC) > 0 && len(w.MAC) != dcrypto.MACSize {
		return nil, fmt.Errorf("middleware: encode request: mac must be %d bytes, got %d", dcrypto.MACSize, len(w.MAC))
	}
	if w.Cert != nil {
		b, err := json.Marshal(w.Cert)
		if err != nil {
			return nil, fmt.Errorf("middleware: encode cert: %w", err)
		}
		cert = b
	}
	size := 2 +
		lenPrefixedSize(len(w.Channel)) +
		lenPrefixedSize(len(w.Principal)) +
		lenPrefixedSize(len(w.Backend)) +
		lenPrefixedSize(len(w.Payload)) +
		lenPrefixedSize(len(w.Session)) +
		lenPrefixedSize(len(sig)) +
		lenPrefixedSize(len(w.MAC)) +
		lenPrefixedSize(len(cert)) +
		uvarintSize(w.TraceID) +
		uvarintSize(uint64(len(w.Meta)))
	for k, v := range w.Meta {
		size += lenPrefixedSize(len(k)) + lenPrefixedSize(len(v))
	}
	out := make([]byte, 0, size)
	out = append(out, binaryMagic, binaryKindRequest)
	out = appendLenPrefixed(out, []byte(w.Channel))
	out = appendLenPrefixed(out, []byte(w.Principal))
	out = appendLenPrefixed(out, []byte(w.Backend))
	out = appendLenPrefixed(out, w.Payload)
	out = appendLenPrefixed(out, []byte(w.Session))
	out = appendLenPrefixed(out, sig)
	out = appendLenPrefixed(out, w.MAC)
	out = appendLenPrefixed(out, cert)
	// The trace ID rides between cert and meta as a bare uvarint: one byte
	// for the untraced common case (TraceID 0).
	out = binary.AppendUvarint(out, w.TraceID)
	out = binary.AppendUvarint(out, uint64(len(w.Meta)))
	for k, v := range w.Meta {
		out = appendLenPrefixed(out, []byte(k))
		out = appendLenPrefixed(out, []byte(v))
	}
	return out, nil
}

// decodeRequestBinary reverses encodeWireRequestBinary into req, the request
// the gateway runs. Byte fields alias the input buffer. The three strings
// every session submission carries are not allocated when g already holds
// them: the token and principal come from the session the token names, the
// channel from the gateway's table of channel names (see
// Gateway.channelName). A nil g copies all three. On error req is partly
// filled and must be dropped.
func decodeRequestBinary(b []byte, req *Request, g *Gateway) error {
	if len(b) < 2 || b[0] != binaryMagic || b[1] != binaryKindRequest {
		return fmt.Errorf("%w: not a binary request frame", ErrBadFrame)
	}
	r := &frameReader{b: b[2:]}
	channel := r.bytes()
	principal := r.bytes()
	req.Backend = r.str()
	req.Payload = r.bytes()
	session := r.bytes()
	sig := r.bytes()
	req.MAC = r.bytes()
	cert := r.bytes()
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
	req.Channel = g.channelName(channel)
	if g != nil && g.sessions != nil && len(session) > 0 {
		req.SessionToken, req.Principal = g.sessions.names(session, principal)
	} else {
		req.SessionToken, req.Principal = string(session), string(principal)
	}
	if len(sig) > 0 {
		s, err := dcrypto.ParseSignature(sig)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrBadFrame, err)
		}
		req.Sig = s
	}
	if len(req.MAC) > 0 && len(req.MAC) != dcrypto.MACSize {
		return fmt.Errorf("%w: mac must be %d bytes, got %d", ErrBadFrame, dcrypto.MACSize, len(req.MAC))
	}
	if len(cert) > 0 {
		if err := json.Unmarshal(cert, &req.Cert); err != nil {
			return fmt.Errorf("%w: cert: %v", ErrBadFrame, err)
		}
	}
	return nil
}

// EncodeWireRequest marshals a request for the gateway.submit topic in the
// named codec, the encoding SubmitOverCodec puts on the wire.
func EncodeWireRequest(req *Request, codec string) ([]byte, error) {
	w := wireRequest{
		Channel:   req.Channel,
		Principal: req.Principal,
		Backend:   req.Backend,
		Payload:   req.Payload,
		Sig:       req.Sig,
		MAC:       req.MAC,
		Session:   req.SessionToken,
		Meta:      req.Meta,
		TraceID:   req.TraceID,
	}
	if req.Cert.Identity != "" {
		cert := req.Cert
		w.Cert = &cert
	}
	switch codec {
	case "", CodecJSON:
		return json.Marshal(w)
	case CodecBinary:
		return encodeWireRequestBinary(&w)
	default:
		return nil, fmt.Errorf("middleware: unknown codec %q", codec)
	}
}

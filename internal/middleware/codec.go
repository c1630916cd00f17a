package middleware

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"

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

// EncodeWireRequest marshals a request into the 0xDC request frame the
// gateway.submit topic takes, with a single exactly-sized allocation. A
// certificate without an identity is not sent. codec is kept under the name
// the repository benchmark calls: "" or CodecBinary, anything else an error.
func EncodeWireRequest(req *Request, codec string) ([]byte, error) {
	if codec != "" && codec != CodecBinary {
		return nil, fmt.Errorf("middleware: unknown codec %q", codec)
	}
	var sig, cert []byte
	if req.Sig.R != nil || req.Sig.S != nil {
		// A caller can put any integer here; the 64-byte field holds only
		// what a verifier could accept.
		if !req.Sig.WellFormed() {
			return nil, fmt.Errorf("middleware: encode request: %w", dcrypto.ErrInvalidSignature)
		}
		sig = req.Sig.Bytes()
	}
	if len(req.MAC) > 0 && len(req.MAC) != dcrypto.MACSize {
		return nil, fmt.Errorf("middleware: encode request: mac must be %d bytes, got %d", dcrypto.MACSize, len(req.MAC))
	}
	if req.Cert.Identity != "" {
		b, err := json.Marshal(&req.Cert)
		if err != nil {
			return nil, fmt.Errorf("middleware: encode cert: %w", err)
		}
		cert = b
	}
	size := 2 +
		lenPrefixedSize(len(req.Channel)) +
		lenPrefixedSize(len(req.Principal)) +
		lenPrefixedSize(len(req.Backend)) +
		lenPrefixedSize(len(req.Payload)) +
		lenPrefixedSize(len(req.SessionToken)) +
		lenPrefixedSize(len(sig)) +
		lenPrefixedSize(len(req.MAC)) +
		lenPrefixedSize(len(cert)) +
		uvarintSize(req.TraceID) +
		uvarintSize(uint64(len(req.Meta)))
	for k, v := range req.Meta {
		size += lenPrefixedSize(len(k)) + lenPrefixedSize(len(v))
	}
	out := make([]byte, 0, size)
	out = append(out, binaryMagic, binaryKindRequest)
	out = appendLenPrefixed(out, []byte(req.Channel))
	out = appendLenPrefixed(out, []byte(req.Principal))
	out = appendLenPrefixed(out, []byte(req.Backend))
	out = appendLenPrefixed(out, req.Payload)
	out = appendLenPrefixed(out, []byte(req.SessionToken))
	out = appendLenPrefixed(out, sig)
	out = appendLenPrefixed(out, req.MAC)
	out = appendLenPrefixed(out, cert)
	// The trace ID rides between cert and meta as a bare uvarint: one byte
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

package middleware

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/pki"
)

// Wire codec names, the vocabulary of Config.Codec and the per-session
// negotiation (SessionHello.Codec / SessionGrant.Codec).
const (
	// CodecJSON is the default wire framing: every structure marshals as
	// JSON, self-describing and diffable.
	CodecJSON = "json"
	// CodecBinary is the length-prefixed binary v2 framing: no field
	// names, no base64, no reflection — a submission decode is a linear
	// scan that aliases the inbound buffer instead of copying it, and an
	// envelope encode is a single exactly-sized allocation.
	CodecBinary = "binary"
)

// ErrBadFrame is returned (wrapped) for every malformed binary frame. Like
// JSON decode errors it is a rejection, never a panic: length prefixes are
// validated against the remaining buffer before any slice or allocation.
var ErrBadFrame = errors.New("middleware: malformed binary frame")

// Binary framing: one magic byte no JSON document can start with, one
// frame-kind byte, then fields in fixed order, each length-prefixed with a
// uvarint. Strings and byte fields share one shape; maps carry a count
// first. The certificate inside a wire request — first-contact traffic
// only, never the session fast path — nests as a JSON blob: certificates
// are cold, structured, and versioned by the pki package, and re-encoding
// them field-by-field here would couple the framing to pki internals.
const (
	binaryMagic             = 0xDC
	binaryKindRequest       = 0x01
	binaryKindEnvelope      = 0x02
	binaryKindGroupEnvelope = 0x03
)

// isBinaryFrame sniffs the framing of a wire payload: binary frames start
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
	if w.Sig.R != nil && w.Sig.S != nil {
		sig = w.Sig.Bytes()
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

// decodeWireRequestBinary reverses encodeWireRequestBinary. Byte fields
// alias the input buffer.
func decodeWireRequestBinary(b []byte) (wireRequest, error) {
	var w wireRequest
	if len(b) < 2 || b[0] != binaryMagic || b[1] != binaryKindRequest {
		return w, fmt.Errorf("%w: not a binary request frame", ErrBadFrame)
	}
	r := &frameReader{b: b[2:]}
	w.Channel = r.str()
	w.Principal = r.str()
	w.Backend = r.str()
	w.Payload = r.bytes()
	w.Session = r.str()
	sig := r.bytes()
	w.MAC = r.bytes()
	cert := r.bytes()
	w.TraceID = r.uvarint()
	nMeta := r.uvarint()
	if r.err == nil && nMeta > uint64(len(r.b)) {
		// Each entry costs at least two length bytes; reject counts the
		// remaining buffer cannot possibly hold before allocating the map.
		return w, fmt.Errorf("%w: meta count %d exceeds remaining bytes", ErrBadFrame, nMeta)
	}
	if r.err == nil && nMeta > 0 {
		w.Meta = make(map[string]string, nMeta)
		for i := uint64(0); i < nMeta && r.err == nil; i++ {
			k := r.str()
			w.Meta[k] = r.str()
		}
	}
	if err := r.done(); err != nil {
		return wireRequest{}, err
	}
	if len(sig) > 0 {
		s, err := dcrypto.ParseSignature(sig)
		if err != nil {
			return wireRequest{}, fmt.Errorf("%w: %v", ErrBadFrame, err)
		}
		w.Sig = s
	}
	if len(w.MAC) > 0 && len(w.MAC) != dcrypto.MACSize {
		return wireRequest{}, fmt.Errorf("%w: mac must be %d bytes, got %d", ErrBadFrame, dcrypto.MACSize, len(w.MAC))
	}
	if len(cert) > 0 {
		var c pki.Certificate
		if err := json.Unmarshal(cert, &c); err != nil {
			return wireRequest{}, fmt.Errorf("%w: cert: %v", ErrBadFrame, err)
		}
		w.Cert = &c
	}
	return w, nil
}

// sortedKeyIDs returns the recipient identities of a wrapped-key table in
// the deterministic order the binary framing emits them.
func sortedKeyIDs(keys map[string]dcrypto.HybridCiphertext) []string {
	ids := make([]string, 0, len(keys))
	for id := range keys {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// encodeEnvelopeBinary marshals an envelope into the binary v2 framing
// with a single exactly-sized allocation:
//
//	0xDC 0x02 ‖ scheme ‖ channel ‖ epoch ‖ n-keys ‖ keys… ‖ ciphertext
//
// The wrapped-key table comes BEFORE the ciphertext so that everything
// constant for a key epoch is one contiguous head and only the tail differs
// between the epoch's envelopes (see encodeEnvelopeHead). sortedIDs, when
// non-nil, names every key of env.Keys in the order to emit them; nil sorts
// here for deterministic output.
func encodeEnvelopeBinary(env *Envelope, sortedIDs []string) []byte {
	if sortedIDs == nil {
		sortedIDs = sortedKeyIDs(env.Keys)
	}
	out, _ := encodeEnvelopeHead(env.Scheme, env.Channel, env.Epoch, env.Keys, sortedIDs, lenPrefixedSize(len(env.Ciphertext)))
	return appendLenPrefixed(out, env.Ciphertext)
}

// encodeEnvelopeHead encodes everything of a binary envelope frame that
// precedes its ciphertext field — magic, kind, scheme, channel, epoch and
// the wrapped-key table — leaving tail bytes of spare capacity for the
// caller to append that field into. keysAt is where the key table starts:
// head[keysAt:] is exactly encodeEnvelopeKeys' output, the section group
// envelopes of the same epoch splice. The head is immutable for a key
// epoch's lifetime, so the encrypt stage computes it once per epoch
// (tail 0) and every seal copies it — O(members) encoding becomes one copy.
func encodeEnvelopeHead(scheme, channel string, epoch uint64, keys map[string]dcrypto.HybridCiphertext, sortedIDs []string, tail int) (head []byte, keysAt int) {
	keysAt = 2 +
		lenPrefixedSize(len(scheme)) +
		lenPrefixedSize(len(channel)) +
		uvarintSize(epoch)
	out := make([]byte, 0, keysAt+envelopeKeysSize(keys, sortedIDs)+tail)
	out = append(out, binaryMagic, binaryKindEnvelope)
	out = appendLenPrefixed(out, []byte(scheme))
	out = appendLenPrefixed(out, []byte(channel))
	out = binary.AppendUvarint(out, epoch)
	return appendEnvelopeKeys(out, keys, sortedIDs), keysAt
}

// envelopeKeysSize is the encoded size of a wrapped-key table.
func envelopeKeysSize(keys map[string]dcrypto.HybridCiphertext, sortedIDs []string) int {
	size := uvarintSize(uint64(len(sortedIDs)))
	for _, id := range sortedIDs {
		k := keys[id]
		size += lenPrefixedSize(len(id)) +
			lenPrefixedSize(len(k.EphemeralPub)) +
			lenPrefixedSize(len(k.Ciphertext))
	}
	return size
}

// appendEnvelopeKeys appends the wrapped-key table of a binary v2 envelope
// (recipient count + per-recipient id/ephemeral/ciphertext triples) in
// sortedIDs order — the one encoding single and group envelopes share.
func appendEnvelopeKeys(out []byte, keys map[string]dcrypto.HybridCiphertext, sortedIDs []string) []byte {
	out = binary.AppendUvarint(out, uint64(len(sortedIDs)))
	for _, id := range sortedIDs {
		k := keys[id]
		out = appendLenPrefixed(out, []byte(id))
		out = appendLenPrefixed(out, k.EphemeralPub)
		out = appendLenPrefixed(out, k.Ciphertext)
	}
	return out
}

// encodeEnvelopeKeys encodes just the wrapped-key table.
func encodeEnvelopeKeys(keys map[string]dcrypto.HybridCiphertext, sortedIDs []string) []byte {
	return appendEnvelopeKeys(make([]byte, 0, envelopeKeysSize(keys, sortedIDs)), keys, sortedIDs)
}

// encodeGroupEnvelopeBinary marshals a group envelope into the binary v2
// framing (kind 0x03) with a single exactly-sized allocation. Like
// encodeEnvelopeBinary, sortedIDs may name the emit order; nil sorts here.
func encodeGroupEnvelopeBinary(genv *GroupEnvelope, sortedIDs []string) []byte {
	if sortedIDs == nil {
		sortedIDs = sortedKeyIDs(genv.Keys)
	}
	return encodeGroupEnvelopeBinaryKeyed(genv, encodeEnvelopeKeys(genv.Keys, sortedIDs))
}

// encodeGroupEnvelopeBinaryKeyed is encodeGroupEnvelopeBinary with the
// wrapped-key table already encoded — the batch stage splices the epoch's
// precomputed section (the same bytes single envelopes of that epoch
// splice), so a group seal re-encodes no per-member material.
func encodeGroupEnvelopeBinaryKeyed(genv *GroupEnvelope, keySection []byte) []byte {
	size := 2 +
		lenPrefixedSize(len(genv.Scheme)) +
		lenPrefixedSize(len(genv.Channel)) +
		uvarintSize(genv.Epoch) +
		uvarintSize(genv.Count) +
		lenPrefixedSize(len(genv.Ciphertext)) +
		len(keySection)
	out := make([]byte, 0, size)
	out = append(out, binaryMagic, binaryKindGroupEnvelope)
	out = appendLenPrefixed(out, []byte(genv.Scheme))
	out = appendLenPrefixed(out, []byte(genv.Channel))
	out = binary.AppendUvarint(out, genv.Epoch)
	out = binary.AppendUvarint(out, genv.Count)
	out = appendLenPrefixed(out, genv.Ciphertext)
	return append(out, keySection...)
}

// encodeGroupEnvelopeBinarySealed is encodeGroupEnvelopeBinaryKeyed with
// the group seal fused in: the member payloads are sealed directly into the
// frame's ciphertext field, so header, ciphertext, and the epoch's spliced
// key section share one exactly-sized allocation — the standalone
// ciphertext buffer, and the copy of it into the frame, both disappear from
// the per-group cost. The frame bytes are identical to sealing first and
// encoding after (modulo the random nonce).
func encodeGroupEnvelopeBinarySealed(ck *channelKey, channel string, payloads [][]byte, ad []byte) ([]byte, error) {
	ctSize := dcrypto.SealedSegmentsSize(ck.aead, payloads)
	size := 2 +
		lenPrefixedSize(len(GroupEnvelopeScheme)) +
		lenPrefixedSize(len(channel)) +
		uvarintSize(ck.epoch) +
		uvarintSize(uint64(len(payloads))) +
		uvarintSize(uint64(ctSize)) + ctSize +
		len(ck.keySection)
	out := make([]byte, 0, size)
	out = append(out, binaryMagic, binaryKindGroupEnvelope)
	out = appendLenPrefixed(out, []byte(GroupEnvelopeScheme))
	out = appendLenPrefixed(out, []byte(channel))
	out = binary.AppendUvarint(out, ck.epoch)
	out = binary.AppendUvarint(out, uint64(len(payloads)))
	out = binary.AppendUvarint(out, uint64(ctSize))
	out, err := dcrypto.AppendEncryptSegmentsWithAEAD(out, ck.aead, payloads, ad)
	if err != nil {
		return nil, fmt.Errorf("middleware: seal group: %w", err)
	}
	return append(out, ck.keySection...), nil
}

// decodeGroupEnvelopeBinary reverses encodeGroupEnvelopeBinary.
func decodeGroupEnvelopeBinary(b []byte) (GroupEnvelope, error) {
	var genv GroupEnvelope
	if len(b) < 2 || b[0] != binaryMagic || b[1] != binaryKindGroupEnvelope {
		return genv, fmt.Errorf("%w: not a binary group envelope frame", ErrBadFrame)
	}
	r := &frameReader{b: b[2:]}
	genv.Scheme = r.str()
	genv.Channel = r.str()
	genv.Epoch = r.uvarint()
	genv.Count = r.uvarint()
	genv.Ciphertext = r.bytes()
	nKeys := r.uvarint()
	if r.err == nil && nKeys > uint64(len(r.b)) {
		return GroupEnvelope{}, fmt.Errorf("%w: key count %d exceeds remaining bytes", ErrBadFrame, nKeys)
	}
	if r.err == nil && nKeys > 0 {
		genv.Keys = make(map[string]dcrypto.HybridCiphertext, nKeys)
		for i := uint64(0); i < nKeys && r.err == nil; i++ {
			id := r.str()
			genv.Keys[id] = dcrypto.HybridCiphertext{
				EphemeralPub: r.bytes(),
				Ciphertext:   r.bytes(),
			}
		}
	}
	if err := r.done(); err != nil {
		return GroupEnvelope{}, err
	}
	return genv, nil
}

// EncodeGroupEnvelope marshals a group envelope in the named codec — the
// encoding counterpart of ParseGroupEnvelope, for clients and tests that
// handle group envelopes outside the batch stage.
func EncodeGroupEnvelope(genv GroupEnvelope, codec string) ([]byte, error) {
	switch codec {
	case "", CodecJSON:
		return json.Marshal(genv)
	case CodecBinary:
		return encodeGroupEnvelopeBinary(&genv, nil), nil
	default:
		return nil, fmt.Errorf("middleware: unknown codec %q", codec)
	}
}

// decodeEnvelopeBinary reverses encodeEnvelopeBinary.
func decodeEnvelopeBinary(b []byte) (Envelope, error) {
	var env Envelope
	if len(b) < 2 || b[0] != binaryMagic || b[1] != binaryKindEnvelope {
		return env, fmt.Errorf("%w: not a binary envelope frame", ErrBadFrame)
	}
	r := &frameReader{b: b[2:]}
	env.Scheme = r.str()
	env.Channel = r.str()
	env.Epoch = r.uvarint()
	nKeys := r.uvarint()
	if r.err == nil && nKeys > uint64(len(r.b)) {
		return Envelope{}, fmt.Errorf("%w: key count %d exceeds remaining bytes", ErrBadFrame, nKeys)
	}
	if r.err == nil && nKeys > 0 {
		env.Keys = make(map[string]dcrypto.HybridCiphertext, nKeys)
		for i := uint64(0); i < nKeys && r.err == nil; i++ {
			id := r.str()
			env.Keys[id] = dcrypto.HybridCiphertext{
				EphemeralPub: r.bytes(),
				Ciphertext:   r.bytes(),
			}
		}
	}
	env.Ciphertext = r.bytes()
	if err := r.done(); err != nil {
		return Envelope{}, err
	}
	return env, nil
}

// EncodeEnvelope marshals an envelope in the named codec — the encoding
// counterpart of ParseEnvelope, for clients and tests that handle
// envelopes outside the encrypt stage.
func EncodeEnvelope(env Envelope, codec string) ([]byte, error) {
	switch codec {
	case "", CodecJSON:
		return json.Marshal(env)
	case CodecBinary:
		return encodeEnvelopeBinary(&env, nil), nil
	default:
		return nil, fmt.Errorf("middleware: unknown codec %q", codec)
	}
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

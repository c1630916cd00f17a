package netedge

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"dltprivacy/internal/middleware"
)

// Errors of the edge protocol and flow control.
var (
	// ErrBadFrame is returned (wrapped) for every malformed stream frame.
	// Like the codec v2 decode errors it is a rejection, never a panic:
	// lengths are validated before any allocation or slice.
	ErrBadFrame = errors.New("netedge: malformed stream frame")
	// ErrFrameTooBig is returned when a frame's length prefix exceeds the
	// configured maximum — the bound that keeps a hostile peer from making
	// the edge allocate arbitrarily.
	ErrFrameTooBig = errors.New("netedge: frame exceeds size limit")
	// ErrBackpressure is returned (server: to the connection being shed,
	// client: to the caller) when a bounded queue or in-flight window is
	// full and the endpoint runs in shedding mode instead of blocking.
	ErrBackpressure = errors.New("netedge: outbound queue full")
	// ErrClosed is returned for operations on a closed client or server.
	ErrClosed = errors.New("netedge: connection closed")
)

// Frame kinds on the stream.
const (
	frameRequest = 0x01 // client -> server: uvarint id, topic, payload
	frameOK      = 0x02 // server -> client: uvarint id, reply payload
	frameError   = 0x03 // server -> client: uvarint id, error text
)

// DefaultMaxFrame bounds a frame's encoded size (length prefix excluded)
// unless overridden: 1 MiB holds any plausible envelope while keeping a
// hostile length prefix from reserving real memory.
const DefaultMaxFrame = 1 << 20

// maxKeep bounds what outlives a flight of frames: a write batch stops
// gathering at this size, and a batch or pooled buffer that one large frame
// grew past it is dropped for the collector instead of reused, so a single
// 1 MiB frame does not pin 1 MiB for the life of the process.
const maxKeep = 64 << 10

// reuse empties b for the next flight, or drops it when it outgrew maxKeep.
func reuse(b []byte) []byte {
	if cap(b) > maxKeep {
		return nil
	}
	return b[:0]
}

// appendFrame encodes one stream frame — length prefix, kind, id, topic
// (requests only; pass "" for replies), body — into dst and returns the
// extended slice. The frame is built in one pass with the length patched
// in, so callers can encode into a pooled buffer.
func appendFrame(dst []byte, kind byte, id uint64, topic string, body []byte) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length placeholder
	dst = append(dst, kind)
	dst = binary.AppendUvarint(dst, id)
	if kind == frameRequest {
		dst = binary.AppendUvarint(dst, uint64(len(topic)))
		dst = append(dst, topic...)
	}
	dst = append(dst, body...)
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// frame is one decoded stream frame. topic is set for requests only; body
// aliases the read buffer it was parsed from and is valid until the next
// read on that buffer.
type frame struct {
	kind  byte
	id    uint64
	topic string
	body  []byte
}

// gatewayTopics are the topics a request names by the gateway's constant:
// a connection's session visits alternate session.open → gateway.submit →
// session.close, which no one-entry cache holds.
var gatewayTopics = [...]string{
	middleware.TopicSubmit, middleware.TopicSessionOpen, middleware.TopicSessionClose,
	middleware.TopicRevocationNotify, middleware.TopicShardRebalance,
}

// topicString returns the topic b names: a gateway topic's constant, or a
// copy of any other.
func topicString(b []byte) string {
	for _, t := range gatewayTopics {
		if string(b) == t { // the comparison does not allocate
			return t
		}
	}
	return string(b)
}

// parseFrame decodes the post-length-prefix bytes of one frame. body
// aliases b. A request's topic is the gateway's constant when it names one
// (topicString), else last when it equals last — the topic of the
// connection's previous request, which a reader passes back in so that a
// run of requests on another topic allocates it once — else a copy.
func parseFrame(b []byte, last string) (frame, error) {
	var f frame
	if len(b) < 2 {
		return f, fmt.Errorf("%w: %d bytes", ErrBadFrame, len(b))
	}
	f.kind = b[0]
	b = b[1:]
	id, n := binary.Uvarint(b)
	if n <= 0 {
		return f, fmt.Errorf("%w: truncated request id", ErrBadFrame)
	}
	f.id = id
	b = b[n:]
	switch f.kind {
	case frameRequest:
		tl, n := binary.Uvarint(b)
		if n <= 0 {
			return f, fmt.Errorf("%w: truncated topic length", ErrBadFrame)
		}
		b = b[n:]
		if tl > uint64(len(b)) {
			return f, fmt.Errorf("%w: topic length %d exceeds remaining %d bytes", ErrBadFrame, tl, len(b))
		}
		f.topic = last
		if string(b[:tl]) != last { // the comparison does not allocate
			f.topic = topicString(b[:tl])
		}
		f.body = b[tl:]
	case frameOK, frameError:
		f.body = b
	default:
		return f, fmt.Errorf("%w: unknown frame kind 0x%02x", ErrBadFrame, f.kind)
	}
	return f, nil
}

// readFrame reads one length-prefixed frame from br into buf (grown as
// needed, reused across calls) and parses it. The returned frame aliases
// buf. maxFrame rejects hostile length prefixes before any allocation.
func readFrame(br *bufio.Reader, buf []byte, maxFrame int) (frame, []byte, error) {
	return readFrameTopic(br, buf, maxFrame, "")
}

// readFrameTopic is readFrame for a reader of requests: last is the topic
// of the previous request it read (see parseFrame).
func readFrameTopic(br *bufio.Reader, buf []byte, maxFrame int, last string) (frame, []byte, error) {
	// Peek, not io.ReadFull into a local array: the array would escape
	// through the io.Reader interface and cost an allocation per frame.
	hdr, err := br.Peek(4)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return frame{}, buf, err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n > maxFrame {
		return frame{}, buf, fmt.Errorf("%w: %d > %d", ErrFrameTooBig, n, maxFrame)
	}
	if n < 2 {
		return frame{}, buf, fmt.Errorf("%w: length prefix %d", ErrBadFrame, n)
	}
	// The four bytes were just peeked, so this cannot fail or come up short.
	_, _ = br.Discard(4)
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(br, buf); err != nil {
		return frame{}, buf, fmt.Errorf("%w: truncated body: %v", ErrBadFrame, err)
	}
	f, err := parseFrame(buf, last)
	return f, buf, err
}

// WireError is a server-side rejection carried back over the stream: the
// remote error's text, which preserves the middleware sentinel messages
// ("session token bound to another connection", "malformed binary frame",
// ...) even though the error values themselves cannot cross a socket.
type WireError struct {
	Msg string
}

// Error implements error.
func (e *WireError) Error() string { return "netedge: server: " + e.Msg }

package netedge

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
)

// FuzzStreamFrame feeds arbitrary bytes to the stream decoder as a socket
// would deliver them — readFrame over a bufio.Reader, frame after frame
// into one reused buffer, the way Server.readLoop and the client's reader
// run it. Hostile bytes may be rejected but never panic; a length prefix
// over the limit fails with ErrFrameTooBig before the buffer grows; what is
// returned aliases the read buffer and nothing else; every frame the
// decoder accepts re-encodes (appendFrame) to one that decodes the same;
// a reader that hands each request's topic to the next read, as the
// server's does to save the allocation, decodes exactly the same frames;
// and an error reply's label unwraps to a sentinel only when it names a
// stage and a reason.
func FuzzStreamFrame(f *testing.F) {
	const maxFrame = 1 << 12
	request := appendFrame(nil, frameRequest, 7, "gateway.submit", []byte("payload"))
	ok := appendFrame(nil, frameOK, 7, "", []byte("tx-id"))
	failed := appendFrame(nil, frameError, 1<<40, "session/no_session", []byte("middleware: no such session"))
	f.Add(request)
	f.Add(ok)
	f.Add(failed)
	f.Add(appendFrame(nil, frameError, 2, "", []byte("gateway: unknown topic")))
	f.Add(appendFrame(nil, frameError, 3, "session/", nil))
	f.Add(append(append([]byte(nil), request...), ok...))
	// Two requests on one topic, then another topic.
	f.Add(appendFrame(append(append([]byte(nil), request...), request...), frameRequest, 9, "session.open", nil))
	f.Add(request[:len(request)-1])
	f.Add(request[:3])
	f.Add(appendFrame(nil, frameRequest, 0, "", nil))
	f.Add(appendFrame(nil, 0x7f, 1, "", []byte("unknown kind")))
	for _, n := range []uint32{0, 1, maxFrame, maxFrame + 1, 1<<32 - 1} {
		f.Add(binary.BigEndian.AppendUint32(nil, n))
	}
	// A topic length that runs past the body.
	f.Add([]byte{0, 0, 0, 4, frameRequest, 0x01, 0x09, 't'})

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		var buf []byte
		reusing := bufio.NewReader(bytes.NewReader(data))
		var rbuf []byte
		last := ""
		for {
			before := cap(buf)
			fr, got, err := readFrame(br, buf, maxFrame)
			rfr, rgot, rerr := readFrameTopic(reusing, rbuf, maxFrame, last)
			rbuf, last = rgot, rfr.topic
			if (err == nil) != (rerr == nil) || rfr.kind != fr.kind || rfr.id != fr.id || rfr.topic != fr.topic || !bytes.Equal(rfr.body, fr.body) {
				t.Fatalf("reusing the previous topic changed the decode:\n plain   %+v, %v\n reusing %+v, %v", fr, err, rfr, rerr)
			}
			if err != nil {
				if errors.Is(err, ErrFrameTooBig) && cap(got) != before {
					t.Fatalf("oversize prefix grew the read buffer from %d to %d bytes", before, cap(got))
				}
				if !errors.Is(err, ErrFrameTooBig) && !errors.Is(err, errBadFrame) &&
					err != io.EOF && err != io.ErrUnexpectedEOF {
					t.Fatalf("readFrame failed with %v, want a frame error or end of stream", err)
				}
				return
			}
			buf = got
			if len(buf) > maxFrame {
				t.Fatalf("accepted a %d-byte frame over the %d-byte limit", len(buf), maxFrame)
			}
			// The body is the tail of the read buffer, the topic the bytes
			// just before it.
			tail := len(buf) - len(fr.body)
			if tail < 0 || len(fr.body) > 0 && &fr.body[0] != &buf[tail] {
				t.Fatalf("body (%d bytes) does not alias the tail of the %d-byte read buffer", len(fr.body), len(buf))
			}
			if tail < len(fr.topic) || string(buf[tail-len(fr.topic):tail]) != fr.topic {
				t.Fatalf("topic %q is not the bytes before the body", fr.topic)
			}
			if fr.kind == frameError {
				we := &WireError{Label: fr.topic, Msg: string(fr.body)}
				if sentinel := errors.Unwrap(we); sentinel != nil && !strings.Contains(fr.topic, "/") {
					t.Fatalf("label %q names no stage and reason, yet unwraps to %v", fr.topic, sentinel)
				}
			}
			again, _, err := readFrame(bufio.NewReader(bytes.NewReader(
				appendFrame(nil, fr.kind, fr.id, fr.topic, fr.body))), nil, maxFrame)
			if err != nil || again.kind != fr.kind || again.id != fr.id || again.topic != fr.topic || !bytes.Equal(again.body, fr.body) {
				t.Fatalf("round trip: %v\n first  %+v\n second %+v", err, fr, again)
			}
		}
	})
}

package netedge

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// echo replies with the request's payload.
var echo = HandlerFunc(func(_ context.Context, _ string, payload []byte, _ string) ([]byte, error) {
	return payload, nil
})

// listenEcho serves echo on a loopback port, closed with the test.
func listenEcho(t testing.TB) *Server {
	t.Helper()
	srv, err := Listen("127.0.0.1:0", echo)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// gatedConn is a client connection whose first Write stops at a gate: it
// announces itself on entered, waits for gate to close, and then either
// fails with err or goes through. Every Write's bytes are recorded.
type gatedConn struct {
	net.Conn
	entered chan struct{}
	gate    chan struct{}
	err     error

	mu     sync.Mutex
	writes [][]byte
}

func (g *gatedConn) Write(b []byte) (int, error) {
	g.mu.Lock()
	first := len(g.writes) == 0
	g.writes = append(g.writes, append([]byte(nil), b...))
	g.mu.Unlock()
	if first {
		close(g.entered)
		<-g.gate
		if g.err != nil {
			return 0, g.err
		}
	}
	return g.Conn.Write(b)
}

// gatedFlight dials srv through a gatedConn and puts n CallAsyncs behind
// its gate: the first becomes the flusher and blocks in Write, the other
// n-1 are issued one after another while it is stuck — that they return at
// all, with the gate still shut, is the proof that a caller who finds a
// flusher active never touches the socket. It returns with the gate shut;
// first delivers the flusher's own CallAsync result once the gate opens.
func gatedFlight(t *testing.T, srv *Server, n int, writeErr error) (c *Client, g *gatedConn, first <-chan *PendingCall, rest []*PendingCall) {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	g = &gatedConn{Conn: conn, entered: make(chan struct{}), gate: make(chan struct{}), err: writeErr}
	c = newClient(g, dialOptions{inFlight: n})
	t.Cleanup(func() { c.Close() })
	ctx := context.Background()
	lead := make(chan *PendingCall, 1)
	go func() {
		p, err := c.CallAsync(ctx, "t", []byte("req-00"))
		if err != nil {
			t.Errorf("flusher's CallAsync: %v", err)
		}
		lead <- p
	}()
	<-g.entered
	for i := 1; i < n; i++ {
		p, err := c.CallAsync(ctx, "t", []byte(fmt.Sprintf("req-%02d", i)))
		if err != nil {
			t.Fatalf("CallAsync %d behind a busy flusher: %v", i, err)
		}
		rest = append(rest, p)
	}
	return c, g, lead, rest
}

// TestClientCombinesFlushes proves callers share the flusher's write: 32
// requests issued while the first write is stuck leave in exactly two
// writes — the flusher's own frame, then the 31 that queued behind it —
// as well-formed frames in issue order, and every Wait gets its own reply.
func TestClientCombinesFlushes(t *testing.T) {
	const n = 32
	srv := listenEcho(t)
	_, g, first, rest := gatedFlight(t, srv, n, nil)
	close(g.gate)
	calls := append([]*PendingCall{<-first}, rest...)
	ctx := context.Background()
	for i, p := range calls {
		if p == nil {
			t.Fatalf("call %d: no PendingCall", i)
		}
		b, err := p.Wait(ctx)
		if want := fmt.Sprintf("req-%02d", i); err != nil || string(b) != want {
			t.Fatalf("wait %d: got %q/%v, want %q", i, b, err, want)
		}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.writes) != 2 {
		t.Fatalf("%d requests left in %d writes, want 2", n, len(g.writes))
	}
	br := bufio.NewReader(bytes.NewReader(bytes.Join(g.writes, nil)))
	var buf []byte
	for i := 0; i < n; i++ {
		f, nbuf, err := readFrame(br, buf, DefaultMaxFrame)
		buf = nbuf
		if err != nil {
			t.Fatalf("frame %d on the wire: %v", i, err)
		}
		if want := fmt.Sprintf("req-%02d", i); f.kind != frameRequest || f.id != uint64(i+1) || f.topic != "t" || string(f.body) != want {
			t.Fatalf("frame %d on the wire: %+v, want request %d %q", i, f, i+1, want)
		}
	}
	if br.Buffered() != 0 {
		t.Fatalf("%d stray bytes after the %d frames", br.Buffered(), n)
	}
	if len(g.writes[0]) >= len(g.writes[1]) {
		t.Fatalf("write sizes %d then %d: the queued frames did not share the second write", len(g.writes[0]), len(g.writes[1]))
	}
}

// TestClientWriteFailureSettlesEveryCall fails the flusher's write with 31
// calls queued behind it: every Wait returns the connection error — the
// flusher's own included, since a nil CallAsync error only means queued —
// later calls are refused, and the window and the pending map end empty.
func TestClientWriteFailureSettlesEveryCall(t *testing.T) {
	const n = 32
	errGate := errors.New("gate: broken pipe")
	srv := listenEcho(t)
	c, g, first, rest := gatedFlight(t, srv, n, errGate)
	close(g.gate)
	ctx := context.Background()
	for i, p := range append([]*PendingCall{<-first}, rest...) {
		if p == nil {
			t.Fatalf("call %d: no PendingCall", i)
		}
		if _, err := p.Wait(ctx); !errors.Is(err, errGate) {
			t.Fatalf("wait %d: got %v, want the write error", i, err)
		}
	}
	if _, err := c.CallAsync(ctx, "t", []byte("late")); !errors.Is(err, errGate) {
		t.Fatalf("CallAsync on the failed connection: got %v, want the write error", err)
	}
	if _, err := c.Call(ctx, "t", []byte("late")); !errors.Is(err, errGate) {
		t.Fatalf("Call on the failed connection: got %v, want the write error", err)
	}
	assertDrained(t, c)
}

// assertDrained checks that no call still holds a window slot or a pending
// entry on c, and that no context registration is left.
func assertDrained(t *testing.T, c *Client) {
	t.Helper()
	c.pmu.Lock()
	pending, watched := len(c.pending), len(c.watched)
	c.pmu.Unlock()
	if pending != 0 || len(c.window) != 0 || watched != 0 {
		t.Fatalf("after failure: %d pending calls, %d window slots held, %d context registrations, want 0, 0 and 0", pending, len(c.window), watched)
	}
}

// TestClientNoCallHangsOnDyingConn closes the server under a storm of
// synchronous callers, repeatedly: a call that registered just after the
// failure swept the pending map, and then queued its frame behind a flusher
// that had already given up, would wait for ever — so every caller must
// come back with an error, and nothing may be left registered.
func TestClientNoCallHangsOnDyingConn(t *testing.T) {
	const callers = 16
	for round := 0; round < 10; round++ {
		srv, err := Listen("127.0.0.1:0", echo)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Dial(srv.Addr().String(), WithInFlight(callers))
		if err != nil {
			srv.Close()
			t.Fatal(err)
		}
		var served atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < callers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if _, err := c.Call(context.Background(), "t", []byte("x")); err != nil {
						return
					}
					served.Add(1)
				}
			}()
		}
		for served.Load() < 4*callers {
			time.Sleep(time.Millisecond)
		}
		srv.Close()
		returned := make(chan struct{})
		go func() { wg.Wait(); close(returned) }()
		select {
		case <-returned:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: callers still waiting 10s after the connection died", round)
		}
		assertDrained(t, c)
		c.Close()
	}
}

// TestEdgeWriterDrainsQueue pipelines n echo requests in one segment and
// proves the writer sends what is queued in one write: replies come back in
// request order in at most n/2 writes (a writer that kept pace with the
// reader frame for frame would need n), and BytesOut still counts every
// reply frame's bytes.
func TestEdgeWriterDrainsQueue(t *testing.T) {
	const n = 64
	srv := listenEcho(t)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var burst []byte
	for i := 0; i < n; i++ {
		burst = appendFrame(burst, frameRequest, uint64(i+1), "t", []byte(fmt.Sprintf("req-%02d", i)))
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	var buf []byte
	var replyBytes uint64
	for i := 0; i < n; i++ {
		f, nbuf, err := readFrame(br, buf, DefaultMaxFrame)
		buf = nbuf
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if want := fmt.Sprintf("req-%02d", i); f.kind != frameOK || f.id != uint64(i+1) || string(f.body) != want {
			t.Fatalf("reply %d: %+v, want ok %d %q", i, f, i+1, want)
		}
		replyBytes += uint64(len(buf)) + 4
	}
	// Close waits for the connection's writer, so the counters are final.
	conn.Close()
	srv.Close()
	st := srv.Stats()
	if st.Requests != n || st.Writes == 0 || st.Writes > n/2 {
		t.Fatalf("%d requests answered in %d writes, want %d in 1..%d", st.Requests, st.Writes, n, n/2)
	}
	if st.BytesOut != replyBytes {
		t.Fatalf("BytesOut = %d, want the %d bytes of the %d reply frames", st.BytesOut, replyBytes, n)
	}
}

// TestNoReplyWaitsOnAHalfArrivedFrame sends request A and the first half
// of request B in one write, and reads A's reply before sending the rest of
// B: a server that held A's reply until its reader had nothing buffered
// would wait on the rest of B while this side waits on the reply.
func TestNoReplyWaitsOnAHalfArrivedFrame(t *testing.T) {
	srv := listenEcho(t)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frameA := appendFrame(nil, frameRequest, 1, "t", []byte("request A"))
	frameB := appendFrame(nil, frameRequest, 2, "t", bytes.Repeat([]byte("B"), 64))
	half := len(frameB) / 2
	if _, err := conn.Write(append(append([]byte(nil), frameA...), frameB[:half]...)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	f, buf, err := readFrame(br, nil, DefaultMaxFrame)
	if err != nil {
		t.Fatalf("A's reply, with half of B sent: %v", err)
	}
	if f.kind != frameOK || f.id != 1 || string(f.body) != "request A" {
		t.Fatalf("A's reply: %+v", f)
	}
	if _, err := conn.Write(frameB[half:]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if f, _, err = readFrame(br, buf, DefaultMaxFrame); err != nil || f.id != 2 || !bytes.Equal(f.body, bytes.Repeat([]byte("B"), 64)) {
		t.Fatalf("B's reply: %+v, %v", f, err)
	}
}

// TestLargeFrameBuffersNotRetained sends one 512 KiB request and gets it
// echoed: the buffers that grew to carry it — the client's write batch and
// its spare, the server's output buffer — must not be kept for reuse.
func TestLargeFrameBuffersNotRetained(t *testing.T) {
	srv := listenEcho(t)
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	big := bytes.Repeat([]byte{0xa5}, 512<<10)
	reply, err := c.Call(context.Background(), "t", big)
	if err != nil || !bytes.Equal(reply, big) {
		t.Fatalf("512 KiB echo: %d bytes back, err %v", len(reply), err)
	}
	// The caller was its own flusher, so the batch is settled by now.
	c.wmu.Lock()
	batch, spare := cap(c.batch), cap(c.spare)
	c.wmu.Unlock()
	if batch > maxKeep || spare > maxKeep {
		t.Fatalf("client kept write buffers of %d and %d bytes, cap %d", batch, spare, maxKeep)
	}
	// The server's output buffer grew to carry the reply; flush writes it
	// whole and hands back nothing that outgrew maxKeep.
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	frame := appendFrame(nil, frameOK, 1, "", big)
	got := make(chan []byte, 1)
	go func() {
		r := make([]byte, len(frame))
		_, _ = io.ReadFull(b, r)
		got <- r
	}()
	r := newConnReader(&Server{}, a)
	r.out = frame
	if err := r.flush(); err != nil || cap(r.out) > maxKeep {
		t.Fatalf("flush of a 512 KiB reply: kept a buffer of cap %d (limit %d), err %v", cap(r.out), maxKeep, err)
	}
	if r := <-got; !bytes.Equal(r, frame) {
		t.Fatalf("flush wrote %d bytes differing from the %d-byte reply frame", len(r), len(frame))
	}
}

// TestCarvedRepliesStayTheCallers holds the replies the reader carves from
// its shared chunks to their callers. 32 concurrent Calls on one connection
// each check their 32-byte echo on receipt, then append to it and overwrite
// all of it with a pattern of their own, and keep it. At the end every kept
// reply must still read its own pattern: a reply handed the chunk's spare
// capacity would append over its neighbour in the chunk, and one of the two
// patterns would be gone. Neighbouring replies are written at once — a
// caller to its own, the reader to the next — which -race must see clean.
func TestCarvedRepliesStayTheCallers(t *testing.T) {
	srv := listenEcho(t)
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const callers, rounds = 32, 64
	kept := make([][][]byte, callers)
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				// One caller's consecutive replies differ in r&7, and
				// different callers' in g: no two neighbours share a byte.
				v := byte(g<<3 | r&7)
				sent := bytes.Repeat([]byte{v}, 32)
				reply, err := c.Call(context.Background(), "echo", sent)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(reply, sent) {
					errs <- fmt.Errorf("caller %d round %d: reply %x, sent %x", g, r, reply, sent)
					return
				}
				mine := append(reply, sent[:16]...)
				for i := range mine {
					mine[i] = ^v
				}
				kept[g] = append(kept[g], mine)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for g := range kept {
		for r, mine := range kept[g] {
			v := byte(g<<3 | r&7)
			if !bytes.Equal(mine, bytes.Repeat([]byte{^v}, 48)) {
				t.Fatalf("caller %d round %d: kept reply reads %x, want 48 bytes of %02x", g, r, mine, ^v)
			}
		}
	}
}

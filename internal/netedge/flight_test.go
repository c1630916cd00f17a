package netedge

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
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
	c = newClient(g, dialOptions{inFlight: n, maxFrame: DefaultMaxFrame})
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
// entry on c.
func assertDrained(t *testing.T, c *Client) {
	t.Helper()
	c.pmu.Lock()
	pending := len(c.pending)
	c.pmu.Unlock()
	if pending != 0 || len(c.window) != 0 {
		t.Fatalf("after failure: %d pending calls, %d window slots held, want 0 and 0", pending, len(c.window))
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

// TestLargeFrameBuffersNotRetained sends one 512 KiB request and gets it
// echoed: the buffers that grew to carry it — the client's write batch and
// its spare, the server's pooled reply frame — must not be kept for reuse.
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
	// The writer handed the reply's buffer back before it wrote. An empty
	// pool makes fresh 4 KiB buffers, so draining it terminates.
	for i := 0; i < 64; i++ {
		if bp := framePool.Get().(*[]byte); cap(*bp) > maxKeep {
			t.Fatalf("framePool kept a %d-byte buffer, cap %d", cap(*bp), maxKeep)
		}
	}
}

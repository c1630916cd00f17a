package netedge

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dltprivacy/internal/middleware"
	"dltprivacy/internal/telemetry"
)

// Handler serves decoded wire messages — the interface the middleware
// Gateway satisfies. The edge calls AppendWire and nothing else: dst is the
// connection's output buffer, holding the replies not yet written and then
// this reply's frame head, and the handler appends its reply to it and
// returns the extended slice, so no reply is allocated to be copied and
// dropped. The reply is complete when AppendWire returns: what it appended
// must not alias memory another goroutine may rewrite, and the handler must
// neither touch what dst already holds nor retain dst. On an error the edge
// truncates the buffer back to the frame's start, whatever the handler
// appended, and appends the error frame instead. ServeWire returns the same
// reply in a slice of its own, for callers in process: AppendWire's result
// is dst followed by what ServeWire would have returned.
//
// transportID is the serving connection's unique identity, the value
// session binding pins tokens to. The payload slice aliases the
// connection's read buffer and is only valid until the call returns;
// implementations must not retain it. The gateway does not get this for
// free: a stage that holds a request past the call (batch) copies what it
// holds into memory it owns, and a submission's ID is appended before the
// Request it was decoded into goes back to its pool (middleware.Request).
type Handler interface {
	AppendWire(ctx context.Context, dst []byte, topic string, payload []byte, transportID string) ([]byte, error)
	ServeWire(ctx context.Context, topic string, payload []byte, transportID string) ([]byte, error)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(ctx context.Context, topic string, payload []byte, transportID string) ([]byte, error)

// ServeWire implements Handler.
func (f HandlerFunc) ServeWire(ctx context.Context, topic string, payload []byte, transportID string) ([]byte, error) {
	return f(ctx, topic, payload, transportID)
}

// AppendWire implements Handler: it appends what the function returns.
func (f HandlerFunc) AppendWire(ctx context.Context, dst []byte, topic string, payload []byte, transportID string) ([]byte, error) {
	reply, err := f(ctx, topic, payload, transportID)
	if err != nil {
		return dst, err
	}
	return append(dst, reply...), nil
}

// options collects the server knobs; see the With* constructors.
type options struct {
	acceptLoops  int
	maxFrame     int
	idleTimeout  time.Duration
	writeTimeout time.Duration
	connClose    func(transportID string)
}

// Option configures a Server.
type Option func(*options)

// WithAcceptLoops shards the accept plane across n goroutines on the one
// listener (the kernel load-balances wakeups), so a connection storm is
// not serialized through a single accepter. Default 4.
func WithAcceptLoops(n int) Option {
	return func(o *options) {
		if n > 0 {
			o.acceptLoops = n
		}
	}
}

// WithMaxFrame bounds the stream frame size accepted and produced.
// Default DefaultMaxFrame (1 MiB).
func WithMaxFrame(n int) Option {
	return func(o *options) {
		if n > 0 {
			o.maxFrame = n
		}
	}
}

// WithIdleTimeout bounds how long a connection may sit without delivering
// a frame before the read deadline reaps it. Default 5m; 0 disables.
func WithIdleTimeout(d time.Duration) Option {
	return func(o *options) { o.idleTimeout = d }
}

// WithWriteTimeout bounds each reply write. A write that passes it sheds
// the connection: the peer has stopped reading its replies, so the
// connection is closed and counted in Sheds. Default 30s; 0 disables, and
// a peer that never reads then holds its connection until it closes.
func WithWriteTimeout(d time.Duration) Option {
	return func(o *options) { o.writeTimeout = d }
}

// WithConnCloseHook runs fn with the connection's transport identity after
// the connection fully tears down — the hook cmd/gateway uses to reap the
// connection's bound sessions via SessionManager.EvictTransport.
func WithConnCloseHook(fn func(transportID string)) Option {
	return func(o *options) { o.connClose = fn }
}

// Server is the TCP edge: a sharded accept plane feeding one goroutine per
// connection, which dispatches every decoded frame to the Handler with the
// connection's transport identity and writes the replies. Create with
// Serve or Listen; stop with Close.
type Server struct {
	h      Handler
	ln     net.Listener
	opt    options
	ctx    context.Context
	cancel context.CancelFunc

	connSeq   atomic.Uint64
	live      atomic.Int64
	accepted  atomic.Uint64
	closedCt  atomic.Uint64
	bytesIn   atomic.Uint64
	bytesOut  atomic.Uint64
	sheds     atomic.Uint64
	frameErrs atomic.Uint64
	requests  atomic.Uint64
	writes    atomic.Uint64

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	wg sync.WaitGroup
}

// EdgeStats is a snapshot of the server's counters, the numbers the
// confmw_edge_* metric families export.
type EdgeStats struct {
	// Live is the number of currently open connections.
	Live int64
	// Accepted and Closed count connections over the server's lifetime.
	Accepted uint64
	Closed   uint64
	// BytesIn and BytesOut count frame bytes crossing the sockets
	// (length prefixes included).
	BytesIn  uint64
	BytesOut uint64
	// Sheds counts connections dropped because a reply write passed its
	// deadline (WithWriteTimeout): the peer stopped reading. Other write
	// failures close the connection without counting here.
	Sheds uint64
	// FrameErrors counts malformed or oversized stream frames (each also
	// closes its connection: framing errors are not recoverable on a
	// stream).
	FrameErrors uint64
	// Requests counts request frames dispatched to the handler.
	Requests uint64
	// Writes counts socket writes issued by connection readers. Each
	// carries every reply the reader made since its last write, so
	// Requests/Writes is replies per write.
	Writes uint64
}

// Serve starts the edge over an established listener. The returned server
// is already accepting; Close stops it and tears down every connection.
func Serve(ln net.Listener, h Handler, opts ...Option) *Server {
	opt := options{
		acceptLoops:  4,
		maxFrame:     DefaultMaxFrame,
		idleTimeout:  5 * time.Minute,
		writeTimeout: 30 * time.Second,
	}
	for _, o := range opts {
		o(&opt)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		h:      h,
		ln:     ln,
		opt:    opt,
		ctx:    ctx,
		cancel: cancel,
		conns:  make(map[net.Conn]struct{}),
	}
	for i := 0; i < opt.acceptLoops; i++ {
		s.wg.Add(1)
		go s.acceptLoop()
	}
	return s
}

// Listen binds addr (e.g. ":9444", "127.0.0.1:0") and serves the edge on
// it.
func Listen(addr string, h Handler, opts ...Option) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netedge: listen %s: %w", addr, err)
	}
	return Serve(ln, h, opts...), nil
}

// Addr reports the listener's address (the resolved port for ":0" binds).
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops accepting, closes every live connection, and waits for all
// connection goroutines to finish. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.cancel()
	err := s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}

// Stats snapshots the server's counters.
func (s *Server) Stats() EdgeStats {
	return EdgeStats{
		Live:        s.live.Load(),
		Accepted:    s.accepted.Load(),
		Closed:      s.closedCt.Load(),
		BytesIn:     s.bytesIn.Load(),
		BytesOut:    s.bytesOut.Load(),
		Sheds:       s.sheds.Load(),
		FrameErrors: s.frameErrs.Load(),
		Requests:    s.requests.Load(),
		Writes:      s.writes.Load(),
	}
}

// RegisterMetrics registers the edge counters into reg under the
// confmw_edge_* naming scheme.
func (s *Server) RegisterMetrics(reg *telemetry.Registry) error {
	return reg.RegisterFuncs([]telemetry.FuncMetric{
		{Name: "confmw_edge_connections_live", Help: "Currently open edge connections.", Gauge: true, Load: func() uint64 { return uint64(s.live.Load()) }},
		{Name: "confmw_edge_connections_accepted_total", Help: "Connections accepted by the edge.", Load: s.accepted.Load},
		{Name: "confmw_edge_connections_closed_total", Help: "Connections fully torn down.", Load: s.closedCt.Load},
		{Name: "confmw_edge_bytes_in_total", Help: "Frame bytes read off edge sockets.", Load: s.bytesIn.Load},
		{Name: "confmw_edge_bytes_out_total", Help: "Frame bytes written to edge sockets.", Load: s.bytesOut.Load},
		{Name: "confmw_edge_backpressure_sheds_total", Help: "Connections shed because a reply write passed its deadline.", Load: s.sheds.Load},
		{Name: "confmw_edge_frame_errors_total", Help: "Malformed or oversized stream frames.", Load: s.frameErrs.Load},
		{Name: "confmw_edge_requests_total", Help: "Request frames dispatched to the handler.", Load: s.requests.Load},
		{Name: "confmw_edge_socket_writes_total", Help: "Socket writes issued by connection readers; each carries every reply made since the last.", Load: s.writes.Load},
	})
}

// acceptLoop is one shard of the accept plane.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			if s.ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return
			}
			// Transient accept failure (fd pressure, aborted handshake):
			// back off briefly instead of spinning the accept shard.
			time.Sleep(5 * time.Millisecond)
			continue
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.accepted.Add(1)
		s.live.Add(1)
		s.wg.Add(1)
		go s.serveConn(c)
	}
}

// serveConn runs one connection to completion on its own goroutine — the
// read loop, which also writes the replies — then tears it down: close,
// untrack, counters, close hook.
func (s *Server) serveConn(c net.Conn) {
	defer s.wg.Done()
	// The transport identity: unique for the server's lifetime (sequence
	// number) and diagnosable (peer address). Sessions bind to this string.
	id := fmt.Sprintf("tcp:%d:%s", s.connSeq.Add(1), c.RemoteAddr())
	s.readLoop(c, id)
	c.Close()
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.live.Add(-1)
	s.closedCt.Add(1)
	if hook := s.opt.connClose; hook != nil {
		hook(id)
	}
}

// readLoop decodes frames off the socket and dispatches them to the
// handler inline — per-connection submission order is therefore the order
// requests hit the chain and the orderer, and the order their replies
// leave in. Each reply is appended to the connection's output buffer,
// which is written out before any read that would wait for the peer
// (connReader) or once it reaches maxKeep. Returns on the first read,
// framing or write failure; framing failures close the connection (stream
// framing cannot resynchronize) and count in FrameErrors.
func (s *Server) readLoop(c net.Conn, id string) {
	r := newConnReader(s, c)
	br := bufio.NewReaderSize(r, 16<<10)
	// The read buffer is per-connection and reused for every frame: the
	// decode path hands the handler payload bytes zero-copy, so they are
	// overwritten by the next frame — the Handler contract (borrow, never
	// retain) is what makes that safe.
	buf := make([]byte, 0, 4096)
	topic := "" // of the previous request, so a run on one topic allocates it once
	for {
		if len(r.out) >= maxKeep && r.flush() != nil {
			return
		}
		// The idle deadline is armed when the reader is about to wait on
		// the socket, not per frame: frames already buffered need none, and
		// a partly buffered one keeps the deadline its first bytes came
		// under, which is the earlier one.
		if s.opt.idleTimeout > 0 && br.Buffered() == 0 {
			_ = c.SetReadDeadline(time.Now().Add(s.opt.idleTimeout))
		}
		f, nbuf, err := readFrameTopic(br, buf, s.opt.maxFrame, topic)
		buf, topic = nbuf, f.topic
		if err == nil && f.kind != frameRequest {
			err = ErrBadFrame
		}
		if err != nil {
			if r.werr != nil {
				return // the reply write failed under the read
			}
			if errors.Is(err, ErrBadFrame) || errors.Is(err, ErrFrameTooBig) {
				s.frameErrs.Add(1)
			}
			// A frame that failed without a wait leaves the replies before
			// it unwritten; they still go.
			if len(r.out) > 0 {
				_ = r.flush()
			}
			return
		}
		s.bytesIn.Add(uint64(len(buf)) + 4)
		s.requests.Add(1)
		// The handler appends its reply to the ok frame's head; a refusal
		// starts the frame over, dropping whatever it appended.
		start := len(r.out)
		reply, herr := s.h.AppendWire(s.ctx, openFrame(r.out, frameOK, f.id, ""), f.topic, f.body, id)
		if herr != nil {
			r.out = appendFrame(r.out[:start], frameError, f.id, middleware.RejectLabel(herr), []byte(herr.Error()))
		} else {
			r.out = closeFrame(reply, start)
		}
	}
}

// connReader is the socket as a connection's bufio.Reader sees it, and the
// connection's output buffer. While replies wait in out, a read first takes
// whatever bytes have already arrived, so the frames they carry are
// answered in the same write; a read that would wait for the peer writes
// the replies out first, so none of them waits on a peer that may be
// waiting for it — on the rest of a frame that has only partly arrived
// either. A peer that keeps the socket busy gets its replies each time
// they reach maxKeep.
type connReader struct {
	s    *Server
	c    net.Conn
	out  []byte // replies not yet written
	werr error  // the write failure that ended the connection

	// raw reads the socket without waiting, through readRaw: nil on a
	// connection without a descriptor (net.Pipe). readRaw is bound once so
	// that a read allocates nothing; it reads into p and leaves the count
	// in n.
	raw     syscall.RawConn
	readRaw func(fd uintptr) bool
	p       []byte
	n       int
}

// newConnReader returns c's reader with an empty output buffer.
func newConnReader(s *Server, c net.Conn) *connReader {
	r := &connReader{s: s, c: c, out: make([]byte, 0, 4096)}
	if sc, ok := c.(syscall.Conn); ok {
		if raw, err := sc.SyscallConn(); err == nil {
			r.raw = raw
			r.readRaw = func(fd uintptr) bool {
				r.n = readNow(fd, r.p)
				return true // done: RawConn.Read is not to wait for readiness
			}
		}
	}
	return r
}

// Read implements io.Reader.
func (r *connReader) Read(p []byte) (int, error) {
	if len(r.out) > 0 {
		if n := r.arrived(p); n > 0 {
			return n, nil
		}
		if err := r.flush(); err != nil {
			return 0, err
		}
	}
	return r.c.Read(p)
}

// arrived reads into p what has already reached the socket, without
// waiting. It returns 0 when nothing has, the connection has no
// descriptor, or the read failed; the ordinary read that follows then
// waits, or reports the failure.
func (r *connReader) arrived(p []byte) int {
	if r.raw == nil {
		return 0
	}
	r.p, r.n = p, 0
	_ = r.raw.Read(r.readRaw)
	return max(r.n, 0)
}

// flush writes out in one write under one write deadline and empties it for
// the next flight, dropping it when a large reply grew it past maxKeep. A
// write that passes its deadline is a shed — the peer stopped reading its
// replies — and any write failure ends the connection.
func (r *connReader) flush() error {
	s := r.s
	if s.opt.writeTimeout > 0 {
		_ = r.c.SetWriteDeadline(time.Now().Add(s.opt.writeTimeout))
	}
	s.writes.Add(1)
	if _, err := r.c.Write(r.out); err != nil {
		if errors.Is(err, os.ErrDeadlineExceeded) {
			s.sheds.Add(1)
		}
		r.werr = err
		return err
	}
	s.bytesOut.Add(uint64(len(r.out)))
	r.out = reuse(r.out)
	return nil
}

package netedge

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dltprivacy/internal/middleware"
	"dltprivacy/internal/telemetry"
)

// Handler serves decoded wire messages — the interface the middleware
// Gateway satisfies with ServeWire. transportID is the serving
// connection's unique identity, the value session binding pins tokens to.
// The payload slice aliases the connection's read buffer and is only valid
// until ServeWire returns; implementations must not retain it. The gateway
// does not get this for free: a stage that holds a request past ServeWire's
// return (batch) copies what it holds into memory it owns. The edge copies
// the reply into its outbound frame before it reads the next frame, on the
// goroutine that called ServeWire; the reply must stay as returned until
// then, so one aliasing memory another goroutine may rewrite is unsafe. The
// gateway's replies are slices of their own: the Request a submission
// decodes into goes back to a pool (middleware.Request).
type Handler interface {
	ServeWire(ctx context.Context, topic string, payload []byte, transportID string) ([]byte, error)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(ctx context.Context, topic string, payload []byte, transportID string) ([]byte, error)

// ServeWire implements Handler.
func (f HandlerFunc) ServeWire(ctx context.Context, topic string, payload []byte, transportID string) ([]byte, error) {
	return f(ctx, topic, payload, transportID)
}

// options collects the server knobs; see the With* constructors.
type options struct {
	acceptLoops  int
	maxFrame     int
	queueDepth   int
	shed         bool
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

// WithQueueDepth bounds each connection's outbound reply queue. Default 64.
func WithQueueDepth(n int) Option {
	return func(o *options) {
		if n > 0 {
			o.queueDepth = n
		}
	}
}

// WithShedding switches full-queue behavior from blocking (backpressure
// propagates to the socket and stalls the peer's pipeline) to shedding:
// the connection is counted and closed with ErrBackpressure. Shedding is
// the posture for edges that must protect themselves from slow consumers
// at the cost of disconnecting them.
func WithShedding() Option {
	return func(o *options) { o.shed = true }
}

// WithIdleTimeout bounds how long a connection may sit without delivering
// a frame before the read deadline reaps it. Default 5m; 0 disables.
func WithIdleTimeout(d time.Duration) Option {
	return func(o *options) { o.idleTimeout = d }
}

// WithWriteTimeout bounds each reply write. Default 30s; 0 disables.
func WithWriteTimeout(d time.Duration) Option {
	return func(o *options) { o.writeTimeout = d }
}

// WithConnCloseHook runs fn with the connection's transport identity after
// the connection fully tears down — the hook cmd/gateway uses to reap the
// connection's bound sessions via SessionManager.EvictTransport.
func WithConnCloseHook(fn func(transportID string)) Option {
	return func(o *options) { o.connClose = fn }
}

// framePool recycles the buffers replies are encoded into on their way
// through a connection's outbound queue: the reader takes one per reply and
// the writer hands it back (putFrame) once it has copied the frame into its
// write batch, so steady state allocates nothing per reply. Requests do not
// pass through it; the client encodes them straight into its batch.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// putFrame returns a reply buffer to framePool unless it outgrew maxKeep.
func putFrame(bp *[]byte) {
	if cap(*bp) <= maxKeep {
		framePool.Put(bp)
	}
}

// Server is the TCP edge: a sharded accept plane feeding per-connection
// reader/writer pairs, every decoded frame dispatched to the Handler with
// the connection's transport identity. Create with Serve or Listen; stop
// with Close.
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
	// Sheds counts connections dropped because their bounded outbound
	// queue was full in shedding mode.
	Sheds uint64
	// FrameErrors counts malformed or oversized stream frames (each also
	// closes its connection: framing errors are not recoverable on a
	// stream).
	FrameErrors uint64
	// Requests counts request frames dispatched to the handler.
	Requests uint64
	// Writes counts socket writes issued by the connections' writers. Each
	// carries every reply that was queued when it was gathered, so
	// Requests/Writes is replies per write.
	Writes uint64
}

// Serve starts the edge over an established listener. The returned server
// is already accepting; Close stops it and tears down every connection.
func Serve(ln net.Listener, h Handler, opts ...Option) *Server {
	opt := options{
		acceptLoops:  4,
		maxFrame:     DefaultMaxFrame,
		queueDepth:   64,
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
		{Name: "confmw_edge_backpressure_sheds_total", Help: "Connections shed because their outbound queue was full.", Load: s.sheds.Load},
		{Name: "confmw_edge_frame_errors_total", Help: "Malformed or oversized stream frames.", Load: s.frameErrs.Load},
		{Name: "confmw_edge_requests_total", Help: "Request frames dispatched to the handler.", Load: s.requests.Load},
		{Name: "confmw_edge_socket_writes_total", Help: "Socket writes issued by edge writers; each carries every reply queued at the time.", Load: s.writes.Load},
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

// edgeConn is one live connection: its transport identity and its bounded
// outbound queue.
type edgeConn struct {
	c   net.Conn
	id  string
	out chan *[]byte
}

// serveConn runs one connection to completion: writer goroutine draining
// the bounded queue, reader loop inline (frame decode, handler dispatch,
// reply enqueue), then teardown — close, untrack, counters, close hook.
func (s *Server) serveConn(c net.Conn) {
	defer s.wg.Done()
	// The transport identity: unique for the server's lifetime (sequence
	// number) and diagnosable (peer address). Sessions bind to this string.
	ec := &edgeConn{
		c:   c,
		id:  fmt.Sprintf("tcp:%d:%s", s.connSeq.Add(1), c.RemoteAddr()),
		out: make(chan *[]byte, s.opt.queueDepth),
	}
	var wwg sync.WaitGroup
	wwg.Add(1)
	go func() {
		defer wwg.Done()
		ec.writeLoop(s)
	}()
	s.readLoop(ec)
	close(ec.out)
	wwg.Wait()
	c.Close()
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.live.Add(-1)
	s.closedCt.Add(1)
	if hook := s.opt.connClose; hook != nil {
		hook(ec.id)
	}
}

// readLoop decodes frames off the socket and dispatches them to the
// handler inline — per-connection submission order is therefore the order
// requests hit the chain and the orderer. Returns on the first read,
// framing, or enqueue failure; framing failures close the connection
// (stream framing cannot resynchronize) and count in FrameErrors.
func (s *Server) readLoop(ec *edgeConn) {
	br := bufio.NewReaderSize(ec.c, 16<<10)
	// The read buffer is per-connection and reused for every frame: the
	// decode path hands the handler payload bytes zero-copy, so they are
	// overwritten by the next frame — the Handler contract (borrow, never
	// retain) is what makes that safe.
	buf := make([]byte, 0, 4096)
	topic := "" // of the previous request, so a run on one topic allocates it once
	for {
		// The idle deadline is armed when the reader is about to wait on
		// the socket, not per frame: frames already buffered need none, and
		// a partly buffered one keeps the deadline its first bytes came
		// under, which is the earlier one.
		if s.opt.idleTimeout > 0 && br.Buffered() == 0 {
			_ = ec.c.SetReadDeadline(time.Now().Add(s.opt.idleTimeout))
		}
		f, nbuf, err := readFrameTopic(br, buf, s.opt.maxFrame, topic)
		buf, topic = nbuf, f.topic
		if err != nil {
			if errors.Is(err, ErrBadFrame) || errors.Is(err, ErrFrameTooBig) {
				s.frameErrs.Add(1)
			}
			return
		}
		s.bytesIn.Add(uint64(len(buf)) + 4)
		if f.kind != frameRequest {
			s.frameErrs.Add(1)
			return
		}
		s.requests.Add(1)
		reply, herr := s.h.ServeWire(s.ctx, f.topic, f.body, ec.id)
		bp := framePool.Get().(*[]byte)
		if herr != nil {
			*bp = appendFrame((*bp)[:0], frameError, f.id, middleware.RejectLabel(herr), []byte(herr.Error()))
		} else {
			*bp = appendFrame((*bp)[:0], frameOK, f.id, "", reply)
		}
		if !ec.enqueue(s, bp) {
			return
		}
	}
}

// enqueue places an encoded reply on the bounded outbound queue. Blocking
// mode stalls the reader (and through TCP, the peer) until the writer
// drains — bounded backpressure, never an unbounded queue. Shedding mode
// drops the connection instead, counting the shed. Returns false when the
// connection should die.
func (ec *edgeConn) enqueue(s *Server, bp *[]byte) bool {
	if s.opt.shed {
		select {
		case ec.out <- bp:
			return true
		default:
			s.sheds.Add(1)
			putFrame(bp)
			return false
		}
	}
	select {
	case ec.out <- bp:
		return true
	case <-s.ctx.Done():
		putFrame(bp)
		return false
	}
}

// writeLoop drains the outbound queue to the socket, one write per flight
// of replies rather than per reply: after receiving one it gathers every
// reply already queued (up to maxKeep bytes) into the connection's batch
// buffer and issues one write under one deadline, so a peer that pipelines
// pays for one syscall per flight. It never waits for a second reply: a
// lone reply is written at once. On a write failure it closes the
// connection (unblocking the reader) but keeps draining the queue so a
// blocked reader enqueue can never deadlock teardown.
func (ec *edgeConn) writeLoop(s *Server) {
	failed := false
	var batch []byte
	for bp := range ec.out {
		// Gather this reply and every one already queued behind it; a
		// closed queue reads as no more.
		for more := true; more; {
			batch = append(batch, *bp...)
			putFrame(bp)
			more = false
			if len(batch) < maxKeep {
				select {
				case bp, more = <-ec.out:
				default:
				}
			}
		}
		if !failed {
			if s.opt.writeTimeout > 0 {
				_ = ec.c.SetWriteDeadline(time.Now().Add(s.opt.writeTimeout))
			}
			s.writes.Add(1)
			if _, err := ec.c.Write(batch); err != nil {
				failed = true
				ec.c.Close()
			} else {
				s.bytesOut.Add(uint64(len(batch)))
			}
		}
		batch = reuse(batch)
	}
}

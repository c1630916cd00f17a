package netedge

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/middleware"
	"dltprivacy/internal/pki"
)

// dialOptions collects the client knobs; see the With* constructors.
type dialOptions struct {
	inFlight int
}

// DialOption configures a Client.
type DialOption func(*dialOptions)

// WithInFlight bounds how many requests the client keeps in flight on the
// connection at once — the pipelining window. A call that finds the window
// full waits for a slot, for its context to end or for the connection to
// fail. Default 1024.
func WithInFlight(n int) DialOption {
	return func(o *dialOptions) {
		if n > 0 {
			o.inFlight = n
		}
	}
}

// dialTimeout bounds the TCP connect.
const dialTimeout = 10 * time.Second

// callResult carries one reply (or the connection's death) to its waiter.
type callResult struct {
	b   []byte
	err error
}

// pendingCall is one registered call: the channel its result goes to, and
// the Done channel of the context it waits under (nil while it waits under
// none).
type pendingCall struct {
	ch   chan callResult
	done <-chan struct{}
}

// Client is one pipelined edge connection: concurrent-safe, many requests
// in flight matched to replies by request id, in-flight window bounded.
// One goroutine reads the socket and carves the replies it delivers from
// append-only chunks (see readLoop). Callers encode their frames into a
// shared batch and combine their socket writes: whoever finds nobody
// flushing becomes the flusher and writes the batch, everyone else appends
// and returns (see flush).
//
// A waiting call blocks on its own reply channel and nothing else. The end
// of the context it waits under reaches it on that channel too, from one
// context.AfterFunc per distinct Done channel, registered the first time a
// call waits under it and kept until that context ends or the connection
// fails. So calls under one long-lived context cost nothing per call for
// their cancellation, while a context made per call costs a registration
// and, when it ends, one pass over the pending calls.
//
// Frames are bounded by DefaultMaxFrame in both directions: a larger reply
// fails the connection, and a larger request fails its call with
// ErrFrameTooBig before anything is sent, so that one oversized request does
// not make the server drop the connection under every other call on it.
type Client struct {
	conn net.Conn

	window chan struct{}
	nextID atomic.Uint64

	// wmu guards batch and flushing. It is never held across a socket
	// write: the flusher swaps batch for spare under it and writes outside.
	wmu      sync.Mutex
	batch    []byte // request frames encoded and not yet taken by the flusher
	flushing bool   // some caller holds the flusher role
	spare    []byte // the flusher's: the buffer it is not writing from

	// pmu guards pending and watched. A call's one sender is whoever
	// removes it from pending under pmu: the reader, the AfterFunc of the
	// context it waits under (expire), or fail.
	pmu     sync.Mutex
	pending map[uint64]pendingCall
	watched map[<-chan struct{}]func() bool // Done channel -> AfterFunc's stop

	// handshakes runs OpenSession and keeps what it established: shared
	// with every Client dialed to the same address (handshakerFor), this
	// Client's own when it was built over a given connection.
	handshakes *middleware.Handshaker

	// chans recycles reply channels. One goes back once its result was
	// received: its one sender is done with it then.
	chans sync.Pool

	done     chan struct{}
	failOnce sync.Once
	errv     atomic.Value
}

// Dial connects to an edge server. Every Client dialed to the same address
// string shares one middleware.Handshaker (see OpenSession).
func Dial(addr string, opts ...DialOption) (*Client, error) {
	opt := dialOptions{inFlight: 1024}
	for _, o := range opts {
		o(&opt)
	}
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("netedge: dial %s: %w", addr, err)
	}
	c := newClient(conn, opt)
	c.handshakes = handshakerFor(addr)
	return c, nil
}

// handshakerAddrs bounds the process's table of Handshakers: a process
// dials a handful of gateways; past the bound the table is dropped whole,
// and a forgotten secret only costs the full handshake.
const handshakerAddrs = 64

var (
	handshakersMu sync.Mutex
	handshakers   map[string]*middleware.Handshaker
)

// handshakerFor returns the process's Handshaker for addr, making it on
// first use.
func handshakerFor(addr string) *middleware.Handshaker {
	handshakersMu.Lock()
	defer handshakersMu.Unlock()
	h := handshakers[addr]
	if h == nil {
		if handshakers == nil || len(handshakers) >= handshakerAddrs {
			handshakers = make(map[string]*middleware.Handshaker)
		}
		h = new(middleware.Handshaker)
		handshakers[addr] = h
	}
	return h
}

// newClient starts a client over an established connection, with a
// Handshaker of its own.
func newClient(conn net.Conn, opt dialOptions) *Client {
	c := &Client{
		conn:       conn,
		window:     make(chan struct{}, opt.inFlight),
		pending:    make(map[uint64]pendingCall),
		watched:    make(map[<-chan struct{}]func() bool),
		handshakes: new(middleware.Handshaker),
		chans:      sync.Pool{New: func() any { return make(chan callResult, 1) }},
		done:       make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// Close tears the connection down; in-flight calls fail with ErrClosed.
// Idempotent.
func (c *Client) Close() error {
	c.fail(ErrClosed)
	return nil
}

// fail records the connection's terminal error once, closes the socket,
// fails every pending call and stops every context registration. done
// closes before the sweep takes pmu, so a call registering under pmu (send)
// is either swept here or refused there: none can be left waiting on a dead
// connection. A registration is only made for a call still pending, so none
// is made after the sweep either.
func (c *Client) fail(err error) {
	c.failOnce.Do(func() {
		c.errv.Store(err)
		close(c.done)
		c.conn.Close()
		c.pmu.Lock()
		for id, p := range c.pending {
			delete(c.pending, id)
			p.ch <- callResult{err: err}
		}
		for done, stop := range c.watched {
			stop()
			delete(c.watched, done)
		}
		c.pmu.Unlock()
	})
}

// watchLocked makes the end of ctx settle the calls that wait under it and
// returns its Done channel, nil for a context that never ends. pmu is held.
// The first call under a Done channel registers the one AfterFunc for it;
// the rest find it in watched. A context that has already ended runs its
// AfterFunc at once, which settles the call as soon as pmu is free.
func (c *Client) watchLocked(ctx context.Context) <-chan struct{} {
	done := ctx.Done()
	if done != nil {
		if _, ok := c.watched[done]; !ok {
			c.watched[done] = context.AfterFunc(ctx, func() { c.expire(ctx, done) })
		}
	}
	return done
}

// expire is the AfterFunc of a watched context that has ended: it settles
// every call still pending under done with the context's error and drops
// the registration. A call registered under done before this takes pmu is
// settled here too; one registered after it registers afresh.
func (c *Client) expire(ctx context.Context, done <-chan struct{}) {
	err := ctx.Err()
	c.pmu.Lock()
	for id, p := range c.pending {
		if p.done == done {
			delete(c.pending, id)
			p.ch <- callResult{err: err}
		}
	}
	delete(c.watched, done)
	c.pmu.Unlock()
}

// err reports why the connection died.
func (c *Client) err() error {
	if e, ok := c.errv.Load().(error); ok {
		return e
	}
	return ErrClosed
}

// replyChunk is the size of the chunks readLoop carves replies from: a
// noscan size class of its own, 128 of the gateway's 32-byte IDs.
const replyChunk = 4096

// readLoop is the one socket reader: it matches reply frames to pending
// calls by request id. Reply payloads are copied out of the reused read
// buffer into an append-only chunk (replyChunk bytes, or the payload's own
// size if that is larger) and delivered as a slice of it with its capacity
// clipped. A full chunk is left to whoever holds its replies and never
// rewritten, so callers own what they receive: nothing later writes over a
// reply, and appending to one reallocates.
func (c *Client) readLoop() {
	br := bufio.NewReaderSize(c.conn, 16<<10)
	buf := make([]byte, 0, 4096)
	var chunk []byte
	for {
		f, nbuf, err := readFrame(br, buf, DefaultMaxFrame)
		buf = nbuf
		if err != nil {
			c.fail(fmt.Errorf("netedge: read: %w", err))
			return
		}
		var res callResult
		switch f.kind {
		case frameOK:
			if len(f.body) > 0 {
				if cap(chunk)-len(chunk) < len(f.body) {
					chunk = make([]byte, 0, max(replyChunk, len(f.body)))
				}
				start := len(chunk)
				chunk = append(chunk, f.body...)
				res.b = chunk[start:len(chunk):len(chunk)]
			}
		case frameError:
			res.err = &WireError{Label: f.topic, Msg: string(f.body)}
		default:
			c.fail(fmt.Errorf("%w: server sent kind 0x%02x", errBadFrame, f.kind))
			return
		}
		c.pmu.Lock()
		p, ok := c.pending[f.id]
		if ok {
			delete(c.pending, f.id)
		}
		c.pmu.Unlock()
		if ok {
			p.ch <- res
		}
	}
}

// PendingCall is one request in flight: the handle CallAsync returns. The
// reply arrives through Wait, which also releases the call's in-flight
// window slot — every PendingCall must be waited on eventually (batched-ack
// pipelining waits after the sends), or the window leaks a slot.
type PendingCall struct {
	c  *Client
	id uint64

	mu  sync.Mutex
	ch  chan callResult // nil once Wait has received the result
	res callResult
}

// Wait blocks until the reply arrives (or ctx ends) and returns it. A call
// still pending moves under ctx first, so the end of ctx settles it with
// ctx.Err(): the reader drops the reply when it arrives. After the first
// settlement, Wait returns the same result to every caller.
func (p *PendingCall) Wait(ctx context.Context) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ch != nil {
		p.c.waitUnder(ctx, p.id)
		p.res = p.c.await(p.ch)
		p.ch = nil
	}
	return p.res.b, p.res.err
}

// waitUnder moves call id, if it is still pending, under ctx.
func (c *Client) waitUnder(ctx context.Context, id uint64) {
	if ctx.Done() == nil {
		return
	}
	c.pmu.Lock()
	if p, ok := c.pending[id]; ok {
		p.done = c.watchLocked(ctx)
		c.pending[id] = p
	}
	c.pmu.Unlock()
}

// await receives a call's one result from ch, frees the call's window slot
// and returns ch to the pool: its one sender is done with it.
func (c *Client) await(ch chan callResult) callResult {
	res := <-ch
	<-c.window
	c.chans.Put(ch)
	return res
}

// Call sends one request frame and waits for its reply, or for ctx to end,
// which settles the call with ctx.Err() and drops its reply when it comes.
// payload is only read before Call returns; the reply is the caller's to
// keep. It is carved from a chunk shared with later replies (see readLoop):
// nothing writes over it and appending to it reallocates, but keeping it
// keeps up to 4 KB alive — copy a reply kept for long. Server-side
// rejections come back as *WireError carrying the gateway's error text and
// the refusal's label. A request frame over the client's frame bound fails
// with ErrFrameTooBig and is not sent.
func (c *Client) Call(ctx context.Context, topic string, payload []byte) ([]byte, error) {
	ch := c.chans.Get().(chan callResult)
	if _, err := c.send(ctx, true, ch, topic, payload); err != nil {
		c.chans.Put(ch)
		return nil, err
	}
	res := c.await(ch)
	return res.b, res.err
}

// CallAsync sends one request frame and returns without waiting for the
// reply — the pipelining half of Call. The caller collects the reply with
// Wait; sending a batch of CallAsyncs and then waiting turns N round trips
// into one flight of frames and one flight of acks. payload is only read
// before CallAsync returns. ctx guards only the wait for a window slot: the
// call waits under the context given to Wait. An error here means the frame
// never left (oversized, ctx ended while the window was full, or a dead
// connection) and no PendingCall exists; a nil error means the frame is
// queued behind the connection's flusher, and a later write failure
// surfaces through Wait.
func (c *Client) CallAsync(ctx context.Context, topic string, payload []byte) (*PendingCall, error) {
	ch := c.chans.Get().(chan callResult)
	id, err := c.send(ctx, false, ch, topic, payload)
	if err != nil {
		c.chans.Put(ch)
		return nil, err
	}
	return &PendingCall{c: c, id: id, ch: ch}, nil
}

// send takes an in-flight slot, registers ch for the reply under a fresh
// request id — waiting under ctx when wait is set, under no context
// otherwise — queues the frame and, if nobody is flushing, flushes. On an
// error nothing was registered or queued and the slot is free again.
func (c *Client) send(ctx context.Context, wait bool, ch chan callResult, topic string, payload []byte) (uint64, error) {
	id := c.nextID.Add(1)
	// The server fails the whole connection on a frame over its bound, so
	// an oversized request is refused here, before it costs anything.
	if n := requestFrameLen(id, topic, payload); n > DefaultMaxFrame {
		return 0, fmt.Errorf("%w: request frame %d > %d", ErrFrameTooBig, n, DefaultMaxFrame)
	}
	// Acquire an in-flight slot: the bounded window that keeps one client
	// from queueing unboundedly into a slow server. The slot belongs to the
	// call until await receives its result. A free slot is taken without a
	// select; only a full window waits on ctx and the connection.
	select {
	case c.window <- struct{}{}:
	default:
		select {
		case c.window <- struct{}{}:
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-c.done:
			return 0, c.err()
		}
	}

	c.pmu.Lock()
	select {
	case <-c.done:
		// fail has swept pending, or is about to and will not look again.
		c.pmu.Unlock()
		<-c.window
		return 0, c.err()
	default:
	}
	p := pendingCall{ch: ch}
	if wait {
		p.done = c.watchLocked(ctx)
	}
	c.pending[id] = p
	c.pmu.Unlock()

	c.wmu.Lock()
	c.batch = appendFrame(c.batch, frameRequest, id, topic, payload)
	lead := !c.flushing
	c.flushing = true
	c.wmu.Unlock()
	if lead {
		c.flush()
	}
	return id, nil
}

// flush is the flusher role: write what callers have queued until nothing
// is left, then give the role up. One caller at a time holds it; the rest
// append to the batch under wmu and return without touching the socket, so
// their frames share the flusher's write.
//
// Before it first takes the batch the flusher yields — what gRPC-Go's
// loopyWriter does before a small flush — so that callers already runnable
// get to add their frames, and it yields again for as long as the last
// yield added frames and the batch is under maxKeep: a caller that has just
// had its reply is runnable and about to queue its next frame. Nothing is
// waited for, no clock is read: a yield that added nothing ends the gather,
// so a lone request at depth 1 yields once. Later rounds carry what arrived
// during the previous write and go straight out.
//
// A failed write fails the connection, which settles every registered call
// and refuses new ones, and keeps the role: nobody writes to it again.
func (c *Client) flush() {
	for seen := -1; ; {
		c.wmu.Lock()
		n := len(c.batch)
		c.wmu.Unlock()
		if n == seen || n >= maxKeep {
			break
		}
		seen = n
		runtime.Gosched()
	}
	for {
		c.wmu.Lock()
		out := c.batch
		if len(out) == 0 {
			c.flushing = false
			c.wmu.Unlock()
			return
		}
		c.batch = c.spare
		c.wmu.Unlock()
		if _, err := c.conn.Write(out); err != nil {
			c.fail(fmt.Errorf("netedge: write: %w", err))
			return
		}
		c.spare = reuse(out)
	}
}

// OpenSession performs the session handshake over this connection. codec is
// kept under the name the repository benchmark calls: "" or
// middleware.CodecBinary, anything else an error. The first handshake for a
// certificate is the full signed one; the master secret it establishes is
// held per process and gateway — by the Handshaker every Client dialed to
// the same address shares — and later sessions under the same certificate
// and the same key object, over this connection or any other to that
// address, are resumed (see middleware.Handshaker) until the secret expires
// or the gateway forgets it. Any other key runs the full handshake, and a
// nil key is an error. Either way the grant's MacKey is derived here, not
// received. The granted token is bound to this connection: presenting it
// over another one fails with middleware.ErrSessionBound.
func (c *Client) OpenSession(ctx context.Context, principal string, cert pki.Certificate, key *dcrypto.PrivateKey, codec string) (middleware.SessionGrant, error) {
	if codec != "" && codec != middleware.CodecBinary {
		return middleware.SessionGrant{}, fmt.Errorf("netedge: unknown codec %q", codec)
	}
	return c.handshakes.Open(ctx, principal, cert, key, func(ctx context.Context, hello []byte) ([]byte, error) {
		return c.Call(ctx, middleware.TopicSessionOpen, hello)
	})
}

// Submit encodes req and submits it; the reply is the gateway's submission
// ID. The request frame is carved from a slab shared with the frames encoded
// after it (middleware.EncodeWireRequest) and dropped once it is copied into
// the connection's batch, so on the session path the ID string is all
// Submit allocates.
func (c *Client) Submit(ctx context.Context, req *middleware.Request) (string, error) {
	b, err := middleware.EncodeWireRequest(req, "")
	if err != nil {
		return "", fmt.Errorf("netedge: encode request: %w", err)
	}
	reply, err := c.Call(ctx, middleware.TopicSubmit, b)
	if err != nil {
		return "", err
	}
	return string(reply), nil
}

// SubmitRaw submits pre-encoded wire bytes — the loadgen path, where the
// same encoded frame template is reused across the steady state. A frame
// from middleware.EncodeWireRequest kept for reuse keeps its slab, under
// 32 KB, alive, and appending to it reallocates: nothing else writes over
// it.
func (c *Client) SubmitRaw(ctx context.Context, wire []byte) (string, error) {
	reply, err := c.Call(ctx, middleware.TopicSubmit, wire)
	if err != nil {
		return "", err
	}
	return string(reply), nil
}

// CloseSession ends a session opened over this connection. The payload is
// the session's key, the 32 bytes its token spells in hex
// (middleware.EncodeSessionClose). A malformed token names no session, and
// nothing is sent: closing it is a no-op, as the gateway would answer.
func (c *Client) CloseSession(ctx context.Context, token string) error {
	key, ok := middleware.EncodeSessionClose(token)
	if !ok {
		return nil
	}
	_, err := c.Call(ctx, middleware.TopicSessionClose, key[:])
	return err
}

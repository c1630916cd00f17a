package netedge

import (
	"bufio"
	"context"
	"encoding/json"
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
	shed     bool
	maxFrame int
	timeout  time.Duration
}

// DialOption configures a Client.
type DialOption func(*dialOptions)

// WithInFlight bounds how many requests the client keeps in flight on the
// connection at once — the pipelining window. A full window blocks Call
// (default) or, with WithClientShedding, fails it with ErrBackpressure.
// Default 1024.
func WithInFlight(n int) DialOption {
	return func(o *dialOptions) {
		if n > 0 {
			o.inFlight = n
		}
	}
}

// WithClientShedding makes a full in-flight window fail Call with
// ErrBackpressure instead of blocking — the deterministic client-side
// backpressure signal.
func WithClientShedding() DialOption {
	return func(o *dialOptions) { o.shed = true }
}

// WithClientMaxFrame bounds reply frames the client will accept. Default
// DefaultMaxFrame.
func WithClientMaxFrame(n int) DialOption {
	return func(o *dialOptions) {
		if n > 0 {
			o.maxFrame = n
		}
	}
}

// WithDialTimeout bounds the TCP connect. Default 10s.
func WithDialTimeout(d time.Duration) DialOption {
	return func(o *dialOptions) {
		if d > 0 {
			o.timeout = d
		}
	}
}

// callResult carries one reply (or the connection's death) to its waiter.
type callResult struct {
	b   []byte
	err error
}

// Client is one pipelined edge connection: concurrent-safe, many requests
// in flight matched to replies by request id, in-flight window bounded.
// One goroutine reads the socket. Callers encode their frames into a shared
// batch and combine their socket writes: whoever finds nobody flushing
// becomes the flusher and writes the batch, everyone else appends and
// returns (see flush).
type Client struct {
	conn     net.Conn
	maxFrame int
	shed     bool

	window chan struct{}
	nextID atomic.Uint64

	// wmu guards batch and flushing. It is never held across a socket
	// write: the flusher swaps batch for spare under it and writes outside.
	wmu      sync.Mutex
	batch    []byte // request frames encoded and not yet taken by the flusher
	flushing bool   // some caller holds the flusher role
	spare    []byte // the flusher's: the buffer it is not writing from

	pmu     sync.Mutex
	pending map[uint64]chan callResult

	// handshakes runs OpenSession and keeps what it established.
	handshakes middleware.Handshaker

	// chans recycles Call's reply channels; see Call for when one may return.
	chans sync.Pool

	done     chan struct{}
	failOnce sync.Once
	errv     atomic.Value
}

// Dial connects to an edge server.
func Dial(addr string, opts ...DialOption) (*Client, error) {
	opt := dialOptions{inFlight: 1024, maxFrame: DefaultMaxFrame, timeout: 10 * time.Second}
	for _, o := range opts {
		o(&opt)
	}
	conn, err := net.DialTimeout("tcp", addr, opt.timeout)
	if err != nil {
		return nil, fmt.Errorf("netedge: dial %s: %w", addr, err)
	}
	return newClient(conn, opt), nil
}

// newClient starts a client over an established connection.
func newClient(conn net.Conn, opt dialOptions) *Client {
	c := &Client{
		conn:     conn,
		maxFrame: opt.maxFrame,
		shed:     opt.shed,
		window:   make(chan struct{}, opt.inFlight),
		pending:  make(map[uint64]chan callResult),
		chans:    sync.Pool{New: func() any { return make(chan callResult, 1) }},
		done:     make(chan struct{}),
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
// and fails every pending call. done closes before the sweep takes pmu, so
// a call registering under pmu (send) is either swept here or refused
// there: none can be left waiting on a dead connection.
func (c *Client) fail(err error) {
	c.failOnce.Do(func() {
		c.errv.Store(err)
		close(c.done)
		c.conn.Close()
		c.pmu.Lock()
		for id, ch := range c.pending {
			delete(c.pending, id)
			ch <- callResult{err: err}
		}
		c.pmu.Unlock()
	})
}

// err reports why the connection died.
func (c *Client) err() error {
	if e, ok := c.errv.Load().(error); ok {
		return e
	}
	return ErrClosed
}

// readLoop is the one socket reader: it matches reply frames to pending
// calls by request id. Reply payloads are copied out of the reused read
// buffer before delivery, so callers own what they receive.
func (c *Client) readLoop() {
	br := bufio.NewReaderSize(c.conn, 16<<10)
	buf := make([]byte, 0, 4096)
	for {
		f, nbuf, err := readFrame(br, buf, c.maxFrame)
		buf = nbuf
		if err != nil {
			c.fail(fmt.Errorf("netedge: read: %w", err))
			return
		}
		var res callResult
		switch f.kind {
		case frameOK:
			if len(f.body) > 0 {
				res.b = append([]byte(nil), f.body...)
			}
		case frameError:
			res.err = &WireError{Msg: string(f.body)}
		default:
			c.fail(fmt.Errorf("%w: server sent kind 0x%02x", ErrBadFrame, f.kind))
			return
		}
		c.pmu.Lock()
		ch, ok := c.pending[f.id]
		if ok {
			delete(c.pending, f.id)
		}
		c.pmu.Unlock()
		if ok {
			ch <- res
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
	ch chan callResult

	mu      sync.Mutex
	settled bool
	res     callResult
}

// Wait blocks until the reply arrives (or ctx ends) and returns it. A
// context abandonment settles the call with ctx.Err(): the reader drops the
// reply when it arrives. After the first settlement, Wait returns the same
// result to every caller.
func (p *PendingCall) Wait(ctx context.Context) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.settled {
		p.res, _ = p.c.await(ctx, p.id, p.ch)
		p.settled = true
	}
	return p.res.b, p.res.err
}

// await blocks until call id's result arrives on ch or ctx ends, then frees
// the call's window slot. delivered reports that the result was received
// from ch: its one sender is done with it, so the channel may be reused. A
// call abandoned through ctx may still be sent to, by a reader that took it
// out of pending first.
func (c *Client) await(ctx context.Context, id uint64, ch chan callResult) (res callResult, delivered bool) {
	select {
	case res = <-ch:
		delivered = true
	case <-ctx.Done():
		// Abandon the call: the reader drops the reply when it arrives.
		c.pmu.Lock()
		delete(c.pending, id)
		c.pmu.Unlock()
		res.err = ctx.Err()
	}
	<-c.window
	return res, delivered
}

// Call sends one request frame and waits for its reply. payload is only
// read before Call returns; the reply is the caller's to keep. Server-side
// rejections come back as *WireError carrying the gateway's error text.
func (c *Client) Call(ctx context.Context, topic string, payload []byte) ([]byte, error) {
	// No PendingCall escapes a synchronous call, so its reply channel can
	// come from the pool — and go back once its result was received from
	// it, never after an abandonment (see await).
	ch := c.chans.Get().(chan callResult)
	id, err := c.send(ctx, ch, topic, payload)
	if err != nil {
		c.chans.Put(ch)
		return nil, err
	}
	res, delivered := c.await(ctx, id, ch)
	if delivered {
		c.chans.Put(ch)
	}
	return res.b, res.err
}

// CallAsync sends one request frame and returns without waiting for the
// reply — the pipelining half of Call. The caller collects the reply with
// Wait; sending a batch of CallAsyncs and then waiting turns N round trips
// into one flight of frames and one flight of acks. payload is only read
// before CallAsync returns. An error here means the frame never left
// (backpressure shed or a dead connection) and no PendingCall exists; a nil
// error means the frame is queued behind the connection's flusher, and a
// later write failure surfaces through Wait.
func (c *Client) CallAsync(ctx context.Context, topic string, payload []byte) (*PendingCall, error) {
	ch := make(chan callResult, 1)
	id, err := c.send(ctx, ch, topic, payload)
	if err != nil {
		return nil, err
	}
	return &PendingCall{c: c, id: id, ch: ch}, nil
}

// send takes an in-flight slot, registers ch for the reply under a fresh
// request id, queues the frame and, if nobody is flushing, flushes. On an
// error nothing was registered or queued and the slot is free again.
func (c *Client) send(ctx context.Context, ch chan callResult, topic string, payload []byte) (uint64, error) {
	// Acquire an in-flight slot: the bounded window that keeps one client
	// from queueing unboundedly into a slow server. The slot belongs to the
	// call until await settles it.
	if c.shed {
		select {
		case c.window <- struct{}{}:
		default:
			return 0, ErrBackpressure
		}
	} else {
		select {
		case c.window <- struct{}{}:
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-c.done:
			return 0, c.err()
		}
	}

	id := c.nextID.Add(1)
	c.pmu.Lock()
	select {
	case <-c.done:
		// fail has swept pending, or is about to and will not look again.
		c.pmu.Unlock()
		<-c.window
		return 0, c.err()
	default:
	}
	c.pending[id] = ch
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
// Before it first takes the batch the flusher yields once — what gRPC-Go's
// loopyWriter does before a small flush — so that callers already runnable
// get to add their frames. Nothing is waited for: with no one else
// runnable (a lone request at depth 1) the yield returns at once. Later
// rounds carry what arrived during the previous write and go straight out.
//
// A failed write fails the connection, which settles every registered call
// and refuses new ones, and keeps the role: nobody writes to it again.
func (c *Client) flush() {
	runtime.Gosched()
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
// certificate is the full signed one; the connection then holds the master
// secret it established, and later sessions under the same certificate are
// resumed (see middleware.Handshaker) until the secret expires or the
// gateway forgets it. Either way the grant's MacKey is derived here, not
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
// ID.
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
// same encoded frame template is reused across the steady state.
func (c *Client) SubmitRaw(ctx context.Context, wire []byte) (string, error) {
	reply, err := c.Call(ctx, middleware.TopicSubmit, wire)
	if err != nil {
		return "", err
	}
	return string(reply), nil
}

// PendingSubmit is one submission in flight; Wait returns the gateway's
// submission ID. Like PendingCall, it must be waited on eventually.
type PendingSubmit struct {
	p *PendingCall
}

// Wait blocks until the submission's ack arrives and returns the gateway's
// submission ID.
func (s *PendingSubmit) Wait(ctx context.Context) (string, error) {
	reply, err := s.p.Wait(ctx)
	if err != nil {
		return "", err
	}
	return string(reply), nil
}

// SubmitAsync encodes and sends req without waiting for the ack — the
// client half of batched submission pipelining. Fire a batch of
// SubmitAsyncs (e.g. one gateway-side group), then Wait on each
// PendingSubmit to collect the acks in one flight.
func (c *Client) SubmitAsync(ctx context.Context, req *middleware.Request) (*PendingSubmit, error) {
	b, err := middleware.EncodeWireRequest(req, "")
	if err != nil {
		return nil, fmt.Errorf("netedge: encode request: %w", err)
	}
	p, err := c.CallAsync(ctx, middleware.TopicSubmit, b)
	if err != nil {
		return nil, err
	}
	return &PendingSubmit{p: p}, nil
}

// SubmitRawAsync sends pre-encoded wire bytes without waiting for the ack —
// SubmitAsync for the loadgen path's reused frame templates.
func (c *Client) SubmitRawAsync(ctx context.Context, wire []byte) (*PendingSubmit, error) {
	p, err := c.CallAsync(ctx, middleware.TopicSubmit, wire)
	if err != nil {
		return nil, err
	}
	return &PendingSubmit{p: p}, nil
}

// CloseSession ends a session opened over this connection.
func (c *Client) CloseSession(ctx context.Context, token string) error {
	_, err := c.Call(ctx, middleware.TopicSessionClose, []byte(token))
	return err
}

// NotifyRevocation tells the gateway the revocation plane moved.
func (c *Client) NotifyRevocation(ctx context.Context) (middleware.RevocationNotice, error) {
	reply, err := c.Call(ctx, middleware.TopicRevocationNotify, nil)
	if err != nil {
		return middleware.RevocationNotice{}, err
	}
	var notice middleware.RevocationNotice
	if err := json.Unmarshal(reply, &notice); err != nil {
		return middleware.RevocationNotice{}, fmt.Errorf("netedge: decode revocation notice: %w", err)
	}
	return notice, nil
}

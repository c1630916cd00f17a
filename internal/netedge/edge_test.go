package netedge

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/ledger"
	"dltprivacy/internal/middleware"
	"dltprivacy/internal/ordering"
	"dltprivacy/internal/pki"
)

// edgeEnv is one gateway process in miniature: CA, dynamic directory,
// session-MAC pipeline, orderer, and the TCP edge in front —
// the same composition cmd/gateway -listen builds.
type edgeEnv struct {
	ca  *pki.CA
	dir *middleware.SyncDirectory
	gw  *middleware.Gateway
	ord *ordering.Service
	srv *Server
}

func newEdgeEnv(t testing.TB, opts ...Option) *edgeEnv {
	t.Helper()
	ca, err := pki.NewCA("edge-ca")
	if err != nil {
		t.Fatal(err)
	}
	dir := middleware.NewSyncDirectory()
	cfg := middleware.Config{
		Stages: []middleware.StageConfig{
			{Name: middleware.StageSession, Params: map[string]string{"ttl": "1h", "idle": "1h"}},
			{Name: middleware.StageAuthn},
			{Name: middleware.StageEncrypt, Params: map[string]string{"keyttl": "1h"}},
			{Name: middleware.StageAudit},
		},
	}
	env := middleware.Env{CAKey: ca.PublicKey(), Directory: dir, Log: audit.NewLog(), Revoker: ca}
	ord := ordering.New("op", ordering.VisibilityEnvelope)
	// The orderer refuses channels nobody consumes; tests that care about
	// delivery add their own recording subscriber on top.
	ord.Subscribe("deals", func(ledger.Block) error { return nil })
	gw, err := middleware.NewGateway("edge-gw", cfg, env, ord)
	if err != nil {
		t.Fatal(err)
	}
	h := EnrollmentHandler(ca, func(identity string, pub dcrypto.PublicKey) {
		dir.AddMember("deals", identity, pub)
	}, gw)
	opts = append([]Option{
		WithConnCloseHook(func(transportID string) { gw.Sessions().EvictTransport(transportID) }),
	}, opts...)
	srv, err := Listen("127.0.0.1:0", h, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return &edgeEnv{ca: ca, dir: dir, gw: gw, ord: ord, srv: srv}
}

func (e *edgeEnv) addr() string { return e.srv.Addr().String() }

// dialEdge returns a connected client, closed with the test.
func (e *edgeEnv) dialEdge(t testing.TB, opts ...DialOption) *Client {
	t.Helper()
	c, err := Dial(e.addr(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// principal is one enrolled remote identity with an open session.
type principal struct {
	name  string
	key   *dcrypto.PrivateKey
	cert  pki.Certificate
	grant middleware.SessionGrant
}

// bootstrap runs the full remote-principal flow over c: keygen, enroll,
// session open.
func bootstrap(t testing.TB, c *Client, name string) *principal {
	t.Helper()
	ctx := context.Background()
	key, err := dcrypto.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	cert, err := c.Enroll(ctx, name, key.Public())
	if err != nil {
		t.Fatalf("enroll %s: %v", name, err)
	}
	grant, err := c.OpenSession(ctx, name, cert, key, "")
	if err != nil {
		t.Fatalf("open session %s: %v", name, err)
	}
	return &principal{name: name, key: key, cert: cert, grant: grant}
}

// submission encodes one MAC-authenticated submission for p.
func (p *principal) submission(t testing.TB, payload []byte, meta map[string]string) []byte {
	t.Helper()
	req := &middleware.Request{
		Channel: "deals", Principal: p.name, Payload: payload,
		SessionToken: p.grant.Token, Meta: meta,
	}
	middleware.MACRequest(req, p.grant.MacKey)
	wire, err := middleware.EncodeWireRequest(req, "")
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// TestEnrollmentIsFirstCome: a second client's wire enrollment of an
// enrolled name under its own key is refused as pki.ErrAlreadyEnrolled, and
// the directory keeps sealing to the first key. The name's holder still
// opens sessions and submits, and enrolling its own key again renews its
// certificate.
func TestEnrollmentIsFirstCome(t *testing.T) {
	e := newEdgeEnv(t)
	ctx := context.Background()
	c := e.dialEdge(t)
	alice := bootstrap(t, c, "alice")

	mallory, err := dcrypto.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.dialEdge(t).Enroll(ctx, "alice", mallory.Public()); err == nil || !strings.Contains(err.Error(), pki.ErrAlreadyEnrolled.Error()) {
		t.Fatalf("a second key's enrollment of alice = %v, want %q", err, pki.ErrAlreadyEnrolled)
	}
	members, err := e.dir.MemberKeys("deals")
	if err != nil {
		t.Fatal(err)
	}
	if got := members["alice"].Bytes(); string(got) != string(alice.key.Public().Bytes()) {
		t.Fatal("the directory seals to another key for alice since the refused enrollment")
	}

	renewed, err := c.Enroll(ctx, "alice", alice.key.Public())
	if err != nil {
		t.Fatalf("re-enrolling alice's own key: %v", err)
	}
	if renewed.Serial == alice.cert.Serial {
		t.Fatalf("re-enrolling alice's key returned serial %d again, want a renewal", renewed.Serial)
	}
	for _, cert := range []pki.Certificate{alice.cert, renewed} {
		grant, err := c.OpenSession(ctx, "alice", cert, alice.key, "")
		if err != nil {
			t.Fatalf("alice's session under serial %d: %v", cert.Serial, err)
		}
		p := &principal{name: "alice", key: alice.key, cert: cert, grant: grant}
		if _, err := c.SubmitRaw(ctx, p.submission(t, []byte("trade"), nil)); err != nil {
			t.Fatalf("alice's submission under serial %d: %v", cert.Serial, err)
		}
	}
}

func TestEdgeRoundtrip(t *testing.T) {
	e := newEdgeEnv(t)
	c := e.dialEdge(t)
	ctx := context.Background()
	p := bootstrap(t, c, "alice")
	id, err := c.SubmitRaw(ctx, p.submission(t, []byte("trade-1"), nil))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if id == "" {
		t.Fatal("empty submission id")
	}
	// The typed Submit path too: fresh request, MAC'd, encoded by the client.
	req := &middleware.Request{Channel: "deals", Principal: "alice", Payload: []byte("trade-2"), SessionToken: p.grant.Token}
	middleware.MACRequest(req, p.grant.MacKey)
	if _, err := c.Submit(ctx, req); err != nil {
		t.Fatalf("typed submit: %v", err)
	}
	// A JSON document is not a submission: an error reply, and the
	// connection carries on.
	if _, err := c.SubmitRaw(ctx, []byte(`{"channel":"deals","principal":"alice"}`)); err == nil || !strings.Contains(err.Error(), middleware.ErrBadFrame.Error()) {
		t.Fatalf("json submit: %v, want the decoder's refusal", err)
	}
	// Asking for a codec that is not the wire format fails in the client: the
	// next request the server sees is the one after it, on a topic the edge
	// does not serve, refused as unknown.
	served := e.srv.Stats().Requests
	if _, err := c.OpenSession(ctx, p.name, p.cert, p.key, "json"); err == nil {
		t.Fatal(`OpenSession(…, "json") opened a session`)
	}
	if _, err := c.Call(ctx, "revocation.notify", nil); !isUnknownTopic(err) {
		t.Fatalf("revocation.notify: %v, want the unknown-topic refusal", err)
	}
	if got := e.srv.Stats().Requests; got != served+1 {
		t.Fatalf("server saw %d requests after the refused open, want 1 (the unknown topic)", got-served)
	}
	if err := c.CloseSession(ctx, p.grant.Token); err != nil {
		t.Fatalf("close session: %v", err)
	}
	// The closed token is dead even on its own connection.
	if _, err := c.SubmitRaw(ctx, p.submission(t, []byte("late"), nil)); err == nil {
		t.Fatal("submission on closed session accepted")
	}
	st := e.srv.Stats()
	if st.Requests < 6 || st.BytesIn == 0 || st.BytesOut == 0 {
		t.Fatalf("implausible stats: %+v", st)
	}
}

// TestEdgeSessionBound proves the tentpole security property: a session
// token minted on one TCP connection is rejected with ErrSessionBound when
// replayed over another, even by the very same principal with a valid MAC.
func TestEdgeSessionBound(t *testing.T) {
	e := newEdgeEnv(t)
	c1 := e.dialEdge(t)
	c2 := e.dialEdge(t)
	ctx := context.Background()
	p := bootstrap(t, c1, "alice")
	wire := p.submission(t, []byte("trade"), nil)
	if _, err := c1.SubmitRaw(ctx, wire); err != nil {
		t.Fatalf("submit on home connection: %v", err)
	}
	_, err := c2.SubmitRaw(ctx, wire)
	if err == nil {
		t.Fatal("cross-connection token replay accepted")
	}
	var we *WireError
	if !errors.As(err, &we) {
		t.Fatalf("want *WireError, got %T: %v", err, err)
	}
	if !strings.Contains(err.Error(), middleware.ErrSessionBound.Error()) {
		t.Fatalf("error %q does not carry ErrSessionBound", err)
	}
	// Nor can the other connection end the session it cannot use.
	if err := c2.CloseSession(ctx, p.grant.Token); err == nil || !strings.Contains(err.Error(), middleware.ErrSessionBound.Error()) {
		t.Fatalf("cross-connection session.close = %v, want ErrSessionBound", err)
	}
	// The rejections are not sticky: the home connection still works, and
	// can close its own session.
	if _, err := c1.SubmitRaw(ctx, wire); err != nil {
		t.Fatalf("home connection poisoned by replay attempt: %v", err)
	}
	if err := c1.CloseSession(ctx, p.grant.Token); err != nil {
		t.Fatalf("close on home connection: %v", err)
	}
	if _, err := c1.SubmitRaw(ctx, wire); err == nil {
		t.Fatal("submission accepted on a closed session")
	}
}

// TestEdgeConnKillEvictsSessions kills a connection mid-stream and proves
// (a) everything acknowledged before the kill was delivered to the orderer
// in submission order, and (b) the connection's bound sessions are reaped.
func TestEdgeConnKillEvictsSessions(t *testing.T) {
	e := newEdgeEnv(t)
	var mu sync.Mutex
	var delivered []string
	e.ord.Subscribe("deals", func(b ledger.Block) error {
		mu.Lock()
		for _, tx := range b.Txs {
			delivered = append(delivered, tx.Meta["seq"])
		}
		mu.Unlock()
		return nil
	})

	c := e.dialEdge(t)
	ctx := context.Background()
	p := bootstrap(t, c, "alice")
	const n = 32
	for i := 0; i < n; i++ {
		wire := p.submission(t, []byte("trade"), map[string]string{"seq": fmt.Sprint(i)})
		if _, err := c.SubmitRaw(ctx, wire); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	before := *e.gw.Stats().Sessions
	c.Close()

	// The close hook runs after full teardown; poll for the eviction.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if e.gw.Stats().Sessions.Evicted > before.Evicted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session not evicted after connection kill: %+v", *e.gw.Stats().Sessions)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The token is gone entirely — a new connection gets "unknown", not
	// just "bound elsewhere".
	c2 := e.dialEdge(t)
	if _, err := c2.SubmitRaw(ctx, p.submission(t, []byte("late"), nil)); err == nil {
		t.Fatal("token of killed connection still usable")
	}

	mu.Lock()
	defer mu.Unlock()
	if len(delivered) != n {
		t.Fatalf("delivered %d of %d acknowledged submissions", len(delivered), n)
	}
	for i, seq := range delivered {
		if seq != fmt.Sprint(i) {
			t.Fatalf("delivery order broken at %d: got seq %q (full order %v)", i, seq, delivered)
		}
	}
}

// TestEdgePipelinedOrder writes a burst of raw request frames in one
// socket write — true pipelining, no per-request round trip — and proves
// the inline-handler reader preserves per-connection submission order all
// the way to the orderer.
func TestEdgePipelinedOrder(t *testing.T) {
	e := newEdgeEnv(t)
	var mu sync.Mutex
	var delivered []string
	e.ord.Subscribe("deals", func(b ledger.Block) error {
		mu.Lock()
		for _, tx := range b.Txs {
			delivered = append(delivered, tx.Meta["seq"])
		}
		mu.Unlock()
		return nil
	})
	c := e.dialEdge(t)
	p := bootstrap(t, c, "alice")

	conn, err := net.Dial("tcp", e.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Sessions bind to their connection, so the pipelined connection needs
	// its own. Handshake by hand on the raw socket.
	grant := openRaw(t, conn, "alice", p.cert, p.key)

	const n = 64
	var burst []byte
	for i := 0; i < n; i++ {
		req := &middleware.Request{
			Channel: "deals", Principal: "alice", Payload: []byte("trade"),
			SessionToken: grant.Token, Meta: map[string]string{"seq": fmt.Sprint(i)},
		}
		middleware.MACRequest(req, grant.MacKey)
		wire, err := middleware.EncodeWireRequest(req, "")
		if err != nil {
			t.Fatal(err)
		}
		burst = appendFrame(burst, frameRequest, uint64(i+10), middleware.TopicSubmit, wire)
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	var buf []byte
	for i := 0; i < n; i++ {
		f, nbuf, err := readFrame(br, buf, DefaultMaxFrame)
		buf = nbuf
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if f.kind != frameOK {
			t.Fatalf("reply %d: kind 0x%02x body %q", i, f.kind, f.body)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(delivered) != n {
		t.Fatalf("delivered %d of %d", len(delivered), n)
	}
	for i, seq := range delivered {
		if seq != fmt.Sprint(i) {
			t.Fatalf("pipelined order broken at %d: got seq %q", i, seq)
		}
	}
}

// openRaw performs session.open on a raw socket: the binary full handshake,
// with the grant's MAC key derived from the master secret sealed in it.
func openRaw(t testing.TB, conn net.Conn, principal string, cert pki.Certificate, key *dcrypto.PrivateKey) middleware.SessionGrant {
	t.Helper()
	grant, err := new(middleware.Handshaker).Open(context.Background(), principal, cert, key, func(_ context.Context, hello []byte) ([]byte, error) {
		if _, err := conn.Write(appendFrame(nil, frameRequest, 1, middleware.TopicSessionOpen, hello)); err != nil {
			return nil, err
		}
		f, _, err := readFrame(bufio.NewReader(conn), nil, DefaultMaxFrame)
		if err != nil {
			return nil, err
		}
		if f.kind != frameOK {
			return nil, fmt.Errorf("session.open rejected: %s", f.body)
		}
		return f.body, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return grant
}

// TestEdgeConcurrentClients is the -race workout: many connections, each
// running the full enroll/open/submit/close flow concurrently.
func TestEdgeConcurrentClients(t *testing.T) {
	e := newEdgeEnv(t)
	const clients = 8
	const submits = 16
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs <- func() error {
				c, err := Dial(e.addr())
				if err != nil {
					return err
				}
				defer c.Close()
				ctx := context.Background()
				name := fmt.Sprintf("client-%d", i)
				key, err := dcrypto.GenerateKey()
				if err != nil {
					return err
				}
				cert, err := c.Enroll(ctx, name, key.Public())
				if err != nil {
					return fmt.Errorf("enroll: %w", err)
				}
				grant, err := c.OpenSession(ctx, name, cert, key, "")
				if err != nil {
					return fmt.Errorf("open: %w", err)
				}
				// Concurrent submitters over one connection exercise the
				// pipelining path: pending map, write mutex, window.
				var iwg sync.WaitGroup
				ierrs := make(chan error, 4)
				for w := 0; w < 4; w++ {
					iwg.Add(1)
					go func(w int) {
						defer iwg.Done()
						for s := 0; s < submits; s++ {
							req := &middleware.Request{
								Channel: "deals", Principal: name,
								Payload:      []byte(fmt.Sprintf("trade-%d-%d", w, s)),
								SessionToken: grant.Token,
							}
							middleware.MACRequest(req, grant.MacKey)
							if _, err := c.Submit(ctx, req); err != nil {
								ierrs <- err
								return
							}
						}
					}(w)
				}
				iwg.Wait()
				close(ierrs)
				for err := range ierrs {
					return fmt.Errorf("submit: %w", err)
				}
				return c.CloseSession(ctx, grant.Token)
			}()
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := e.srv.Stats()
	if want := uint64(clients * 4 * submits); st.Requests < want {
		t.Fatalf("requests = %d, want >= %d", st.Requests, want)
	}
}

// TestEdgeMalformedFrames drives framing junk — the same shapes the
// FuzzWireRequest corpus seeds — at the edge over real sockets: hostile
// length prefixes, truncated frames, unknown kinds. The server must
// reject and close, never panic, and keep serving fresh connections.
func TestEdgeMalformedFrames(t *testing.T) {
	e := newEdgeEnv(t, func(o *options) { o.maxFrame = 1 << 16 })
	raws := [][]byte{
		// Hostile length prefix: 4 GiB frame announced.
		{0xff, 0xff, 0xff, 0xff},
		// Length below the frame minimum.
		{0x00, 0x00, 0x00, 0x01, 0x01},
		// Unknown frame kind.
		appendFrame(nil, 0x7f, 1, "", []byte("x")),
		// Reply kinds sent client->server.
		appendFrame(nil, frameOK, 1, "", []byte("x")),
		// Truncated body: header promises 100 bytes, 3 arrive.
		{0x00, 0x00, 0x00, 0x64, 0x01, 0x02, 0x03},
	}
	for i, raw := range raws {
		conn, err := net.Dial("tcp", e.addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(raw); err != nil {
			t.Fatalf("case %d: write: %v", i, err)
		}
		conn.Close()
	}
	// Well-framed junk payloads: the frame parses, the gateway rejects.
	// These mirror the fuzz corpus — binary magic with nothing behind it,
	// truncated varints, JSON junk — and must come back as error replies
	// on a connection that stays healthy.
	payloads := [][]byte{
		{0xdc},
		{0xdc, 0x01},
		{0xdc, 0x01, 0xff, 0xff, 0xff, 0xff, 0x0f},
		[]byte(`{"channel":"deals","principal":"alice"`),
		[]byte(`{"channel":"deals","principal":"nobody","payload":"eHg="}`),
		{},
	}
	c := e.dialEdge(t)
	ctx := context.Background()
	for i, payload := range payloads {
		if _, err := c.Call(ctx, middleware.TopicSubmit, payload); err == nil {
			t.Fatalf("junk payload %d accepted", i)
		}
	}
	// The connection survived six rejections; a real flow still works.
	p := bootstrap(t, c, "alice")
	if _, err := c.SubmitRaw(ctx, p.submission(t, []byte("trade"), nil)); err != nil {
		t.Fatalf("healthy flow after rejections: %v", err)
	}
	// Framing-level garbage was counted and those connections closed.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := e.srv.Stats()
		if st.FrameErrors >= 4 && st.Closed >= uint64(len(raws)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("frame errors not accounted: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEdgeFrameTooBigRejected proves the configured frame bound holds on
// a live connection: an oversized announcement kills it before any
// allocation of the announced size.
func TestEdgeFrameTooBigRejected(t *testing.T) {
	e := newEdgeEnv(t, func(o *options) { o.maxFrame = 1024 })
	conn, err := net.Dial("tcp", e.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 2048)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("want EOF from closed connection, got %v", err)
	}
}

// TestEdgeIdleTimeout proves a silent connection is reaped by the read
// deadline rather than leaking.
func TestEdgeIdleTimeout(t *testing.T) {
	e := newEdgeEnv(t, func(o *options) { o.idleTimeout = 100 * time.Millisecond })
	conn, err := net.Dial("tcp", e.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("idle connection not reaped: %v", err)
	}
}

// TestEdgeBackpressureShed stalls a peer that never reads behind replies
// too large for the socket buffers and proves the write deadline sheds it:
// the connection is dropped with exactly one accounted shed, torn down
// once, instead of queueing replies without bound. Shedding needs no
// option; the write timeout is the bound.
func TestEdgeBackpressureShed(t *testing.T) {
	// A handler with a large reply fills the socket buffers in a few
	// requests, and the reply write that finds them full passes its
	// deadline.
	big := make([]byte, 256<<10)
	h := HandlerFunc(func(ctx context.Context, topic string, payload []byte, transportID string) ([]byte, error) {
		return big, nil
	})
	hooked := make(chan string, 4)
	srv, err := Listen("127.0.0.1:0", h, func(o *options) { o.maxFrame, o.writeTimeout = 1<<20, 200*time.Millisecond },
		WithConnCloseHook(func(id string) { hooked <- id }))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetReadBuffer(4096)
	}
	// Pump requests without ever reading a reply.
	req := appendFrame(nil, frameRequest, 1, "t", []byte("x"))
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().Sheds == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no shed recorded: %+v", srv.Stats())
		}
		conn.SetWriteDeadline(time.Now().Add(50 * time.Millisecond))
		conn.Write(req)
	}
	// The shed tears the connection down: the close hook runs once, and
	// nothing is left live or shed twice.
	select {
	case <-hooked:
	case <-time.After(5 * time.Second):
		t.Fatalf("close hook did not run after the shed: %+v", srv.Stats())
	}
	waitStats(t, srv, func(st EdgeStats) bool { return st.Live == 0 && st.Closed == 1 })
	if st := srv.Stats(); st.Sheds != 1 {
		t.Fatalf("sheds = %d, want exactly 1: %+v", st.Sheds, st)
	}
	select {
	case id := <-hooked:
		t.Fatalf("close hook ran again, for %q", id)
	default:
	}
}

// TestEdgePeerResetIsNoShed resets the connection while the server's
// reply write is stuck behind the peer's full receive window: the
// connection closes, the write error is not counted as a shed (only a
// write that passes its deadline is), and the server keeps serving.
func TestEdgePeerResetIsNoShed(t *testing.T) {
	big := make([]byte, 256<<10)
	h := HandlerFunc(func(ctx context.Context, topic string, payload []byte, transportID string) ([]byte, error) {
		return big, nil
	})
	srv, err := Listen("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	tc := conn.(*net.TCPConn)
	tc.SetReadBuffer(4096)
	// 64 replies are 16 MiB, more than both socket buffers hold, so with
	// nothing read on this side the server's writes soon block.
	var reqs []byte
	for i := 0; i < 64; i++ {
		reqs = appendFrame(reqs, frameRequest, uint64(i+1), "t", []byte("x"))
	}
	if _, err := conn.Write(reqs); err != nil {
		t.Fatal(err)
	}
	waitStats(t, srv, func(st EdgeStats) bool { return st.Writes >= 2 })
	tc.SetLinger(0) // Close sends a reset, not a FIN
	conn.Close()
	waitStats(t, srv, func(st EdgeStats) bool { return st.Live == 0 && st.Closed == 1 })
	if st := srv.Stats(); st.Sheds != 0 {
		t.Fatalf("a reset peer counted %d sheds: %+v", st.Sheds, st)
	}
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if reply, err := c.Call(context.Background(), "t", []byte("x")); err != nil || len(reply) != len(big) {
		t.Fatalf("after the reset: %d bytes, %v", len(reply), err)
	}
}

// waitStats polls srv's counters until ok holds, for at most 5 s.
func waitStats(t *testing.T, srv *Server, ok func(EdgeStats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !ok(srv.Stats()) {
		if time.Now().After(deadline) {
			t.Fatalf("counters never settled: %+v", srv.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEdgeServerCloseFailsPending proves Close is clean: in-flight calls
// fail fast with a connection error rather than hanging.
func TestEdgeServerCloseFailsPending(t *testing.T) {
	block := make(chan struct{})
	h := HandlerFunc(func(ctx context.Context, topic string, payload []byte, transportID string) ([]byte, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return []byte("ok"), nil
	})
	srv, err := Listen("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), "t", []byte("x"))
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	// Close cancels the server ctx, which unblocks the handler; the call
	// must resolve either way (late reply or connection error), not hang.
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("pending call hung through server close")
	}
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("server Close hung")
	}
	close(block)
}

// TestEdgePipelinedSubmitAsync proves the batched-ack path: a whole flight
// of CallAsync submissions goes out before any ack is read, then every
// PendingCall resolves with a distinct submission ID and every submission
// lands on the ledger exactly once.
func TestEdgePipelinedSubmitAsync(t *testing.T) {
	e := newEdgeEnv(t)
	var mu sync.Mutex
	seen := map[string]int{}
	e.ord.Subscribe("deals", func(b ledger.Block) error {
		mu.Lock()
		defer mu.Unlock()
		for _, tx := range b.Txs {
			seen[tx.Meta["seq"]]++
		}
		return nil
	})
	c := e.dialEdge(t)
	ctx := context.Background()
	p := bootstrap(t, c, "alice")

	const n = 32
	pendings := make([]*PendingCall, n)
	for i := range pendings {
		seq := fmt.Sprintf("pipelined-%02d", i)
		pc, err := c.CallAsync(ctx, middleware.TopicSubmit, p.submission(t, []byte(seq), map[string]string{"seq": seq}))
		if err != nil {
			t.Fatalf("submit async %d: %v", i, err)
		}
		pendings[i] = pc
	}
	ids := make(map[string]bool, n)
	for i, pc := range pendings {
		id, err := pc.Wait(ctx)
		if err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
		if len(id) == 0 || ids[string(id)] {
			t.Fatalf("wait %d: submission id %q empty or duplicated", i, id)
		}
		ids[string(id)] = true
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < n; i++ {
		seq := fmt.Sprintf("pipelined-%02d", i)
		if seen[seq] != 1 {
			t.Fatalf("submission %s delivered %d times, want exactly 1", seq, seen[seq])
		}
	}
}

// TestEdgeCallAsyncWindowAccounting proves the PendingCall owns its window
// slot: unwaited calls hold slots, Wait releases exactly one each, and
// double-Wait neither double-releases nor changes the settled result. The
// probe is a CallAsync under a context that has already ended: a free slot
// is taken without looking at the context, so it succeeds exactly when a
// slot is free and returns context.Canceled when the window is full.
func TestEdgeCallAsyncWindowAccounting(t *testing.T) {
	release := make(chan struct{})
	h := HandlerFunc(func(ctx context.Context, topic string, payload []byte, transportID string) ([]byte, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return payload, nil
	})
	srv, err := Listen("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr().String(), WithInFlight(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	ended, cancel := context.WithCancel(ctx)
	cancel()
	// take fills one free slot; full checks that none is left.
	take := func(what string) *PendingCall {
		t.Helper()
		p, err := c.CallAsync(ended, "t", []byte(what))
		if err != nil {
			t.Fatalf("%s: %v, want a free window slot", what, err)
		}
		return p
	}
	full := func(what string) {
		t.Helper()
		if _, err := c.CallAsync(ended, "t", []byte(what)); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: got %v, want context.Canceled from a full window", what, err)
		}
	}
	// wait settles p twice: the settled result repeats, and no second slot
	// is released.
	wait := func(p *PendingCall, want string) {
		t.Helper()
		for i := 0; i < 2; i++ {
			if b, err := p.Wait(ctx); err != nil || string(b) != want {
				t.Fatalf("wait %d on %s: got %q/%v", i, want, b, err)
			}
		}
	}
	p1, p2 := take("one"), take("two")
	full("three")
	close(release)
	// One wait frees one slot, however often it is repeated.
	wait(p1, "one")
	q1 := take("four")
	full("five")
	wait(p2, "two")
	wait(q1, "four")
	// Both slots are free again, and no more than both.
	q2, q3 := take("six"), take("seven")
	full("eight")
	wait(q2, "six")
	wait(q3, "seven")
	if len(c.window) != 0 {
		t.Fatalf("%d window slots held with nothing in flight, want 0", len(c.window))
	}
}

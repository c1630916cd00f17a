package middleware

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/ordering"
	"dltprivacy/internal/pki"
)

// fakeClock is a settable time source.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// principal is an enrolled identity with its signing key.
type principal struct {
	name string
	key  *dcrypto.PrivateKey
	cert pki.Certificate
}

// enroll registers identities with a fresh CA.
func enroll(t testing.TB, names ...string) (*pki.CA, map[string]*principal) {
	t.Helper()
	ca, err := pki.NewCA("consortium-ca")
	if err != nil {
		t.Fatalf("NewCA: %v", err)
	}
	out := make(map[string]*principal, len(names))
	for _, name := range names {
		key, err := dcrypto.GenerateKey()
		if err != nil {
			t.Fatalf("GenerateKey: %v", err)
		}
		cert, err := ca.Enroll(name, key.Public())
		if err != nil {
			t.Fatalf("Enroll %s: %v", name, err)
		}
		out[name] = &principal{name: name, key: key, cert: cert}
	}
	return ca, out
}

// grants holds the session each test principal opened on each manager.
var grants sync.Map // grantKey -> SessionGrant

type grantKey struct {
	mgr *SessionManager
	p   *principal
}

// memberRequest is p's request on its session on mgr, opened at first use
// and MAC'd under the session's key: how a test submits as an enrolled
// member.
func memberRequest(t testing.TB, mgr *SessionManager, p *principal, channel string, payload []byte) *Request {
	t.Helper()
	k := grantKey{mgr, p}
	g, ok := grants.Load(k)
	if !ok {
		g, _ = grants.LoadOrStore(k, openSession(t, mgr, p))
	}
	return sessionRequest(p, g.(SessionGrant), channel, payload)
}

// chainRequest is memberRequest on the manager of c's session stage.
func chainRequest(t testing.TB, c *Chain, p *principal, channel string, payload []byte) *Request {
	t.Helper()
	for _, s := range c.stages {
		if h, ok := s.(sessionHolder); ok {
			return memberRequest(t, h.Manager(), p, channel, payload)
		}
	}
	t.Fatal("the chain has no session stage")
	return nil
}

// authenticatedRequest is p's request as an authenticating stage hands it
// on, for tests of the stages after one.
func authenticatedRequest(p *principal, channel string, payload []byte) *Request {
	return &Request{Channel: channel, Principal: p.name, Payload: payload, authenticated: true}
}

// wireFront drives a gateway the way the TCP edge does: every call is one
// ServeWire under ctx with the payload the edge would carry, from the
// connection conn names. frontOf's conn is "", so the sessions it opens are
// unbound. internal/netedge's own tests cover the socket in between.
type wireFront struct {
	gw   *Gateway
	ctx  context.Context
	conn string
}

func frontOf(gw *Gateway) wireFront { return wireFront{gw: gw, ctx: context.Background()} }

func (w wireFront) call(topic string, payload []byte) ([]byte, error) {
	return w.gw.ServeWire(w.ctx, topic, payload, w.conn)
}

// submit sends req as a gateway.submit frame and returns the submission ID.
func (w wireFront) submit(req *Request) (string, error) {
	b, err := EncodeWireRequest(req, "")
	if err != nil {
		return "", err
	}
	reply, err := w.call(TopicSubmit, b)
	return string(reply), err
}

// open runs p's full signed handshake; openAt stamps its hello at a given
// time, for gateways on a fake clock.
func (w wireFront) open(p *principal) (SessionGrant, error) { return w.openWith(new(Handshaker), p) }

func (w wireFront) openAt(p *principal, at time.Time) (SessionGrant, error) {
	return w.openWith(&Handshaker{Now: func() time.Time { return at }}, p)
}

func (w wireFront) openWith(h *Handshaker, p *principal) (SessionGrant, error) {
	return h.Open(w.ctx, p.name, p.cert, p.key, func(_ context.Context, hello []byte) ([]byte, error) {
		return w.call(TopicSessionOpen, hello)
	})
}

// close ends a session as netedge.Client.CloseSession does: by its key, and
// not at all for a malformed token.
func (w wireFront) close(token string) error {
	key, ok := EncodeSessionClose(token)
	if !ok {
		return nil
	}
	_, err := w.call(TopicSessionClose, key[:])
	return err
}

func (w wireFront) notifyRevocation() (notice RevocationNotice, err error) {
	err = w.json(TopicRevocationNotify, nil, &notice)
	return notice, err
}

func (w wireFront) rebalance(req RebalanceRequest) (notice RebalanceNotice, err error) {
	b, err := json.Marshal(req)
	if err == nil {
		err = w.json(TopicShardRebalance, b, &notice)
	}
	return notice, err
}

// json calls topic and decodes its JSON reply into v.
func (w wireFront) json(topic string, payload []byte, v any) error {
	reply, err := w.call(topic, payload)
	if err != nil {
		return err
	}
	return json.Unmarshal(reply, v)
}

// auditOnly is a one-stage pipeline that passes an unauthenticated request
// on (Config refuses an empty one); it builds over auditEnv.
var auditOnly = []StageConfig{{Name: StageAudit}}

// auditEnv is an Env with a fresh leakage log, all auditOnly needs.
func auditEnv() Env { return Env{Log: audit.NewHistory()} }

// accept is a terminal handler recording the requests that reached it.
// accept is a terminal handler that keeps every request it is handed, for
// the test to read after the chain returns. It keeps each under a hold of
// its own, as any holder past Handle must: a batch release's vehicle is
// borrowed from the pool and recycled at its last drop.
type accept struct {
	mu   sync.Mutex
	seen []*Request
}

func (a *accept) handler(ctx context.Context, req *Request) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	req.hold()
	a.seen = append(a.seen, req)
	return nil
}

func (a *accept) count() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.seen)
}

func TestEnvelopeRoundTrip(t *testing.T) {
	_, ps := enroll(t, "alice", "bob", "carol")
	members := map[string]dcrypto.PublicKey{
		"alice": ps["alice"].key.Public(),
		"bob":   ps["bob"].key.Public(),
	}
	env, err := SealEnvelope("deals", []byte("10 tons of steel"), members)
	if err != nil {
		t.Fatalf("SealEnvelope: %v", err)
	}
	for _, m := range []string{"alice", "bob"} {
		got, err := OpenEnvelope(env, m, ps[m].key)
		if err != nil {
			t.Fatalf("OpenEnvelope as %s: %v", m, err)
		}
		if string(got) != "10 tons of steel" {
			t.Fatalf("payload = %q", got)
		}
	}
	// Carol holds no wrapped key.
	if _, err := OpenEnvelope(env, "carol", ps["carol"].key); !errors.Is(err, ErrNotRecipient) {
		t.Fatalf("outsider open = %v, want ErrNotRecipient", err)
	}
	// Nor under bob's name: the key, not the name, finds the wrap.
	if _, err := OpenEnvelope(env, "bob", ps["carol"].key); !errors.Is(err, ErrNotRecipient) {
		t.Fatalf("outsider open under a member's name = %v, want ErrNotRecipient", err)
	}
}

func TestEncryptRequiresAuthn(t *testing.T) {
	_, ps := enroll(t, "alice")
	dir := StaticDirectory{"deals": {"alice": ps["alice"].key.Public()}}
	enc, err := newEncrypt(dir)
	if err != nil {
		t.Fatal(err)
	}
	chain := newChain((&accept{}).handler, enc)
	req := &Request{Channel: "deals", Principal: "alice", Payload: []byte("secret")}
	if err := chain.execute(context.Background(), req); !errors.Is(err, ErrNotAuthenticated) {
		t.Fatalf("encrypt without a session = %v, want ErrNotAuthenticated", err)
	}
}

func TestAuditRecordsLeakage(t *testing.T) {
	ca, ps := enroll(t, "alice")
	log := audit.NewHistory()
	dir := StaticDirectory{"deals": {"alice": ps["alice"].key.Public()}}

	cfg := Config{Stages: []StageConfig{
		{Name: StageSession},
		{Name: StageEncrypt},
		{Name: StageAudit, Params: map[string]string{"observer": "gw-op"}},
	}}
	chain, err := cfg.build(Env{CAKey: ca.PublicKey(), Directory: dir, Log: log}, (&accept{}).handler)
	if err != nil {
		t.Fatal(err)
	}
	req := chainRequest(t, chain, ps["alice"], "deals", []byte("secret"))
	if err := chain.execute(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if !log.SawAny("gw-op", audit.ClassTxMetadata) {
		t.Fatal("observer must see envelope metadata")
	}
	if !log.Saw("gw-op", audit.ClassIdentity, "alice") {
		t.Fatal("observer must see the submitting identity")
	}
	if log.SawAny("gw-op", audit.ClassTxData) {
		t.Fatal("observer must not see tx data when encrypt runs before audit")
	}

	// Without the encrypt stage, the same pipeline leaks tx data.
	leaky := Config{Stages: []StageConfig{
		{Name: StageSession},
		{Name: StageAudit, Params: map[string]string{"observer": "leaky-op"}},
	}}
	lchain, err := leaky.build(Env{CAKey: ca.PublicKey(), Log: log}, (&accept{}).handler)
	if err != nil {
		t.Fatal(err)
	}
	if err := lchain.execute(context.Background(), chainRequest(t, lchain, ps["alice"], "deals", []byte("secret"))); err != nil {
		t.Fatal(err)
	}
	if !log.SawAny("leaky-op", audit.ClassTxData) {
		t.Fatal("plaintext pipeline must show a tx-data observation")
	}
}

func TestBatchAggregatesAndFlushes(t *testing.T) {
	b, err := newBatch(3)
	if err != nil {
		t.Fatal(err)
	}
	sink := &accept{}
	chain := newChain(sink.handler, b)
	// Every submission borrows the one buffer, as a stream transport's read
	// loop lends its frame: the stage must hold its own copy.
	buf := make([]byte, 1)
	submit := func(i int) error {
		buf[0] = byte(i)
		return chain.execute(context.Background(), &Request{
			Channel: "deals", Principal: "p", Payload: buf,
		})
	}
	for i := 0; i < 2; i++ {
		if err := submit(i); err != nil {
			t.Fatalf("buffered submit %d: %v", i, err)
		}
	}
	if sink.count() != 0 || b.pendingCount() != 2 {
		t.Fatalf("terminal=%d pending=%d, want 0/2 before the batch fills", sink.count(), b.pendingCount())
	}
	// Third submission releases the whole group in order.
	if err := submit(2); err != nil {
		t.Fatalf("filling submit: %v", err)
	}
	if sink.count() != 3 || b.pendingCount() != 0 {
		t.Fatalf("terminal=%d pending=%d, want 3/0 after release", sink.count(), b.pendingCount())
	}
	for i, r := range sink.seen {
		if r.Payload[0] != byte(i) {
			t.Fatalf("release order broken at %d", i)
		}
	}
	// Partial batch drains on Flush.
	if err := submit(3); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(context.Background()); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if sink.count() != 4 {
		t.Fatalf("terminal=%d after flush, want 4", sink.count())
	}
}

func TestBatchDeliversWholeGroupDespiteFailure(t *testing.T) {
	b, err := newBatch(3)
	if err != nil {
		t.Fatal(err)
	}
	var attempted []byte
	terminal := func(ctx context.Context, req *Request) error {
		attempted = append(attempted, req.Payload[0])
		if req.Payload[0] == 1 {
			return errors.New("orderer down")
		}
		return nil
	}
	chain := newChain(terminal, b)
	for i := 0; i < 2; i++ {
		if err := chain.execute(context.Background(), &Request{
			Channel: "c", Principal: "p", Payload: []byte{byte(i)},
		}); err != nil {
			t.Fatalf("buffered submit %d: %v", i, err)
		}
	}
	// The filling submission sees the failure, but the rest of the group
	// — already acknowledged to their submitters — still gets delivered.
	err = chain.execute(context.Background(), &Request{
		Channel: "c", Principal: "p", Payload: []byte{2},
	})
	if err == nil {
		t.Fatal("release failure not surfaced")
	}
	if len(attempted) != 3 {
		t.Fatalf("delivery attempted for %d of 3 buffered requests (%v)", len(attempted), attempted)
	}
}

// TestRetryDoesNotReplayBatchRelease: a caller that resubmits on
// ordering.ErrNoLeader ("not ordered") must not resubmit after a release in
// which another member hit that error. The release error does not match
// it, so the filling request is neither re-buffered nor ordered twice.
func TestRetryDoesNotReplayBatchRelease(t *testing.T) {
	b, err := newBatch(2)
	if err != nil {
		t.Fatal(err)
	}
	orders := make(map[byte]int)
	terminal := func(ctx context.Context, req *Request) error {
		orders[req.Payload[0]]++
		if req.Payload[0] == 0 {
			return fmt.Errorf("shard 0: %w", ordering.ErrNoLeader)
		}
		return nil
	}
	chain := newChain(terminal, b)
	if err := chain.execute(context.Background(), &Request{
		Channel: "c", Principal: "p", Payload: []byte{0},
	}); err != nil {
		t.Fatalf("buffered submit: %v", err)
	}
	for attempt := 0; attempt < 3; attempt++ {
		err = chain.execute(context.Background(), &Request{
			Channel: "c", Principal: "p", Payload: []byte{1},
		})
		if !errors.Is(err, ordering.ErrNoLeader) {
			break
		}
	}
	if !errors.Is(err, ErrBatchRelease) {
		t.Fatalf("filling submit = %v, want ErrBatchRelease", err)
	}
	if orders[0] != 1 || orders[1] != 1 {
		t.Fatalf("delivery counts = %v, want one attempt each", orders)
	}
	if b.pendingCount() != 0 {
		t.Fatalf("pending = %d after release, want 0", b.pendingCount())
	}
}

func TestChainStats(t *testing.T) {
	var calls int
	refuseSecond := func(ctx context.Context, req *Request) error {
		if calls++; calls == 2 {
			return errors.New("backend down")
		}
		return nil
	}
	chain := newChain(refuseSecond, nopStage{})
	_ = chain.execute(context.Background(), &Request{Channel: "c", Principal: "a"})
	_ = chain.execute(context.Background(), &Request{Channel: "c", Principal: "a"}) // refused downstream
	stats := chain.stats()
	if len(stats) != 1 || stats[0].Name != "nop" {
		t.Fatalf("stats = %+v", stats)
	}
	if stats[0].Calls != 2 || stats[0].Errors != 1 {
		t.Fatalf("calls=%d errors=%d, want 2/1", stats[0].Calls, stats[0].Errors)
	}
}

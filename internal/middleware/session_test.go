package middleware

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/ledger"
	"dltprivacy/internal/ordering"
	"dltprivacy/internal/pki"
	"dltprivacy/internal/transport"
)

// enrollAt registers identities with a CA running on the given clock, so
// certificate validity windows line up with fake-clock tests.
func enrollAt(t testing.TB, now func() time.Time, names ...string) (*pki.CA, map[string]*principal) {
	t.Helper()
	ca, err := pki.NewCA("consortium-ca", pki.WithClock(now))
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

// sessionRequest builds a token-bound signed request carrying no
// certificate: the session, not the cert, vouches for the principal.
func sessionRequest(t testing.TB, p *principal, token, channel string, payload []byte) *Request {
	t.Helper()
	req := &Request{
		Channel:      channel,
		Principal:    p.name,
		Payload:      payload,
		SessionToken: token,
	}
	if err := SignRequest(req, p.key); err != nil {
		t.Fatalf("SignRequest: %v", err)
	}
	return req
}

func mustManager(t testing.TB, ca *pki.CA, ttl, idle time.Duration, now func() time.Time) *SessionManager {
	t.Helper()
	mgr, err := NewSessionManager(ca.PublicKey(), ttl, idle, now)
	if err != nil {
		t.Fatalf("NewSessionManager: %v", err)
	}
	return mgr
}

func openSession(t testing.TB, mgr *SessionManager, p *principal) SessionGrant {
	t.Helper()
	hello, err := NewSessionHelloAt(p.name, p.cert, p.key, mgr.now())
	if err != nil {
		t.Fatalf("NewSessionHello: %v", err)
	}
	grant, err := mgr.Open(hello)
	if err != nil {
		t.Fatalf("Open session for %s: %v", p.name, err)
	}
	return grant
}

// openSessionOverAt is OpenSessionOver with an injected hello timestamp,
// for transport tests running the gateway on a fake clock.
func openSessionOverAt(t testing.TB, net *transport.Network, endpoint string, p *principal, at time.Time) (SessionGrant, error) {
	t.Helper()
	client := &Handshaker{Now: func() time.Time { return at }}
	return client.Open(context.Background(), p.name, p.cert, p.key, func(_ context.Context, hello []byte) ([]byte, error) {
		return net.Send(transport.Message{From: p.name, To: endpoint, Topic: TopicSessionOpen, Payload: hello})
	})
}

func TestSessionAmortizedAuthn(t *testing.T) {
	clock := newFakeClock()
	ca, ps := enrollAt(t, clock.now, "alice", "bob")
	mgr := mustManager(t, ca, 10*time.Minute, 2*time.Minute, clock.now)
	stage, err := NewSession(mgr)
	if err != nil {
		t.Fatal(err)
	}
	sink := &accept{}
	chain := NewChain(sink.handler, stage, NewAuthn(ca.PublicKey(), clock.now))

	grant := openSession(t, mgr, ps["alice"])
	if grant.Principal != "alice" || grant.Token == "" {
		t.Fatalf("grant = %+v", grant)
	}

	// A token-bound request authenticates with no certificate attached.
	req := sessionRequest(t, ps["alice"], grant.Token, "deals", []byte("trade"))
	if err := chain.Execute(context.Background(), req); err != nil {
		t.Fatalf("session request rejected: %v", err)
	}
	if !req.Authenticated() {
		t.Fatal("session request not marked authenticated")
	}

	// The per-request signature still gates every submission: a tampered
	// payload fails even on a live session.
	tampered := sessionRequest(t, ps["alice"], grant.Token, "deals", []byte("trade"))
	tampered.Payload = []byte("tampered")
	if err := chain.Execute(context.Background(), tampered); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("tampered session request = %v, want ErrBadSignature", err)
	}

	// Bob cannot ride alice's session.
	hijack := sessionRequest(t, ps["bob"], grant.Token, "deals", []byte("trade"))
	if err := chain.Execute(context.Background(), hijack); !errors.Is(err, ErrIdentityMismatch) {
		t.Fatalf("hijacked session = %v, want ErrIdentityMismatch", err)
	}

	// A certificate-bearing request without a token still passes through
	// to the full authn stage: one chain serves both kinds of traffic.
	full := signedRequest(t, ps["bob"], "deals", []byte("trade"))
	if err := chain.Execute(context.Background(), full); err != nil {
		t.Fatalf("cert request through session chain: %v", err)
	}
	if sink.count() != 2 {
		t.Fatalf("terminal saw %d requests, want 2", sink.count())
	}
}

func TestSessionOpenRejectsBadHandshake(t *testing.T) {
	clock := newFakeClock()
	ca, ps := enrollAt(t, clock.now, "alice")
	mgr := mustManager(t, ca, 10*time.Minute, 2*time.Minute, clock.now)

	// A certificate from a different CA.
	_, others := enrollAt(t, clock.now, "alice")
	hello, err := NewSessionHelloAt("alice", others["alice"].cert, others["alice"].key, clock.now())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Open(hello); !errors.Is(err, pki.ErrBadCertificate) {
		t.Fatalf("foreign cert = %v, want ErrBadCertificate", err)
	}

	// A certificate naming someone else.
	hello, err = NewSessionHelloAt("mallory", ps["alice"].cert, ps["alice"].key, clock.now())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Open(hello); !errors.Is(err, ErrIdentityMismatch) {
		t.Fatalf("mismatched hello = %v, want ErrIdentityMismatch", err)
	}

	// A tampered handshake signature.
	hello, err = NewSessionHelloAt("alice", ps["alice"].cert, ps["alice"].key, clock.now())
	if err != nil {
		t.Fatal(err)
	}
	hello.Nonce = append([]byte(nil), hello.Nonce...)
	hello.Nonce[0] ^= 0xff
	if _, err := mgr.Open(hello); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("tampered hello = %v, want ErrBadSignature", err)
	}

	// A hello issued outside the freshness window, even validly signed.
	hello, err = NewSessionHelloAt("alice", ps["alice"].cert, ps["alice"].key, clock.now().Add(-3*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Open(hello); !errors.Is(err, ErrStaleHello) {
		t.Fatalf("stale hello = %v, want ErrStaleHello", err)
	}

	// A recorded hello replayed verbatim cannot mint a second token.
	hello, err = NewSessionHelloAt("alice", ps["alice"].cert, ps["alice"].key, clock.now())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Open(hello); err != nil {
		t.Fatalf("first open: %v", err)
	}
	if _, err := mgr.Open(hello); !errors.Is(err, ErrReplayedHello) {
		t.Fatalf("replayed hello = %v, want ErrReplayedHello", err)
	}
	if mgr.Len() != 1 {
		t.Fatalf("rejected handshakes left %d sessions, want 1 (the legitimate open)", mgr.Len())
	}
}

func TestSessionTokenLifecycle(t *testing.T) {
	clock := newFakeClock()
	ca, ps := enrollAt(t, clock.now, "alice")
	mgr := mustManager(t, ca, 10*time.Minute, 2*time.Minute, clock.now)
	stage, err := NewSession(mgr)
	if err != nil {
		t.Fatal(err)
	}
	chain := NewChain((&accept{}).handler, stage)
	submit := func(token string) error {
		return chain.Execute(context.Background(), sessionRequest(t, ps["alice"], token, "deals", []byte("x")))
	}

	// A forged token is rejected with ErrNoSession.
	if err := submit("deadbeef"); !errors.Is(err, ErrNoSession) {
		t.Fatalf("forged token = %v, want ErrNoSession", err)
	}

	// An idle session is evicted with ErrSessionExpired.
	grant := openSession(t, mgr, ps["alice"])
	if err := submit(grant.Token); err != nil {
		t.Fatalf("fresh session rejected: %v", err)
	}
	clock.advance(2*time.Minute + time.Second)
	if err := submit(grant.Token); !errors.Is(err, ErrSessionExpired) {
		t.Fatalf("idle session = %v, want ErrSessionExpired", err)
	}
	// Once evicted, the token no longer exists.
	if err := submit(grant.Token); !errors.Is(err, ErrNoSession) {
		t.Fatalf("evicted token = %v, want ErrNoSession", err)
	}

	// Steady use keeps a session alive until the hard TTL.
	grant = openSession(t, mgr, ps["alice"])
	for i := 0; i < 6; i++ {
		clock.advance(90 * time.Second) // under the idle window each step
		if err := submit(grant.Token); err != nil {
			t.Fatalf("active session rejected at step %d: %v", i, err)
		}
	}
	clock.advance(90 * time.Second) // 10.5m total: past the hard TTL
	if err := submit(grant.Token); !errors.Is(err, ErrSessionExpired) {
		t.Fatalf("session past TTL = %v, want ErrSessionExpired", err)
	}

	// Close ends a live session immediately.
	grant = openSession(t, mgr, ps["alice"])
	mgr.Close(grant.Token)
	if err := submit(grant.Token); !errors.Is(err, ErrNoSession) {
		t.Fatalf("closed session = %v, want ErrNoSession", err)
	}
}

func TestSessionSweepBoundsTable(t *testing.T) {
	clock := newFakeClock()
	ca, ps := enrollAt(t, clock.now, "alice")
	mgr := mustManager(t, ca, 10*time.Minute, time.Minute, clock.now)
	for i := 0; i < 8; i++ {
		openSession(t, mgr, ps["alice"])
	}
	if mgr.Len() != 8 {
		t.Fatalf("sessions = %d, want 8", mgr.Len())
	}
	// All eight go idle; the next Open sweeps them out.
	clock.advance(time.Minute + time.Second)
	openSession(t, mgr, ps["alice"])
	if mgr.Len() != 1 {
		t.Fatalf("sessions after sweep = %d, want 1 (abandoned sessions must be evicted)", mgr.Len())
	}
}

func TestConfigSessionPlacement(t *testing.T) {
	rejected := []struct {
		name string
		cfg  Config
	}{
		{"session after authn", stageList(StageAuthn, StageSession)},
		{"ratelimit before session", stageList(StageRateLimit, StageSession)},
		{"encrypt without any authenticator", stageList(StageEncrypt)},
		{"bad session ttl", Config{Stages: []StageConfig{
			{Name: StageSession, Params: map[string]string{"ttl": "soon"}},
		}}},
		{"zero session ttl", Config{Stages: []StageConfig{
			{Name: StageSession, Params: map[string]string{"ttl": "0s"}},
		}}},
		{"bad encrypt keyttl", Config{Stages: []StageConfig{
			{Name: StageSession},
			{Name: StageEncrypt, Params: map[string]string{"keyttl": "soon"}},
		}}},
	}
	for _, tc := range rejected {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.cfg.Build(testEnv(t), nil); !errors.Is(err, ErrBadConfig) {
				t.Fatalf("Build = %v, want ErrBadConfig", err)
			}
		})
	}

	// A session-only authenticator satisfies encrypt's ordering rule, and
	// the full dual-path chain builds.
	for _, ok := range []Config{
		stageList(StageSession, StageEncrypt),
		stageList(StageSession, StageAuthn, StageEncrypt, StageAudit, StageRateLimit, StageBatch),
	} {
		if _, err := ok.Build(testEnv(t), nil); err != nil {
			t.Fatalf("valid session chain rejected: %v", err)
		}
	}
}

func TestEncryptKeyCacheEpochsAndRotation(t *testing.T) {
	clock := newFakeClock()
	_, ps := enrollAt(t, clock.now, "alice", "bob", "carol")
	members := map[string]dcrypto.PublicKey{
		"alice": ps["alice"].key.Public(),
		"bob":   ps["bob"].key.Public(),
	}
	dir := StaticDirectory{"deals": members}
	enc, err := NewCachedEncrypt(dir, 5*time.Minute, clock.now)
	if err != nil {
		t.Fatal(err)
	}
	sink := &accept{}
	chain := NewChain(sink.handler, enc)
	seal := func() Envelope {
		t.Helper()
		req := &Request{Channel: "deals", Principal: "alice", Payload: []byte("10 tons of steel")}
		req.authenticated = true // stage under test is encrypt, not authn
		if err := chain.Execute(context.Background(), req); err != nil {
			t.Fatalf("cached encrypt: %v", err)
		}
		env, err := ParseEnvelope(req.Payload)
		if err != nil {
			t.Fatalf("ParseEnvelope: %v", err)
		}
		return env
	}

	// Two submissions share one epoch: the per-member wrap ran once.
	e1, e2 := seal(), seal()
	if e1.Epoch != 1 || e2.Epoch != 1 {
		t.Fatalf("epochs = %d, %d, want 1, 1", e1.Epoch, e2.Epoch)
	}
	if !bytes.Equal(e1.EphemeralPub, e2.EphemeralPub) {
		t.Fatal("ephemeral key changed within one epoch")
	}
	for m := range members {
		if !bytes.Equal(e1.Keys[m], e2.Keys[m]) {
			t.Fatalf("member %s re-wrapped within one epoch", m)
		}
	}
	// Cached-key envelopes still open for every member and nobody else.
	for _, env := range []Envelope{e1, e2} {
		for m := range members {
			got, err := OpenEnvelope(env, m, ps[m].key)
			if err != nil || string(got) != "10 tons of steel" {
				t.Fatalf("OpenEnvelope as %s: %q, %v", m, got, err)
			}
		}
		if _, err := OpenEnvelope(env, "carol", ps["carol"].key); !errors.Is(err, ErrNotRecipient) {
			t.Fatalf("outsider open = %v, want ErrNotRecipient", err)
		}
	}

	// Epoch expiry rotates the data key.
	clock.advance(5*time.Minute + time.Second)
	if e3 := seal(); e3.Epoch != 2 {
		t.Fatalf("epoch after TTL = %d, want 2", e3.Epoch)
	}

	// Membership change rotates immediately: the joiner must not be able
	// to open pre-join traffic, nor old wraps cover the joiner.
	dir["deals"]["carol"] = ps["carol"].key.Public()
	e4 := seal()
	if e4.Epoch != 3 {
		t.Fatalf("epoch after membership change = %d, want 3", e4.Epoch)
	}
	if _, err := OpenEnvelope(e4, "carol", ps["carol"].key); err != nil {
		t.Fatalf("new member cannot open post-join envelope: %v", err)
	}

	// Explicit rotation (e.g. after a revocation) forces a fresh epoch.
	enc.Rotate("deals")
	if e5 := seal(); e5.Epoch != 4 {
		t.Fatalf("epoch after explicit rotate = %d, want 4", e5.Epoch)
	}
	if got := enc.Epoch("deals"); got != 4 {
		t.Fatalf("Epoch() = %d, want 4", got)
	}
}

// sessionChainConfig is the dual-path pipeline the session tests drive
// over transport: session-or-authn, cached envelope encryption, audit.
func sessionChainConfig(ttl, idle string) Config {
	return Config{Stages: []StageConfig{
		{Name: StageSession, Params: map[string]string{"ttl": ttl, "idle": idle}},
		{Name: StageAuthn},
		{Name: StageEncrypt, Params: map[string]string{"keyttl": "5m"}},
		{Name: StageAudit, Params: map[string]string{"observer": "gateway-op"}},
	}}
}

func TestGatewaySessionOverTransport(t *testing.T) {
	clock := newFakeClock()
	ca, ps := enrollAt(t, clock.now, "alice", "bob")
	memberKeys := map[string]dcrypto.PublicKey{
		"alice": ps["alice"].key.Public(),
		"bob":   ps["bob"].key.Public(),
	}
	log := audit.NewLog()
	orderer := ordering.New("orderer-op", ordering.VisibilityEnvelope, ordering.WithAuditLog(log))
	env := Env{CAKey: ca.PublicKey(), Directory: StaticDirectory{"deals": memberKeys}, Log: log, Now: clock.now}
	gw, err := NewGateway("gw", sessionChainConfig("10m", "2m"), env, orderer)
	if err != nil {
		t.Fatal(err)
	}
	gw.Bind("deals", &countingBackend{})
	net := transport.New()
	if err := gw.AttachTransport(context.Background(), net, "gateway"); err != nil {
		t.Fatalf("AttachTransport: %v", err)
	}

	grant, err := openSessionOverAt(t, net, "gateway", ps["alice"], clock.now())
	if err != nil {
		t.Fatalf("open session over transport: %v", err)
	}
	if mgr := gw.Sessions(); mgr == nil || mgr.Len() != 1 {
		t.Fatalf("gateway session manager not holding the session")
	}

	// Token-bound submissions carry no certificate at all.
	for i := 0; i < 3; i++ {
		req := sessionRequest(t, ps["alice"], grant.Token, "deals", []byte(fmt.Sprintf("trade-%d", i)))
		if _, err := SubmitOver(net, "alice", "gateway", req); err != nil {
			t.Fatalf("session submit %d: %v", i, err)
		}
	}
	if stats := gw.Stats(); stats.Ordered != 3 || stats.Rejected != 0 {
		t.Fatalf("stats = %+v, want 3 ordered / 0 rejected", stats)
	}

	// A forged token is rejected with the distinct no-session error.
	forged := sessionRequest(t, ps["alice"], "feedfacefeedface", "deals", []byte("x"))
	if _, err := SubmitOver(net, "alice", "gateway", forged); !errors.Is(err, ErrNoSession) {
		t.Fatalf("forged token = %v, want ErrNoSession", err)
	}

	// An expired session is rejected with the distinct expiry error.
	clock.advance(11 * time.Minute)
	expired := sessionRequest(t, ps["alice"], grant.Token, "deals", []byte("x"))
	if _, err := SubmitOver(net, "alice", "gateway", expired); !errors.Is(err, ErrSessionExpired) {
		t.Fatalf("expired session = %v, want ErrSessionExpired", err)
	}

	// Close, then the token is gone.
	grant2, err := openSessionOverAt(t, net, "gateway", ps["bob"], clock.now())
	if err != nil {
		t.Fatal(err)
	}
	if err := CloseSessionOver(net, "bob", "gateway", grant2.Token); err != nil {
		t.Fatalf("CloseSessionOver: %v", err)
	}
	closed := sessionRequest(t, ps["bob"], grant2.Token, "deals", []byte("x"))
	if _, err := SubmitOver(net, "bob", "gateway", closed); !errors.Is(err, ErrNoSession) {
		t.Fatalf("closed session = %v, want ErrNoSession", err)
	}

	// The session path leaks nothing new: the operator saw metadata and
	// identity, never transaction data.
	if log.SawAny("gateway-op", audit.ClassTxData) {
		t.Fatal("gateway operator observed transaction data on the session path")
	}
}

// flakyOrderer always fails transiently, for retry/context tests.
type flakyOrderer struct {
	mu      sync.Mutex
	submits int
}

func (f *flakyOrderer) Submit(tx ledger.Transaction) error {
	f.mu.Lock()
	f.submits++
	f.mu.Unlock()
	return fmt.Errorf("orderer unreachable: %w", transport.ErrPartitioned)
}

func (f *flakyOrderer) Subscribe(channel string, deliver ordering.DeliverFunc) {}

func (f *flakyOrderer) Operators() []string { return []string{"flaky"} }

func (f *flakyOrderer) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.submits
}

func TestAttachTransportPlumbsCallerContext(t *testing.T) {
	cfg := Config{Stages: []StageConfig{
		{Name: StageRetry, Params: map[string]string{"attempts": "3", "backoff": "0s"}},
	}}
	build := func(orderer ordering.Backend) *Gateway {
		t.Helper()
		gw, err := NewGateway("gw", cfg, Env{Sleep: func(time.Duration) {}}, orderer)
		if err != nil {
			t.Fatal(err)
		}
		return gw
	}

	// A live caller context lets the retry stage run all attempts.
	live := &flakyOrderer{}
	net := transport.New()
	if err := build(live).AttachTransport(context.Background(), net, "gw-live"); err != nil {
		t.Fatal(err)
	}
	req := &Request{Channel: "deals", Principal: "alice", Payload: []byte("x")}
	if _, err := SubmitOver(net, "alice", "gw-live", req); !IsTransient(err) {
		t.Fatalf("live context submit = %v, want transient exhaustion", err)
	}
	if live.count() != 3 {
		t.Fatalf("attempts under live context = %d, want 3", live.count())
	}

	// A canceled caller context reaches the chain: the retry stage stops
	// after the first attempt instead of hammering the dead backend.
	canceled := &flakyOrderer{}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := build(canceled).AttachTransport(ctx, net, "gw-canceled"); err != nil {
		t.Fatal(err)
	}
	if _, err := SubmitOver(net, "alice", "gw-canceled", req); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled context submit = %v, want context.Canceled", err)
	}
	if canceled.count() != 1 {
		t.Fatalf("attempts under canceled context = %d, want 1", canceled.count())
	}
}

// countingBackend counts committed transactions.
type countingBackend struct {
	mu  sync.Mutex
	txs int
}

func (c *countingBackend) Name() string { return "counter" }

func (c *countingBackend) Commit(b ledger.Block) error {
	c.mu.Lock()
	c.txs += len(b.Txs)
	c.mu.Unlock()
	return nil
}

func (c *countingBackend) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.txs
}

func TestGatewayBindIdempotent(t *testing.T) {
	orderer := ordering.New("op", ordering.VisibilityFull)
	cfg := Config{Stages: []StageConfig{
		{Name: StageRateLimit, Params: map[string]string{"rate": "1000", "burst": "1000"}},
	}}
	gw, err := NewGateway("gw", cfg, Env{}, orderer)
	if err != nil {
		t.Fatal(err)
	}
	sink := &countingBackend{}
	gw.Bind("deals", sink)
	gw.Bind("deals", sink) // reconnect path: must not double-subscribe

	req := &Request{Channel: "deals", Principal: "alice", Payload: []byte("x")}
	if err := gw.Submit(context.Background(), req); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if got := sink.count(); got != 1 {
		t.Fatalf("backend committed %d txs after double Bind, want 1", got)
	}
	if got := len(gw.Bound("deals")); got != 1 {
		t.Fatalf("Bound lists %d adapters, want 1", got)
	}
}

func TestRateLimitEvictsIdleBuckets(t *testing.T) {
	clock := newFakeClock()
	rl, err := NewRateLimit(1, 2, clock.now) // refill window: 2s
	if err != nil {
		t.Fatal(err)
	}
	chain := NewChain((&accept{}).handler, rl)
	submit := func(who string) error {
		return chain.Execute(context.Background(), &Request{Channel: "deals", Principal: who})
	}
	for i := 0; i < 100; i++ {
		if err := submit(fmt.Sprintf("principal-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := rl.Buckets(); got != 100 {
		t.Fatalf("buckets = %d, want 100", got)
	}
	// Everyone goes idle past the refill window; the next submission
	// sweeps the table down to its own bucket.
	clock.advance(3 * time.Second)
	if err := submit("principal-0"); err != nil {
		t.Fatal(err)
	}
	if got := rl.Buckets(); got != 1 {
		t.Fatalf("buckets after idle sweep = %d, want 1 (map must shrink)", got)
	}
	// Eviction must not hand out extra tokens: a refilled-then-evicted
	// bucket behaves exactly like a fresh one.
	if err := submit("principal-0"); err != nil {
		t.Fatal(err)
	}
	if err := submit("principal-0"); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("post-eviction burst = %v, want ErrRateLimited", err)
	}
}

type ctxKey string

func TestBatchReleaseDetachedFromFillingContext(t *testing.T) {
	b, err := NewBatch(2)
	if err != nil {
		t.Fatal(err)
	}
	type seen struct {
		payload byte
		ctxErr  error
		val     any
	}
	var got []seen
	terminal := func(ctx context.Context, req *Request) error {
		got = append(got, seen{req.Payload[0], ctx.Err(), ctx.Value(ctxKey("tenant"))})
		if err := ctx.Err(); err != nil {
			return err
		}
		return nil
	}
	chain := NewChain(terminal, b)

	// First request buffered and acknowledged under its own context.
	if err := chain.Execute(context.Background(), &Request{
		Channel: "c", Principal: "p", Payload: []byte{0},
	}); err != nil {
		t.Fatalf("buffered submit: %v", err)
	}
	// The filling request arrives with an already-canceled context (its
	// client gave up). The acked member must still be delivered cleanly.
	ctx := context.WithValue(context.Background(), ctxKey("tenant"), "acme")
	ctx, cancel := context.WithCancel(ctx)
	cancel()
	if err := chain.Execute(ctx, &Request{
		Channel: "c", Principal: "p", Payload: []byte{1},
	}); err != nil {
		t.Fatalf("release under canceled filling context failed: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("terminal saw %d deliveries, want 2", len(got))
	}
	for _, s := range got {
		if s.ctxErr != nil {
			t.Fatalf("delivery of %d saw canceled context: %v", s.payload, s.ctxErr)
		}
	}
	// Values survive the detach.
	if got[1].val != "acme" {
		t.Fatalf("context value lost in detach: %v", got[1].val)
	}
}

func TestBreakerStateSeesChannelCircuits(t *testing.T) {
	clock := newFakeClock()
	br, err := NewBreaker(2, time.Second, clock.now)
	if err != nil {
		t.Fatal(err)
	}
	down := func(ctx context.Context, req *Request) error { return errors.New("down") }
	chain := NewChain(down, br)
	// Requests with no Backend share the per-channel circuit.
	for i := 0; i < 2; i++ {
		if err := chain.Execute(context.Background(), &Request{Channel: "deals", Principal: "p"}); err == nil {
			t.Fatal("failing handler reported success")
		}
	}
	if got := br.State("deals"); got != "open" {
		t.Fatalf("State(channel) = %s, want open (must resolve the channel-keyed circuit)", got)
	}
	// An explicit backend key still resolves directly.
	if got := br.State("fabric"); got != "closed" {
		t.Fatalf("State(unknown backend) = %s, want closed", got)
	}
}

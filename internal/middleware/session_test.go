package middleware

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/ledger"
	"dltprivacy/internal/ordering"
	"dltprivacy/internal/pki"
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

// sessionRequest builds p's request on the grant's session, MAC'd under its
// key and carrying no certificate: the session, not the cert, vouches for
// the principal.
func sessionRequest(p *principal, grant SessionGrant, channel string, payload []byte) *Request {
	req := &Request{
		Channel:      channel,
		Principal:    p.name,
		Payload:      payload,
		SessionToken: grant.Token,
	}
	MACRequest(req, grant.MacKey)
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

// admitToken is the session stage's check of a request carrying token over
// transportID, on the manager's clock: the principal and MAC key the request
// runs under, or its refusal.
func admitToken(m *SessionManager, token, transportID string) (string, *dcrypto.MACKey, error) {
	s, err := m.admit(m.now(), nil, token, transportID)
	if err != nil {
		return "", nil, err
	}
	return s.principal, &s.macKey, nil
}

func openSession(t testing.TB, mgr *SessionManager, p *principal) SessionGrant {
	t.Helper()
	hello, err := newSessionHelloAt(p.name, p.cert, p.key, mgr.now())
	if err != nil {
		t.Fatalf("NewSessionHello: %v", err)
	}
	grant, err := mgr.Open(hello)
	if err != nil {
		t.Fatalf("Open session for %s: %v", p.name, err)
	}
	return grant
}

func TestSessionAmortizedAuthn(t *testing.T) {
	clock := newFakeClock()
	ca, ps := enrollAt(t, clock.now, "alice", "bob")
	mgr := mustManager(t, ca, 10*time.Minute, 2*time.Minute, clock.now)
	stage, err := newSession(mgr)
	if err != nil {
		t.Fatal(err)
	}
	sink := &accept{}
	chain := newChain(sink.handler, stage, newAuthn(ca.PublicKey(), clock.now))

	grant := openSession(t, mgr, ps["alice"])
	if grant.Principal != "alice" || grant.Token == "" {
		t.Fatalf("grant = %+v", grant)
	}

	// A token-bound request authenticates with no certificate attached.
	req := sessionRequest(ps["alice"], grant, "deals", []byte("trade"))
	if err := chain.execute(context.Background(), req); err != nil {
		t.Fatalf("session request rejected: %v", err)
	}
	if !req.authenticated {
		t.Fatal("session request not marked authenticated")
	}

	// The per-request MAC still gates every submission: a tampered payload
	// fails even on a live session.
	tampered := sessionRequest(ps["alice"], grant, "deals", []byte("trade"))
	tampered.Payload = []byte("tampered")
	if err := chain.execute(context.Background(), tampered); !errors.Is(err, ErrBadMAC) {
		t.Fatalf("tampered session request = %v, want ErrBadMAC", err)
	}

	// Bob cannot ride alice's session.
	hijack := sessionRequest(ps["bob"], grant, "deals", []byte("trade"))
	if err := chain.execute(context.Background(), hijack); !errors.Is(err, ErrIdentityMismatch) {
		t.Fatalf("hijacked session = %v, want ErrIdentityMismatch", err)
	}

	// A certificate-bearing request without a token still passes through
	// to the full authn stage: one chain serves both kinds of traffic.
	full := signedRequest(t, ps["bob"], "deals", []byte("trade"))
	if err := chain.execute(context.Background(), full); err != nil {
		t.Fatalf("cert request through session chain: %v", err)
	}
	if sink.count() != 2 {
		t.Fatalf("terminal saw %d requests, want 2", sink.count())
	}
}

// TestSessionRequestsAreMACOnly pins what one request-auth mode means: on a
// session the MAC is the proof and a signature is not read, "reqauth"
// accepts only mac (the benchmark's spelling) and the WithRequestAuth shim
// still builds, and a signed request keeps its way in — without a token,
// through authn.
func TestSessionRequestsAreMACOnly(t *testing.T) {
	ca, ps := enroll(t, "alice")
	alice := ps["alice"]
	env := Env{CAKey: ca.PublicKey()}
	pipeline := func(params map[string]string) Config {
		return Config{Stages: []StageConfig{{Name: StageSession, Params: params}, {Name: StageAuthn}}}
	}
	chain, err := pipeline(nil).build(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	grant := openSession(t, chain.stages[0].(*sessionStage).Manager(), alice)
	execute := func(req *Request) error { return chain.execute(context.Background(), req) }
	build := func(params map[string]string) error {
		_, err := pipeline(params).build(env, nil)
		return err
	}
	for _, tc := range []struct {
		name    string
		run     func() error
		want    error // nil: accepted
		wantMsg string
	}{
		{"token with a valid MAC passes", func() error {
			return execute(sessionRequest(alice, grant, "deals", []byte("trade")))
		}, nil, ""},
		{"token with a valid signature and no MAC is ErrBadMAC", func() error {
			req := signedRequest(t, alice, "deals", []byte("trade"))
			req.SessionToken = grant.Token
			return execute(req)
		}, ErrBadMAC, ""},
		{"reqauth=sig is ErrBadConfig", func() error {
			return build(map[string]string{"reqauth": "sig"})
		}, ErrBadConfig, "MAC only"},
		{"reqauth=mac builds", func() error {
			return build(map[string]string{"reqauth": "mac"})
		}, nil, ""},
		{"WithRequestAuth(AuthMAC) builds", func() error {
			_, err := NewSessionManager(ca.PublicKey(), time.Hour, time.Hour, nil, WithRequestAuth(AuthMAC))
			return err
		}, nil, ""},
		{"sessionless certificate and signature pass session|authn", func() error {
			return execute(signedRequest(t, alice, "deals", []byte("trade")))
		}, nil, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run()
			if tc.want == nil && err != nil {
				t.Fatalf("rejected: %v", err)
			}
			if !errors.Is(err, tc.want) || !strings.Contains(fmt.Sprint(err), tc.wantMsg) {
				t.Fatalf("err = %v, want %v mentioning %q", err, tc.want, tc.wantMsg)
			}
		})
	}
}

func TestSessionOpenRejectsBadHandshake(t *testing.T) {
	clock := newFakeClock()
	ca, ps := enrollAt(t, clock.now, "alice")
	mgr := mustManager(t, ca, 10*time.Minute, 2*time.Minute, clock.now)

	// A certificate from a different CA.
	_, others := enrollAt(t, clock.now, "alice")
	hello, err := newSessionHelloAt("alice", others["alice"].cert, others["alice"].key, clock.now())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Open(hello); !errors.Is(err, pki.ErrBadCertificate) {
		t.Fatalf("foreign cert = %v, want ErrBadCertificate", err)
	}

	// A certificate naming someone else.
	hello, err = newSessionHelloAt("mallory", ps["alice"].cert, ps["alice"].key, clock.now())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Open(hello); !errors.Is(err, ErrIdentityMismatch) {
		t.Fatalf("mismatched hello = %v, want ErrIdentityMismatch", err)
	}

	// A tampered handshake signature.
	hello, err = newSessionHelloAt("alice", ps["alice"].cert, ps["alice"].key, clock.now())
	if err != nil {
		t.Fatal(err)
	}
	hello.Nonce = append([]byte(nil), hello.Nonce...)
	hello.Nonce[0] ^= 0xff
	if _, err := mgr.Open(hello); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("tampered hello = %v, want ErrBadSignature", err)
	}

	// A hello issued outside the freshness window, even validly signed.
	hello, err = newSessionHelloAt("alice", ps["alice"].cert, ps["alice"].key, clock.now().Add(-3*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Open(hello); !errors.Is(err, ErrStaleHello) {
		t.Fatalf("stale hello = %v, want ErrStaleHello", err)
	}

	// A recorded hello replayed verbatim cannot mint a second token.
	hello, err = newSessionHelloAt("alice", ps["alice"].cert, ps["alice"].key, clock.now())
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
	stage, err := newSession(mgr)
	if err != nil {
		t.Fatal(err)
	}
	chain := newChain((&accept{}).handler, stage)
	submit := func(grant SessionGrant) error {
		return chain.execute(context.Background(), sessionRequest(ps["alice"], grant, "deals", []byte("x")))
	}

	// A forged token is rejected with ErrNoSession.
	if err := submit(SessionGrant{Token: "deadbeef"}); !errors.Is(err, ErrNoSession) {
		t.Fatalf("forged token = %v, want ErrNoSession", err)
	}

	// An idle session is evicted with ErrSessionExpired.
	grant := openSession(t, mgr, ps["alice"])
	if err := submit(grant); err != nil {
		t.Fatalf("fresh session rejected: %v", err)
	}
	clock.advance(2*time.Minute + time.Second)
	if err := submit(grant); !errors.Is(err, ErrSessionExpired) {
		t.Fatalf("idle session = %v, want ErrSessionExpired", err)
	}
	// Once evicted, the token no longer exists.
	if err := submit(grant); !errors.Is(err, ErrNoSession) {
		t.Fatalf("evicted token = %v, want ErrNoSession", err)
	}

	// Steady use keeps a session alive until the hard TTL.
	grant = openSession(t, mgr, ps["alice"])
	for i := 0; i < 6; i++ {
		clock.advance(90 * time.Second) // under the idle window each step
		if err := submit(grant); err != nil {
			t.Fatalf("active session rejected at step %d: %v", i, err)
		}
	}
	clock.advance(90 * time.Second) // 10.5m total: past the hard TTL
	if err := submit(grant); !errors.Is(err, ErrSessionExpired) {
		t.Fatalf("session past TTL = %v, want ErrSessionExpired", err)
	}

	// Close ends a live session immediately.
	grant = openSession(t, mgr, ps["alice"])
	mgr.close(grant.Token)
	if err := submit(grant); !errors.Is(err, ErrNoSession) {
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
			if _, err := tc.cfg.build(testEnv(t), nil); !errors.Is(err, ErrBadConfig) {
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
		if _, err := ok.build(testEnv(t), nil); err != nil {
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
	enc, err := newCachedEncrypt(dir, 5*time.Minute, clock.now)
	if err != nil {
		t.Fatal(err)
	}
	sink := &accept{}
	chain := newChain(sink.handler, enc)
	seal := func() Envelope {
		t.Helper()
		req := &Request{Channel: "deals", Principal: "alice", Payload: []byte("10 tons of steel")}
		req.authenticated = true // stage under test is encrypt, not authn
		if err := chain.execute(context.Background(), req); err != nil {
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
	if !bytes.Equal(e1.Wraps, e2.Wraps) {
		t.Fatal("members re-wrapped within one epoch")
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
	if got := enc.epoch("deals"); got != 3 {
		t.Fatalf("Epoch() = %d, want 3", got)
	}
}

// sessionChainConfig is the dual-path pipeline the session tests drive
// through ServeWire: session-or-authn, cached envelope encryption, audit.
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
	w := frontOf(gw)

	grant, err := w.openAt(ps["alice"], clock.now())
	if err != nil {
		t.Fatalf("open session over the wire: %v", err)
	}
	if mgr := gw.Sessions(); mgr == nil || mgr.Len() != 1 {
		t.Fatalf("gateway session manager not holding the session")
	}

	// Token-bound submissions carry no certificate at all.
	for i := 0; i < 3; i++ {
		req := sessionRequest(ps["alice"], grant, "deals", []byte(fmt.Sprintf("trade-%d", i)))
		if _, err := w.submit(req); err != nil {
			t.Fatalf("session submit %d: %v", i, err)
		}
	}
	if stats := gw.Stats(); stats.Ordered != 3 || stats.Rejected != 0 {
		t.Fatalf("stats = %+v, want 3 ordered / 0 rejected", stats)
	}

	// A forged token is rejected with the distinct no-session error.
	forged := sessionRequest(ps["alice"], SessionGrant{Token: "feedfacefeedface"}, "deals", []byte("x"))
	if _, err := w.submit(forged); !errors.Is(err, ErrNoSession) {
		t.Fatalf("forged token = %v, want ErrNoSession", err)
	}

	// An expired session is rejected with the distinct expiry error.
	clock.advance(11 * time.Minute)
	expired := sessionRequest(ps["alice"], grant, "deals", []byte("x"))
	if _, err := w.submit(expired); !errors.Is(err, ErrSessionExpired) {
		t.Fatalf("expired session = %v, want ErrSessionExpired", err)
	}

	// Close, then the token is gone.
	grant2, err := w.openAt(ps["bob"], clock.now())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.close(grant2.Token); err != nil {
		t.Fatalf("close session: %v", err)
	}
	closed := sessionRequest(ps["bob"], grant2, "deals", []byte("x"))
	if _, err := w.submit(closed); !errors.Is(err, ErrNoSession) {
		t.Fatalf("closed session = %v, want ErrNoSession", err)
	}

	// The session path leaks nothing new: the operator saw metadata and
	// identity, never transaction data.
	if log.SawAny("gateway-op", audit.ClassTxData) {
		t.Fatal("gateway operator observed transaction data on the session path")
	}
}

// countingOrderer accepts every submission and counts them.
type countingOrderer struct {
	mu      sync.Mutex
	submits int
}

func (o *countingOrderer) Submit(tx ledger.Transaction) error {
	o.mu.Lock()
	o.submits++
	o.mu.Unlock()
	return nil
}

func (o *countingOrderer) Subscribe(channel string, deliver ordering.DeliverFunc) {}

func (o *countingOrderer) Operators() []string { return []string{"counting"} }

func (o *countingOrderer) count() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.submits
}

// TestServeWirePlumbsCallerContext: ServeWire runs the chain under the
// caller's context, as the edge's serving context reaches every request.
// A test-local stage refuses a request whose context has ended.
func TestServeWirePlumbsCallerContext(t *testing.T) {
	const probe = "ctxprobe"
	if err := registerStage(stageDef{name: probe, build: func(*params, StageConfig, Env) (Stage, error) {
		return &fnStage{name: probe, fn: func(ctx context.Context, req *Request, next Handler) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			return next(ctx, req)
		}}, nil
	}}); err != nil {
		t.Fatal(err)
	}
	defer removeStage(probe)
	build := func(orderer ordering.Backend) *Gateway {
		t.Helper()
		gw, err := NewGateway("gw", Config{Stages: []StageConfig{{Name: probe}}}, Env{}, orderer)
		if err != nil {
			t.Fatal(err)
		}
		return gw
	}

	// A live caller context reaches the orderer.
	live := &countingOrderer{}
	req := &Request{Channel: "deals", Principal: "alice", Payload: []byte("x")}
	if _, err := frontOf(build(live)).submit(req); err != nil {
		t.Fatalf("live context submit = %v, want success", err)
	}
	if live.count() != 1 {
		t.Fatalf("submissions under live context = %d, want 1", live.count())
	}

	// A canceled caller context reaches the chain: the stage sees it and
	// nothing is ordered.
	canceled := &countingOrderer{}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (wireFront{gw: build(canceled), ctx: ctx}).submit(req); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled context submit = %v, want context.Canceled", err)
	}
	if canceled.count() != 0 {
		t.Fatalf("submissions under canceled context = %d, want 0", canceled.count())
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
	if _, err := frontOf(gw).submit(req); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if got := sink.count(); got != 1 {
		t.Fatalf("backend committed %d txs after double Bind, want 1", got)
	}
	if got := len(gw.backends["deals"]); got != 1 {
		t.Fatalf("%d adapters bound, want 1", got)
	}
}

func TestRateLimitEvictsIdleBuckets(t *testing.T) {
	clock := newFakeClock()
	rl, err := newRateLimit(1, 2, clock.now) // refill window: 2s
	if err != nil {
		t.Fatal(err)
	}
	chain := newChain((&accept{}).handler, rl)
	submit := func(who string) error {
		return chain.execute(context.Background(), &Request{Channel: "deals", Principal: who})
	}
	for i := 0; i < 100; i++ {
		if err := submit(fmt.Sprintf("principal-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(rl.buckets); got != 100 {
		t.Fatalf("buckets = %d, want 100", got)
	}
	// Everyone goes idle past the refill window; the next submission
	// sweeps the table down to its own bucket.
	clock.advance(3 * time.Second)
	if err := submit("principal-0"); err != nil {
		t.Fatal(err)
	}
	if got := len(rl.buckets); got != 1 {
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
	b, err := newBatch(2)
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
	chain := newChain(terminal, b)

	// First request buffered and acknowledged under its own context.
	if err := chain.execute(context.Background(), &Request{
		Channel: "c", Principal: "p", Payload: []byte{0},
	}); err != nil {
		t.Fatalf("buffered submit: %v", err)
	}
	// The filling request arrives with an already-canceled context (its
	// client gave up). The acked member must still be delivered cleanly.
	ctx := context.WithValue(context.Background(), ctxKey("tenant"), "acme")
	ctx, cancel := context.WithCancel(ctx)
	cancel()
	if err := chain.execute(ctx, &Request{
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
	// The detached context is reused only under the parent it was made
	// from: each group below sees its own filler's value. Two contexts of a
	// type == cannot compare are never taken for one another (nor compared:
	// it would panic).
	for i, tenant := range []string{"globex", "initech", "umbrella"} {
		ctx := context.WithValue(context.Background(), ctxKey("tenant"), tenant)
		if i >= 1 {
			ctx = uncomparableCtx{Context: ctx}
		}
		for n := 0; n < 2; n++ {
			if err := chain.execute(ctx, &Request{Channel: "c", Principal: "p", Payload: []byte{byte(2 + 2*i + n)}}); err != nil {
				t.Fatal(err)
			}
		}
		if last := got[len(got)-1]; last.val != tenant {
			t.Fatalf("group %d, filled under %q, released under %v", i, tenant, last.val)
		}
	}
	// Nor are two contexts of a zero-size type == cannot compare.
	for g := 0; g < 2; g++ {
		for n := 0; n < 2; n++ {
			if err := chain.execute(zeroSizeUncomparableCtx{}, &Request{Channel: "c", Principal: "p", Payload: []byte{byte(8 + 2*g + n)}}); err != nil {
				t.Fatal(err)
			}
		}
		if last := got[len(got)-1]; last.val != "zero" {
			t.Fatalf("zero-size group %d released under %v", g, last.val)
		}
	}
}

// uncomparableCtx is a context of a type whose values == cannot compare.
type uncomparableCtx struct {
	context.Context
	_ []byte
}

// zeroSizeUncomparableCtx is a context of a type of size zero whose values
// == cannot compare; its tenant is "zero".
type zeroSizeUncomparableCtx struct{ _ [0]func() }

func (zeroSizeUncomparableCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (zeroSizeUncomparableCtx) Done() <-chan struct{}       { return nil }
func (zeroSizeUncomparableCtx) Err() error                  { return nil }
func (zeroSizeUncomparableCtx) Value(key any) any {
	if key == ctxKey("tenant") {
		return "zero"
	}
	return nil
}

func TestBreakerStateSeesChannelCircuits(t *testing.T) {
	clock := newFakeClock()
	br, err := newBreaker(2, time.Second, clock.now)
	if err != nil {
		t.Fatal(err)
	}
	down := func(ctx context.Context, req *Request) error { return errors.New("down") }
	chain := newChain(down, br)
	// Requests with no Backend share the per-channel circuit.
	for i := 0; i < 2; i++ {
		if err := chain.execute(context.Background(), &Request{Channel: "deals", Principal: "p"}); err == nil {
			t.Fatal("failing handler reported success")
		}
	}
	if got := br.state("deals"); got != "open" {
		t.Fatalf("State(channel) = %s, want open (must resolve the channel-keyed circuit)", got)
	}
	// An explicit backend key still resolves directly.
	if got := br.state("fabric"); got != "closed" {
		t.Fatalf("State(unknown backend) = %s, want closed", got)
	}
}

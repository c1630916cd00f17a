package middleware

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/pki"
)

// fakeClock is a settable time source for rate-limit and breaker tests.
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

// signedRequest builds a signed request for a principal.
func signedRequest(t testing.TB, p *principal, channel string, payload []byte) *Request {
	t.Helper()
	req := &Request{
		Channel:   channel,
		Principal: p.name,
		Payload:   payload,
		Cert:      p.cert,
	}
	if err := SignRequest(req, p.key); err != nil {
		t.Fatalf("SignRequest: %v", err)
	}
	return req
}

// accept is a terminal handler recording the requests that reached it.
type accept struct {
	mu   sync.Mutex
	seen []*Request
}

func (a *accept) handler(ctx context.Context, req *Request) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.seen = append(a.seen, req)
	return nil
}

func (a *accept) count() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.seen)
}

func TestAuthnVerifiesSubmitter(t *testing.T) {
	ca, ps := enroll(t, "alice", "bob")
	sink := &accept{}
	chain := NewChain(sink.handler, NewAuthn(ca.PublicKey(), nil))

	req := signedRequest(t, ps["alice"], "deals", []byte("trade"))
	if err := chain.Execute(context.Background(), req); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	if !req.Authenticated() {
		t.Fatal("request not marked authenticated")
	}

	// Tampered payload: signature no longer covers the content.
	tampered := signedRequest(t, ps["alice"], "deals", []byte("trade"))
	tampered.Payload = []byte("tampered")
	if err := chain.Execute(context.Background(), tampered); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("tampered payload = %v, want ErrBadSignature", err)
	}

	// Bob's certificate on a request claiming to be alice.
	spoofed := signedRequest(t, ps["bob"], "deals", []byte("trade"))
	spoofed.Principal = "alice"
	if err := SignRequest(spoofed, ps["bob"].key); err != nil {
		t.Fatal(err)
	}
	if err := chain.Execute(context.Background(), spoofed); !errors.Is(err, ErrIdentityMismatch) {
		t.Fatalf("spoofed principal = %v, want ErrIdentityMismatch", err)
	}

	// Certificate from a different CA.
	otherCA, others := enroll(t, "alice")
	_ = otherCA
	foreign := signedRequest(t, others["alice"], "deals", []byte("trade"))
	if err := chain.Execute(context.Background(), foreign); !errors.Is(err, pki.ErrBadCertificate) {
		t.Fatalf("foreign cert = %v, want ErrBadCertificate", err)
	}
	if sink.count() != 1 {
		t.Fatalf("terminal saw %d requests, want 1", sink.count())
	}
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
	// Carol cannot use bob's slot either.
	if _, err := OpenEnvelope(env, "bob", ps["carol"].key); err == nil {
		t.Fatal("wrong key must not open the envelope")
	}
}

func TestEncryptRequiresAuthn(t *testing.T) {
	_, ps := enroll(t, "alice")
	dir := StaticDirectory{"deals": {"alice": ps["alice"].key.Public()}}
	enc, err := NewEncrypt(dir)
	if err != nil {
		t.Fatal(err)
	}
	chain := NewChain((&accept{}).handler, enc)
	req := signedRequest(t, ps["alice"], "deals", []byte("secret"))
	if err := chain.Execute(context.Background(), req); !errors.Is(err, ErrNotAuthenticated) {
		t.Fatalf("encrypt without authn = %v, want ErrNotAuthenticated", err)
	}
}

func TestAuditRecordsLeakage(t *testing.T) {
	ca, ps := enroll(t, "alice")
	log := audit.NewLog()
	dir := StaticDirectory{"deals": {"alice": ps["alice"].key.Public()}}

	cfg := Config{Stages: []StageConfig{
		{Name: StageAuthn},
		{Name: StageEncrypt},
		{Name: StageAudit, Params: map[string]string{"observer": "gw-op"}},
	}}
	chain, err := cfg.Build(Env{CAKey: ca.PublicKey(), Directory: dir, Log: log}, (&accept{}).handler)
	if err != nil {
		t.Fatal(err)
	}
	req := signedRequest(t, ps["alice"], "deals", []byte("secret"))
	if err := chain.Execute(context.Background(), req); err != nil {
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
		{Name: StageAuthn},
		{Name: StageAudit, Params: map[string]string{"observer": "leaky-op"}},
	}}
	lchain, err := leaky.Build(Env{CAKey: ca.PublicKey(), Log: log}, (&accept{}).handler)
	if err != nil {
		t.Fatal(err)
	}
	if err := lchain.Execute(context.Background(), signedRequest(t, ps["alice"], "deals", []byte("secret"))); err != nil {
		t.Fatal(err)
	}
	if !log.SawAny("leaky-op", audit.ClassTxData) {
		t.Fatal("plaintext pipeline must show a tx-data observation")
	}
}

func TestRateLimitPerPrincipal(t *testing.T) {
	clock := newFakeClock()
	rl, err := NewRateLimit(1, 2, clock.now)
	if err != nil {
		t.Fatal(err)
	}
	sink := &accept{}
	chain := NewChain(sink.handler, rl)
	submit := func(who string) error {
		return chain.Execute(context.Background(), &Request{Channel: "deals", Principal: who})
	}

	// Burst of 2, then limited.
	for i := 0; i < 2; i++ {
		if err := submit("alice"); err != nil {
			t.Fatalf("burst submit %d: %v", i, err)
		}
	}
	if err := submit("alice"); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("exhausted bucket = %v, want ErrRateLimited", err)
	}
	// Buckets are per principal: bob is unaffected.
	if err := submit("bob"); err != nil {
		t.Fatalf("bob limited by alice's bucket: %v", err)
	}
	// One token per second refills.
	clock.advance(1 * time.Second)
	if err := submit("alice"); err != nil {
		t.Fatalf("refilled bucket rejected: %v", err)
	}
	if err := submit("alice"); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("single refilled token reused = %v, want ErrRateLimited", err)
	}
}

func TestRetryOnTransientErrors(t *testing.T) {
	var attempts int
	var slept []time.Duration
	retry, err := NewRetry(3, 10*time.Millisecond, func(d time.Duration) { slept = append(slept, d) })
	if err != nil {
		t.Fatal(err)
	}
	flaky := func(ctx context.Context, req *Request) error {
		attempts++
		if attempts < 3 {
			return fmt.Errorf("partition: %w", ErrTransient)
		}
		return nil
	}
	chain := NewChain(flaky, retry)
	if err := chain.Execute(context.Background(), &Request{Channel: "c", Principal: "p"}); err != nil {
		t.Fatalf("retryable flow failed: %v", err)
	}
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3", attempts)
	}
	if len(slept) != 2 || slept[0] != 10*time.Millisecond || slept[1] != 20*time.Millisecond {
		t.Fatalf("backoff schedule = %v, want [10ms 20ms]", slept)
	}

	// Permanent errors are not retried.
	attempts = 0
	permanent := func(ctx context.Context, req *Request) error {
		attempts++
		return ErrRateLimited
	}
	chain = NewChain(permanent, mustRetry(t))
	if err := chain.Execute(context.Background(), &Request{Channel: "c", Principal: "p"}); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("permanent error = %v, want ErrRateLimited", err)
	}
	if attempts != 1 {
		t.Fatalf("permanent error retried %d times", attempts)
	}

	// Exhausted transient attempts surface the underlying error.
	attempts = 0
	alwaysDown := func(ctx context.Context, req *Request) error {
		attempts++
		return fmt.Errorf("still down: %w", ErrTransient)
	}
	chain = NewChain(alwaysDown, mustRetry(t))
	if err := chain.Execute(context.Background(), &Request{Channel: "c", Principal: "p"}); !IsTransient(err) {
		t.Fatalf("exhausted retries = %v, want transient", err)
	}
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3", attempts)
	}
}

func mustRetry(t *testing.T) *Retry {
	t.Helper()
	r, err := NewRetry(3, 0, func(time.Duration) {})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestBreakerTripsAndRecovers(t *testing.T) {
	clock := newFakeClock()
	br, err := NewBreaker(2, time.Second, clock.now)
	if err != nil {
		t.Fatal(err)
	}
	var healthy bool
	backend := func(ctx context.Context, req *Request) error {
		if healthy {
			return nil
		}
		return errors.New("backend down")
	}
	chain := NewChain(backend, br)
	req := func() *Request { return &Request{Channel: "deals", Principal: "p", Backend: "fabric"} }

	// Two consecutive failures trip the circuit.
	for i := 0; i < 2; i++ {
		if err := chain.Execute(context.Background(), req()); err == nil {
			t.Fatal("failing backend reported success")
		}
	}
	if got := br.State("fabric"); got != "open" {
		t.Fatalf("state = %s, want open", got)
	}
	// While open: fail fast without touching the backend.
	if err := chain.Execute(context.Background(), req()); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open circuit = %v, want ErrCircuitOpen", err)
	}
	// After cooldown a probe goes through; backend still down reopens.
	clock.advance(time.Second)
	if err := chain.Execute(context.Background(), req()); errors.Is(err, ErrCircuitOpen) {
		t.Fatal("probe after cooldown was not admitted")
	}
	if got := br.State("fabric"); got != "open" {
		t.Fatalf("state after failed probe = %s, want open", got)
	}
	// Backend recovers: next probe closes the circuit.
	healthy = true
	clock.advance(time.Second)
	if err := chain.Execute(context.Background(), req()); err != nil {
		t.Fatalf("probe against healthy backend: %v", err)
	}
	if got := br.State("fabric"); got != "closed" {
		t.Fatalf("state after recovery = %s, want closed", got)
	}
	// Circuits are per backend: corda was never affected.
	if got := br.State("corda"); got != "closed" {
		t.Fatalf("unrelated backend state = %s, want closed", got)
	}
}

func TestBatchAggregatesAndFlushes(t *testing.T) {
	b, err := NewBatch(3)
	if err != nil {
		t.Fatal(err)
	}
	sink := &accept{}
	chain := NewChain(sink.handler, b)
	// Every submission borrows the one buffer, as a stream transport's read
	// loop lends its frame: the stage must hold its own copy.
	buf := make([]byte, 1)
	submit := func(i int) error {
		buf[0] = byte(i)
		return chain.Execute(context.Background(), &Request{
			Channel: "deals", Principal: "p", Payload: buf,
		})
	}
	for i := 0; i < 2; i++ {
		if err := submit(i); err != nil {
			t.Fatalf("buffered submit %d: %v", i, err)
		}
	}
	if sink.count() != 0 || b.Pending() != 2 {
		t.Fatalf("terminal=%d pending=%d, want 0/2 before the batch fills", sink.count(), b.Pending())
	}
	// Third submission releases the whole group in order.
	if err := submit(2); err != nil {
		t.Fatalf("filling submit: %v", err)
	}
	if sink.count() != 3 || b.Pending() != 0 {
		t.Fatalf("terminal=%d pending=%d, want 3/0 after release", sink.count(), b.Pending())
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
	b, err := NewBatch(3)
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
	chain := NewChain(terminal, b)
	for i := 0; i < 2; i++ {
		if err := chain.Execute(context.Background(), &Request{
			Channel: "c", Principal: "p", Payload: []byte{byte(i)},
		}); err != nil {
			t.Fatalf("buffered submit %d: %v", i, err)
		}
	}
	// The filling submission sees the failure, but the rest of the group
	// — already acknowledged to their submitters — still gets delivered.
	err = chain.Execute(context.Background(), &Request{
		Channel: "c", Principal: "p", Payload: []byte{2},
	})
	if err == nil {
		t.Fatal("release failure not surfaced")
	}
	if len(attempted) != 3 {
		t.Fatalf("delivery attempted for %d of 3 buffered requests (%v)", len(attempted), attempted)
	}
}

func TestRetryDoesNotReplayBatchRelease(t *testing.T) {
	retry := mustRetry(t)
	b, err := NewBatch(2)
	if err != nil {
		t.Fatal(err)
	}
	orders := make(map[byte]int)
	terminal := func(ctx context.Context, req *Request) error {
		orders[req.Payload[0]]++
		if req.Payload[0] == 0 {
			return fmt.Errorf("partition: %w", ErrTransient)
		}
		return nil
	}
	chain := NewChain(terminal, retry, b)
	if err := chain.Execute(context.Background(), &Request{
		Channel: "c", Principal: "p", Payload: []byte{0},
	}); err != nil {
		t.Fatalf("buffered submit: %v", err)
	}
	err = chain.Execute(context.Background(), &Request{
		Channel: "c", Principal: "p", Payload: []byte{1},
	})
	// The release failure is permanent: retry must not re-run the batch
	// stage, which would re-buffer the filling request and double-order
	// the member that committed.
	if !errors.Is(err, ErrBatchRelease) {
		t.Fatalf("filling submit = %v, want ErrBatchRelease", err)
	}
	if IsTransient(err) {
		t.Fatal("batch release error must not be transient")
	}
	if orders[0] != 1 || orders[1] != 1 {
		t.Fatalf("delivery counts = %v, want one attempt each", orders)
	}
	if b.Pending() != 0 {
		t.Fatalf("pending = %d after release, want 0", b.Pending())
	}
}

func TestBreakerIgnoresStaleSuccess(t *testing.T) {
	clock := newFakeClock()
	br, err := NewBreaker(2, time.Second, clock.now)
	if err != nil {
		t.Fatal(err)
	}
	var chain *Chain
	// The terminal handler for the first ("slow") request trips the
	// circuit with two failing requests while it is still in flight,
	// then reports its own success.
	first := true
	terminal := func(ctx context.Context, req *Request) error {
		if !first {
			return errors.New("backend down")
		}
		first = false
		for i := 0; i < 2; i++ {
			if err := chain.Execute(context.Background(), &Request{
				Channel: "c", Principal: "p", Backend: "fabric",
			}); err == nil {
				return errors.New("tripping request unexpectedly succeeded")
			}
		}
		return nil
	}
	chain = NewChain(terminal, br)
	if err := chain.Execute(context.Background(), &Request{
		Channel: "c", Principal: "p", Backend: "fabric",
	}); err != nil {
		t.Fatalf("slow request: %v", err)
	}
	// The slow request's success predates the trip: the circuit must
	// still be open and honouring its cooldown.
	if got := br.State("fabric"); got != "open" {
		t.Fatalf("state after stale success = %s, want open", got)
	}
	if err := chain.Execute(context.Background(), &Request{
		Channel: "c", Principal: "p", Backend: "fabric",
	}); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("request during cooldown = %v, want ErrCircuitOpen", err)
	}
}

func TestChainStats(t *testing.T) {
	clock := newFakeClock()
	rl, err := NewRateLimit(1, 1, clock.now)
	if err != nil {
		t.Fatal(err)
	}
	chain := NewChain((&accept{}).handler, rl)
	_ = chain.Execute(context.Background(), &Request{Channel: "c", Principal: "a"})
	_ = chain.Execute(context.Background(), &Request{Channel: "c", Principal: "a"}) // limited
	stats := chain.Stats()
	if len(stats) != 1 || stats[0].Name != StageRateLimit {
		t.Fatalf("stats = %+v", stats)
	}
	if stats[0].Calls != 2 || stats[0].Errors != 1 {
		t.Fatalf("calls=%d errors=%d, want 2/1", stats[0].Calls, stats[0].Errors)
	}
}

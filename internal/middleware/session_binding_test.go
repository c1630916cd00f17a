package middleware

import (
	"errors"
	"testing"
	"time"

	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/pki"
)

// bindingFixture is a manager plus an enrolled principal ready to open
// sessions.
type bindingFixture struct {
	mgr  *SessionManager
	cert pki.Certificate
	key  *dcrypto.PrivateKey
}

func newBindingFixture(t *testing.T) *bindingFixture {
	t.Helper()
	ca, err := pki.NewCA("bind-ca")
	if err != nil {
		t.Fatal(err)
	}
	key, err := dcrypto.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	cert, err := ca.Enroll("alice", key.Public())
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := NewSessionManager(ca.PublicKey(), time.Hour, time.Hour, time.Now)
	if err != nil {
		t.Fatal(err)
	}
	return &bindingFixture{mgr: mgr, cert: cert, key: key}
}

func (f *bindingFixture) open(t *testing.T, transportID string) SessionGrant {
	t.Helper()
	hello, err := NewSessionHello("alice", f.cert, f.key)
	if err != nil {
		t.Fatal(err)
	}
	grant, err := f.mgr.OpenBound(hello, transportID)
	if err != nil {
		t.Fatal(err)
	}
	return grant
}

// TestSessionTransportBinding pins the resolve-side contract: a bound
// token resolves only over its own transport — any other identity,
// including the empty in-process one, gets ErrSessionBound — while
// unbound tokens resolve from anywhere.
func TestSessionTransportBinding(t *testing.T) {
	f := newBindingFixture(t)
	bound := f.open(t, "tcp:1:peer")
	if _, _, _, err := f.mgr.resolve(bound.Token, "tcp:1:peer"); err != nil {
		t.Fatalf("resolve on home transport: %v", err)
	}
	if _, _, _, err := f.mgr.resolve(bound.Token, "tcp:2:other"); !errors.Is(err, ErrSessionBound) {
		t.Fatalf("cross-transport resolve: got %v, want ErrSessionBound", err)
	}
	if _, _, _, err := f.mgr.resolve(bound.Token, ""); !errors.Is(err, ErrSessionBound) {
		t.Fatalf("transport-less resolve of bound token: got %v, want ErrSessionBound", err)
	}
	// A binding rejection is not a kill: the home transport still works.
	if _, _, _, err := f.mgr.resolve(bound.Token, "tcp:1:peer"); err != nil {
		t.Fatalf("home transport after replay attempt: %v", err)
	}

	unbound := f.open(t, "")
	for _, id := range []string{"", "tcp:3:any"} {
		if _, _, _, err := f.mgr.resolve(unbound.Token, id); err != nil {
			t.Fatalf("unbound resolve over %q: %v", id, err)
		}
	}

	// Closing follows the same rule: only the home transport ends a bound
	// session, an unbound one closes from anywhere, and the programmatic
	// Close asks no questions.
	for _, id := range []string{"tcp:2:other", ""} {
		if err := f.mgr.CloseFrom(bound.Token, id); !errors.Is(err, ErrSessionBound) {
			t.Fatalf("cross-transport close over %q: got %v, want ErrSessionBound", id, err)
		}
		if _, _, _, err := f.mgr.resolve(bound.Token, "tcp:1:peer"); err != nil {
			t.Fatalf("session killed by a close from %q: %v", id, err)
		}
	}
	if err := f.mgr.CloseFrom(bound.Token, "tcp:1:peer"); err != nil {
		t.Fatalf("close on home transport: %v", err)
	}
	if err := f.mgr.CloseFrom(unbound.Token, "tcp:3:any"); err != nil {
		t.Fatalf("close of an unbound session: %v", err)
	}
	for _, token := range []string{bound.Token, unbound.Token} {
		if _, _, _, err := f.mgr.resolve(token, "tcp:1:peer"); !errors.Is(err, ErrNoSession) {
			t.Fatalf("closed session resolves: %v", err)
		}
	}
	rebound := f.open(t, "tcp:1:peer")
	f.mgr.Close(rebound.Token)
	if _, _, _, err := f.mgr.resolve(rebound.Token, "tcp:1:peer"); !errors.Is(err, ErrNoSession) {
		t.Fatalf("programmatic Close left a bound session live: %v", err)
	}
}

// TestEvictTransport pins the teardown contract: a dead connection's
// sessions all die with it, other transports' sessions survive, and the
// eviction shows in stats.
func TestEvictTransport(t *testing.T) {
	f := newBindingFixture(t)
	a1 := f.open(t, "tcp:1:peer")
	a2 := f.open(t, "tcp:1:peer")
	b := f.open(t, "tcp:2:other")

	if n := f.mgr.EvictTransport("tcp:9:unknown"); n != 0 {
		t.Fatalf("evicting unknown transport reaped %d sessions", n)
	}
	if n := f.mgr.EvictTransport("tcp:1:peer"); n != 2 {
		t.Fatalf("EvictTransport = %d, want 2", n)
	}
	for _, token := range []string{a1.Token, a2.Token} {
		if _, _, _, err := f.mgr.resolve(token, "tcp:1:peer"); err == nil {
			t.Fatal("evicted session still resolves")
		}
	}
	if _, _, _, err := f.mgr.resolve(b.Token, "tcp:2:other"); err != nil {
		t.Fatalf("unrelated transport's session evicted too: %v", err)
	}
	// Idempotent: the transport's index entry is gone.
	if n := f.mgr.EvictTransport("tcp:1:peer"); n != 0 {
		t.Fatalf("second eviction reaped %d sessions", n)
	}
	st := f.mgr.Stats()
	if st.Evicted != 2 || st.Live != 1 {
		t.Fatalf("stats after eviction: %+v", st)
	}
	// Closing the surviving bound session prunes the transport index via
	// the same path; nothing left to evict afterwards.
	f.mgr.Close(b.Token)
	if n := f.mgr.EvictTransport("tcp:2:other"); n != 0 {
		t.Fatalf("closed session still indexed by transport: %d", n)
	}
}

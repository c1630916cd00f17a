package middleware

import (
	"errors"
	"testing"
	"time"
)

// TestCapEvictsASessionInUse answers whether the per-principal cap can take
// a session away from a visit that is still using it. It replays, in a fixed
// order and on a fake clock, what session_churn's workers do for one
// principal: a visit opens a session, submits on it and closes it, or, for
// every other visit of half the principals there, walks away without
// closing. Visit A opens and submits once, then stalls (its worker is
// descheduled); meanwhile five later visits of the same principal run to
// completion, three of them abandoning their sessions; the sixth opens.
//
// It does: with the cap at 4, the sixth open finds A's session and the three
// abandoned ones, and evicts A's, the one opened longest ago, while the
// abandoned sessions, which nobody will use again, survive. A's next
// submission meets ErrNoSession, "unknown session token". Ordering by last
// use instead would pick A's session too: a stalled visit's session is also
// the least recently used. To the manager, a stalled visit and an abandoned
// one are both idle sessions of the principal, so no eviction order tells
// them apart; only refusing the open would keep A's session, at the price of
// blocking the principal until its abandoned sessions idle out.
func TestCapEvictsASessionInUse(t *testing.T) {
	clock := newFakeClock()
	ca, people := enrollAt(t, clock.now, "Alice")
	alice := people["Alice"]
	mgr, err := NewSessionManager(ca.PublicKey(), time.Hour, time.Hour, clock.now, WithMaxPerPrincipal(4))
	if err != nil {
		t.Fatal(err)
	}
	use := func(g SessionGrant) error {
		clock.advance(time.Millisecond)
		_, _, err := mgr.resolve(g.Token, "")
		return err
	}
	visit := func() SessionGrant {
		clock.advance(time.Millisecond)
		g := openSession(t, mgr, alice)
		if err := use(g); err != nil {
			t.Fatalf("a fresh session: %v", err)
		}
		return g
	}

	a := visit() // visit A: open, first submission, then it stalls
	var abandoned []SessionGrant
	for i := 1; i <= 5; i++ {
		g := visit()
		if i%2 == 1 {
			abandoned = append(abandoned, g) // walks away
			continue
		}
		mgr.Close(g.Token)
	}
	session := func(g SessionGrant) *session {
		key, ok := parseSessionKey(g.Token)
		if !ok {
			t.Fatalf("grant token %q is not a session key's hex", g.Token)
		}
		st := mgr.stripe(&key)
		st.mu.RLock()
		defer st.mu.RUnlock()
		return st.sessions[key]
	}
	// A's session is the principal's oldest and its least recently used:
	// ordering evictions by last use would pick it as well.
	for i, g := range abandoned {
		if s := session(g); s.lastUsed.Load() <= session(a).lastUsed.Load() {
			t.Fatalf("abandoned session %d was used no later than visit A's", i)
		}
	}

	clock.advance(time.Millisecond)
	sixth := openSession(t, mgr, alice)
	if err := use(a); !errors.Is(err, ErrNoSession) {
		t.Fatalf("visit A's next submission: %v, want ErrNoSession: the cap evicted a session in use", err)
	}
	if got := mgr.Stats().Evicted; got != 1 {
		t.Fatalf("%d cap evictions, want 1", got)
	}
	for i, g := range append(abandoned, sixth) {
		if session(g) == nil {
			t.Fatalf("session %d (abandoned, or the sixth) was evicted instead", i)
		}
	}
}

package middleware

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"sync"
	"testing"
	"time"

	"dltprivacy/internal/dcrypto"
)

// TestEnvelopeKeyedEncodingIdentical proves the per-epoch precomputed frame
// head splices into byte-identical envelopes: the fast path (cached head,
// ciphertext field sealed in place) must not be able to drift from the
// canonical encoding the decoder (and every recorded envelope) depends on —
// and the hash it resumes from the cached state is the frame's SHA-256.
func TestEnvelopeKeyedEncodingIdentical(t *testing.T) {
	_, ps := enroll(t, "alice", "bob", "carol")
	dir := NewSyncDirectory()
	addMembers(dir, "deals", map[string]dcrypto.PublicKey{
		"alice": ps["alice"].key.Public(),
		"bob":   ps["bob"].key.Public(),
		"carol": ps["carol"].key.Public(),
	})
	enc, err := newCachedEncrypt(dir, time.Hour, nil)
	if err != nil {
		t.Fatalf("NewCachedEncrypt: %v", err)
	}
	ck, err := enc.channelKeyFor(&Request{}, "deals", dir.Generation())
	if err != nil {
		t.Fatalf("channelKeyFor: %v", err)
	}
	keyed, sum, err := ck.seal([][]byte{[]byte("10 tons of steel")})
	if err != nil {
		t.Fatalf("seal: %v", err)
	}
	if sum != sha256.Sum256(keyed) {
		t.Fatalf("resumed frame hash differs from SHA-256 of the frame")
	}
	back, err := ParseEnvelope(keyed)
	if err != nil {
		t.Fatalf("decode keyed envelope: %v", err)
	}
	if canonical := EncodeEnvelope(back); !bytes.Equal(canonical, keyed) {
		t.Fatalf("keyed encoding differs from canonical:\n  canonical %d bytes\n  keyed     %d bytes",
			len(canonical), len(keyed))
	}
	got, err := OpenEnvelope(back, "bob", ps["bob"].key)
	if err != nil {
		t.Fatalf("OpenEnvelope: %v", err)
	}
	if string(got) != "10 tons of steel" {
		t.Fatalf("payload = %q", got)
	}
}

// TestEncryptRotationSingleFlight hits a cold channel with many
// concurrent seals and requires exactly one epoch install: rotation is
// single-flighted, so a thundering herd (every edge connection's first
// submission after a key expiry) costs one O(members) wrap, not one per
// caller.
func TestEncryptRotationSingleFlight(t *testing.T) {
	_, ps := enroll(t, "alice", "bob", "carol")
	dir := NewSyncDirectory()
	addMembers(dir, "deals", map[string]dcrypto.PublicKey{
		"alice": ps["alice"].key.Public(),
		"bob":   ps["bob"].key.Public(),
		"carol": ps["carol"].key.Public(),
	})
	enc, err := newCachedEncrypt(dir, time.Hour, nil)
	if err != nil {
		t.Fatalf("NewCachedEncrypt: %v", err)
	}
	const callers = 32
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := &Request{Channel: "deals", Principal: "alice",
				Payload: []byte("x"), authenticated: true}
			errs <- enc.Handle(context.Background(), req,
				func(context.Context, *Request) error { return nil })
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("Handle: %v", err)
		}
	}
	if got := enc.rotationCount(); got != 1 {
		t.Fatalf("rotations = %d, want 1 (cold-channel herd must single-flight the wrap)", got)
	}
}

// TestSessionOpenSweepThrottled verifies the Open-path sweep is interval
// bound — an open inside the throttle window must not walk the table —
// while expiry enforcement stays exact through resolve's lazy eviction.
func TestSessionOpenSweepThrottled(t *testing.T) {
	clock := newFakeClock()
	ca, ps := enrollAt(t, clock.now, "alice")
	mgr := mustManager(t, ca, 10*time.Minute, 5*time.Minute, clock.now)
	if mgr.sweepEvery != time.Second {
		t.Fatalf("sweepEvery = %v, want 1s (production windows cap at one second)", mgr.sweepEvery)
	}

	a := openSession(t, mgr, ps["alice"])
	clock.advance(6 * time.Minute) // a is now idle-expired but unswept
	mgr.mu.Lock()
	mgr.lastSweep = clock.now() // simulate a sweep that just ran
	mgr.mu.Unlock()

	openSession(t, mgr, ps["alice"])
	if got := mgr.Len(); got != 2 {
		t.Fatalf("sessions = %d, want 2 (open inside the throttle window must skip the sweep)", got)
	}
	// The throttle never weakens enforcement: resolving the stale token
	// still fails, and evicts it.
	if _, _, err := admitToken(mgr, a.Token, ""); !errors.Is(err, ErrSessionExpired) {
		t.Fatalf("stale resolve = %v, want ErrSessionExpired", err)
	}
	if got := mgr.Len(); got != 1 {
		t.Fatalf("sessions after stale resolve = %d, want 1 (lazy eviction)", got)
	}
	// Past the interval, the sweep runs again on open.
	clock.advance(2 * time.Second)
	openSession(t, mgr, ps["alice"])
	if got := mgr.Len(); got != 2 {
		t.Fatalf("sessions = %d, want 2", got)
	}
}

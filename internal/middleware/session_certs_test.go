package middleware

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math/big"
	"sync/atomic"
	"testing"
	"time"

	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/pki"
)

func mustHelloAt(t *testing.T, p *principal, at time.Time) SessionHello {
	t.Helper()
	hello, err := NewSessionHelloAt(p.name, p.cert, p.key, at)
	if err != nil {
		t.Fatal(err)
	}
	return hello
}

// TestSessionOpenVerifiesCertificateOnce: N handshakes with one certificate
// cost one CA signature check; each still proves possession of the
// certified key, cached certificate or not.
func TestSessionOpenVerifiesCertificateOnce(t *testing.T) {
	clock := newFakeClock()
	ca, ps := enrollAt(t, clock.now, "alice", "bob")
	mgr := mustManager(t, ca, 10*time.Minute, 2*time.Minute, clock.now)
	const opens = 12
	for i := 0; i < opens; i++ {
		openSession(t, mgr, ps["alice"])
	}
	st := mgr.Stats()
	if st.CertVerifications != 1 || st.CertCacheHits != opens-1 || st.Opened != opens {
		t.Fatalf("after %d opens: verifications %d, hits %d, opened %d; want 1, %d, %d",
			opens, st.CertVerifications, st.CertCacheHits, st.Opened, opens-1, opens)
	}

	// The cached certificate under somebody else's signature: the hello's
	// own check is not what the verifier remembers.
	stolen := mustHelloAt(t, ps["alice"], clock.now())
	d := helloDigest(stolen.Principal, stolen.Nonce, stolen.IssuedAt)
	var err error
	if stolen.Sig, err = ps["bob"].key.Sign(d[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Open(stolen); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("cached certificate, foreign hello signature = %v, want ErrBadSignature", err)
	}
	st = mgr.Stats()
	if st.CertVerifications != 1 || st.CertCacheHits != opens || st.Opened != opens {
		t.Fatalf("after the forged hello: verifications %d, hits %d, opened %d; want 1, %d, %d",
			st.CertVerifications, st.CertCacheHits, st.Opened, opens, opens)
	}

	// A certificate past its window is refused although the verifier knows
	// it: expiry is checked on every open.
	clock.advance(366 * 24 * time.Hour)
	if _, err := mgr.Open(mustHelloAt(t, ps["alice"], clock.now())); !errors.Is(err, pki.ErrExpired) {
		t.Fatalf("cached certificate past NotAfter = %v, want ErrExpired", err)
	}
}

// TestSessionReplayRefusedBeforeVerification: a replayed hello is refused
// from the nonce table alone — no certificate lookup, no signature check.
func TestSessionReplayRefusedBeforeVerification(t *testing.T) {
	clock := newFakeClock()
	ca, ps := enrollAt(t, clock.now, "alice")
	mgr := mustManager(t, ca, 10*time.Minute, 2*time.Minute, clock.now)
	hello := mustHelloAt(t, ps["alice"], clock.now())
	if _, err := mgr.Open(hello); err != nil {
		t.Fatalf("first open: %v", err)
	}
	before := mgr.Stats()
	// The replay's signature is irrelevant: it is never looked at.
	replay := hello
	replay.Sig = dcrypto.Signature{R: big.NewInt(1), S: big.NewInt(1)}
	for _, h := range []SessionHello{hello, replay} {
		if _, err := mgr.Open(h); !errors.Is(err, ErrReplayedHello) {
			t.Fatalf("replay = %v, want ErrReplayedHello", err)
		}
	}
	after := mgr.Stats()
	if after.CertVerifications != before.CertVerifications || after.CertCacheHits != before.CertCacheHits {
		t.Fatalf("a replay moved the verifier: verifications %d -> %d, hits %d -> %d",
			before.CertVerifications, after.CertVerifications, before.CertCacheHits, after.CertCacheHits)
	}
}

// TestSessionUnverifiedHelloPlantsNoNonce: only a hello that passed every
// check consumes its nonce. One with a garbage signature leaves the table
// alone, so it cannot burn the nonce of a hello still in flight.
func TestSessionUnverifiedHelloPlantsNoNonce(t *testing.T) {
	clock := newFakeClock()
	ca, ps := enrollAt(t, clock.now, "alice")
	mgr := mustManager(t, ca, 10*time.Minute, 2*time.Minute, clock.now)
	hello := mustHelloAt(t, ps["alice"], clock.now())
	garbage := hello
	garbage.Sig = dcrypto.Signature{R: big.NewInt(7), S: big.NewInt(11)}
	if _, err := mgr.Open(garbage); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("garbage signature = %v, want ErrBadSignature", err)
	}
	mgr.mu.Lock()
	_, planted := mgr.seenNonces[[helloNonceBytes]byte(hello.Nonce)]
	n := len(mgr.seenNonces)
	mgr.mu.Unlock()
	if planted || n != 0 {
		t.Fatalf("unverified hello left %d nonces (its own: %v), want none", n, planted)
	}
	if _, err := mgr.Open(hello); err != nil {
		t.Fatalf("the genuine hello with the same nonce: %v", err)
	}
}

// TestSessionHelloNonceLengthIsFixed: a hello's nonce is helloNonceBytes or
// the hello is refused before anything is verified or remembered. Taken at
// any length, a correctly tagged resume hello with a 4 KiB nonce parked its
// nonce in the table for 2×helloFreshness (a whole frame's worth, up to the
// edge's 1 MiB cap, per open); so did a signed full hello in process.
func TestSessionHelloNonceLengthIsFixed(t *testing.T) {
	f := newResumeFixture(t)
	nonces := func() int {
		f.mgr.mu.Lock()
		defer f.mgr.mu.Unlock()
		return len(f.mgr.seenNonces)
	}
	before, opened := nonces(), f.mgr.Stats().Opened
	huge := bytes.Repeat([]byte{0x5a}, 4096)

	// On the wire: tagged the way the parent's transcript read any nonce.
	held, at := f.held(t), f.clock.now()
	var when [8]byte
	binary.BigEndian.PutUint64(when[:], uint64(at.UnixNano()))
	digest := dcrypto.HashConcat([]byte(resumeDigestDomain), held.id[:], huge, when[:])
	tag := dcrypto.MAC(held.master, digest[:])
	if _, err := f.wire.roundTrip(context.Background(), rawResumeFrame(held.id, huge, at, tag[:])); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("resume hello with a 4 KiB nonce = %v, want ErrBadFrame", err)
	}

	// In process: a full hello signed over its 4 KiB nonce.
	hello := mustHelloAt(t, f.alice, at)
	hello.Nonce = huge
	d := helloDigest(hello.Principal, hello.Nonce, hello.IssuedAt)
	var err error
	if hello.Sig, err = f.alice.key.Sign(d[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := f.mgr.OpenBound(hello, "tcp:1:peer"); err == nil {
		t.Fatal("an in-process hello with a 4 KiB nonce opened a session")
	}
	if n, o := nonces(), f.mgr.Stats().Opened; n != before || o != opened {
		t.Fatalf("refused hellos: nonces %d -> %d, opened %d -> %d; want both unchanged", before, n, opened, o)
	}
	// The same hellos at the one length a gateway takes open sessions.
	if grant := f.open(t); !grant.Resumed {
		t.Fatal("the next resume hello did not resume")
	}
	if _, err := f.mgr.OpenBound(mustHelloAt(t, f.alice, at), "tcp:1:peer"); err != nil {
		t.Fatalf("a 16-byte-nonce hello: %v", err)
	}
}

// TestRevocationWithCachedCertificate: the verifier remembers a signature,
// never standing. A revoked certificate it knows opens nothing, and the
// session it rooted before the revocation dies as it always did.
func TestRevocationWithCachedCertificate(t *testing.T) {
	clock := newFakeClock()
	ca, ps, mgr := revocableManager(t, clock, RevokeCheckResolve, 0, "alice")
	alice := ps["alice"]
	live := openSession(t, mgr, alice)
	openSession(t, mgr, alice)
	if st := mgr.Stats(); st.CertVerifications != 1 || st.CertCacheHits != 1 {
		t.Fatalf("verifications %d, hits %d; want the certificate cached (1, 1)", st.CertVerifications, st.CertCacheHits)
	}

	ca.Revoke(alice.cert.Serial)
	if _, err := mgr.OpenBound(mustHelloAt(t, alice, clock.now()), "tcp:1:peer"); !errors.Is(err, ErrSessionRevoked) {
		t.Fatalf("open with a cached, revoked certificate = %v, want ErrSessionRevoked", err)
	}
	if st := mgr.Stats(); st.CertVerifications != 1 || st.CertCacheHits != 2 {
		t.Fatalf("verifications %d, hits %d; the refused open should have been a hit (1, 2)", st.CertVerifications, st.CertCacheHits)
	}
	if _, _, _, err := mgr.resolve(live.Token, ""); !errors.Is(err, ErrSessionRevoked) {
		t.Fatalf("session opened before the revocation = %v, want ErrSessionRevoked", err)
	}
	if st := mgr.Stats(); st.Revoked != 2 || st.Live != 0 {
		t.Fatalf("revoked %d, live %d; want both earlier sessions evicted", st.Revoked, st.Live)
	}
}

// countingRevoker counts the IsRevoked probes a manager makes.
type countingRevoker struct {
	pullRevoker
	probes atomic.Uint64
}

func (c *countingRevoker) IsRevoked(serial uint64) bool {
	c.probes.Add(1)
	return c.pullRevoker.IsRevoked(serial)
}

// TestOpenProbesRevocationOnEveryOpen: both revocation checks of an open —
// the unlocked fast-fail and the authoritative one under the control lock —
// run whether or not the certificate was in the verified set.
func TestOpenProbesRevocationOnEveryOpen(t *testing.T) {
	clock := newFakeClock()
	ca, ps := enrollAt(t, clock.now, "alice")
	rev := &countingRevoker{pullRevoker: pullRevoker{ca}}
	mgr, err := NewSessionManager(ca.PublicKey(), 10*time.Minute, 2*time.Minute, clock.now,
		WithRevocationChecks(rev, RevokeCheckSweep, 0))
	if err != nil {
		t.Fatal(err)
	}
	for open := 1; open <= 3; open++ {
		openSession(t, mgr, ps["alice"])
		if got := rev.probes.Load(); got != uint64(2*open) {
			t.Fatalf("after open %d: %d IsRevoked probes, want %d", open, got, 2*open)
		}
	}
	if st := mgr.Stats(); st.CertCacheHits != 2 {
		t.Fatalf("hits = %d, want the second and third open cached", st.CertCacheHits)
	}
}

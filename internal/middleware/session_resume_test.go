package middleware

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/ordering"
	"dltprivacy/internal/pki"
	"dltprivacy/internal/transport"
)

// wireTo is the network between a Handshaker and a manager, without the
// gateway around it: what serveSessionOpen does to a 0xDC hello, on the
// connection named transportID. It keeps every frame it carried.
type wireTo struct {
	mgr         *SessionManager
	transportID string
	hellos      [][]byte
	replies     [][]byte
}

func (w *wireTo) roundTrip(_ context.Context, frame []byte) ([]byte, error) {
	w.hellos = append(w.hellos, append([]byte(nil), frame...))
	grant, err := openFrame(w.mgr, frame, w.transportID)
	if errors.Is(err, errResumeUnknown) {
		return []byte{binaryMagic, binaryKindResumeMiss}, nil
	}
	if err != nil {
		return nil, err
	}
	reply := encodeGrantFrame(&grant)
	w.replies = append(w.replies, reply)
	return reply, nil
}

// openFrame decodes a hello frame and runs it against mgr as a handshake
// that crossed a network.
func openFrame(mgr *SessionManager, frame []byte, transportID string) (SessionGrant, error) {
	hello, resume, err := decodeHelloFrame(frame)
	if err != nil {
		return SessionGrant{}, err
	}
	if hello != nil {
		return mgr.open(hello, nil, transportID, true)
	}
	return mgr.open(nil, &resume, transportID, true)
}

// resumeFixture is a MAC-mode manager on a fake clock with a revocation
// plane, one enrolled principal, and a client that has run its full
// handshake: the next open resumes.
type resumeFixture struct {
	clock  *fakeClock
	ca     *pki.CA
	alice  *principal
	mgr    *SessionManager
	wire   *wireTo
	client *Handshaker
}

func newResumeFixture(t *testing.T, opts ...SessionOption) *resumeFixture {
	t.Helper()
	clock := newFakeClock()
	ca, ps := enrollAt(t, clock.now, "alice")
	opts = append([]SessionOption{
		WithRequestAuth(AuthMAC),
		WithRevocationChecks(pullRevoker{ca}, RevokeCheckResolve, 0),
	}, opts...)
	mgr, err := NewSessionManager(ca.PublicKey(), 10*time.Minute, 5*time.Minute, clock.now, opts...)
	if err != nil {
		t.Fatal(err)
	}
	f := &resumeFixture{
		clock: clock, ca: ca, alice: ps["alice"], mgr: mgr,
		wire:   &wireTo{mgr: mgr, transportID: "tcp:1:peer"},
		client: &Handshaker{Now: clock.now},
	}
	if grant := f.open(t); grant.Resumed {
		t.Fatal("the first handshake was resumed")
	}
	return f
}

func (f *resumeFixture) open(t *testing.T) SessionGrant {
	t.Helper()
	grant, err := f.tryOpen()
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return grant
}

func (f *resumeFixture) tryOpen() (SessionGrant, error) {
	return f.client.Open(context.Background(), "alice", f.alice.cert, f.alice.key, f.wire.roundTrip)
}

// held is the client's secret for alice's certificate.
func (f *resumeFixture) held(t *testing.T) *heldSecret {
	t.Helper()
	f.client.mu.Lock()
	defer f.client.mu.Unlock()
	s := f.client.secrets[heldKey{"alice", f.alice.cert.Serial}]
	if s == nil {
		t.Fatal("the client holds no secret")
	}
	return s
}

// unsent builds the resume hello the client would send now, without sending
// it.
func (f *resumeFixture) unsent(t *testing.T) *resumeHello {
	t.Helper()
	var frame []byte
	_, _, err := f.held(t).resume(context.Background(), f.clock.now(), "alice", func(_ context.Context, b []byte) ([]byte, error) {
		frame = b
		return nil, errors.New("not sent")
	})
	if err == nil || frame == nil {
		t.Fatalf("capturing a resume hello: %v", err)
	}
	hello, resume, err := decodeHelloFrame(frame)
	if err != nil || hello != nil {
		t.Fatalf("decode captured resume hello: %v", err)
	}
	return &resume
}

// TestResumeDerivationsGolden pins the resume transcript and the session MAC
// key to vectors captured when the one was dcrypto.HashConcat over four
// slices and the other HKDF over a concatenated label: staging both on the
// stack changed where the bytes are, not what they hash to.
func TestResumeDerivationsGolden(t *testing.T) {
	var id [resumeIDBytes]byte
	for i := range id {
		id[i] = byte(i + 1)
	}
	var nonce [helloNonceBytes]byte
	copy(nonce[:], bytes.Repeat([]byte{0xa5}, helloNonceBytes))
	digest := resumeDigest(id, nonce, time.Unix(1_700_000_000, 123_456_789))
	if got, want := hex.EncodeToString(digest[:]), "29107f44a2bb8b09e4ed5a5728f471ebba27ddae20a98dee7bb0cdc3689dfc36"; got != want {
		t.Fatalf("resumeDigest = %s, want %s", got, want)
	}
	key, err := sessionMACKey(bytes.Repeat([]byte{0x42}, masterBytes), digest, "00112233445566778899aabbccddeeff00112233445566778899aabbccddeeff")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := hex.EncodeToString(key[:]), "ed38b776df545fd7f34dc5fb8f19eb6d9b9f0a3e2d562c3498fe135903fff946"; got != want {
		t.Fatalf("sessionMACKey = %s, want %s", got, want)
	}
}

// TestResumeProvesPossessionWithoutPublicKeyWork: the second handshake for a
// certificate is an HMAC — no certificate presented, no verifier lookup —
// and opens a session whose MAC key both sides derived and nobody sent.
func TestResumeProvesPossessionWithoutPublicKeyWork(t *testing.T) {
	f := newResumeFixture(t)
	first := f.wire.replies[0]
	second := f.open(t)
	if !second.Resumed || second.Principal != "alice" || !second.MacAuth {
		t.Fatalf("second grant = %+v, want a resumed MAC session for alice", second)
	}
	st := f.mgr.Stats()
	if st.Opened != 2 || st.Resumed != 1 || st.ResumeMisses != 0 || st.ResumeEntries != 1 {
		t.Fatalf("stats = %+v, want 2 opened, 1 resumed, 0 misses, 1 entry", st)
	}
	if st.CertVerifications != 1 || st.CertCacheHits != 0 {
		t.Fatalf("verifications %d, hits %d: a resumed open consulted the certificate verifier", st.CertVerifications, st.CertCacheHits)
	}
	// The key the client derived is the one the manager holds.
	_, _, mac, err := f.mgr.resolve(second.Token, "tcp:1:peer")
	if err != nil || mac == nil {
		t.Fatalf("resolve resumed session: %v (mac %v)", err, mac)
	}
	msg := []byte("a request digest")
	tag := dcrypto.MAC(second.MacKey, msg)
	if err := mac.Verify(msg, tag[:]); err != nil {
		t.Fatalf("the client's derived key does not verify at the manager: %v", err)
	}
	// Neither frame of either handshake carries a MAC key or the master.
	master := f.held(t).master
	for i, frame := range append(append([][]byte{}, f.wire.hellos...), f.wire.replies...) {
		if bytes.Contains(frame, master) || bytes.Contains(frame, second.MacKey) {
			t.Fatalf("frame %d carries the master secret or a MAC key in the clear", i)
		}
	}
	g, _, err := decodeGrantFrame(first, "alice")
	if err != nil || g.MacKey != nil || g.Sealed == nil || len(g.ResumeID) != resumeIDBytes {
		t.Fatalf("full grant frame = %+v (%v), want no MacKey, a sealed secret and a resume id", g, err)
	}
	// The sealed secret opens under the certified key and under no other.
	hello, _, err := decodeHelloFrame(f.wire.hellos[0])
	if err != nil {
		t.Fatal(err)
	}
	digest := helloDigest(hello.Principal, hello.Nonce, hello.IssuedAt)
	other, err := dcrypto.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.unseal(digest, other); err == nil || g.MacKey != nil {
		t.Fatalf("unsealing with a foreign key = %v (key %x), want a refusal", err, g.MacKey)
	}
	if opened, err := g.unseal(digest, f.alice.key); err != nil || !bytes.Equal(opened, master) || len(g.MacKey) != dcrypto.MACKeySize {
		t.Fatalf("unsealing with the certified key: %v", err)
	}
	// The resume hello names no principal and carries no certificate.
	if bytes.Contains(f.wire.hellos[1], []byte("alice")) {
		t.Fatal("the resume hello names its principal")
	}
	// In-process opens are what they were: key in the struct, nothing kept.
	inproc := openSession(t, f.mgr, f.alice)
	if len(inproc.MacKey) != dcrypto.MACKeySize || inproc.Sealed != nil || inproc.ResumeID != nil {
		t.Fatalf("in-process grant = %+v, want the MAC key and nothing sealed", inproc)
	}
	if st := f.mgr.Stats(); st.ResumeEntries != 1 {
		t.Fatalf("an in-process open left a resumption entry: %d", st.ResumeEntries)
	}
}

// TestResumeReplayAndFreshness: a resume hello is consumed like a full one —
// replayed inside the window it mints nothing, issued outside it is stale.
func TestResumeReplayAndFreshness(t *testing.T) {
	f := newResumeFixture(t)
	f.open(t)
	replayed := f.wire.hellos[len(f.wire.hellos)-1]
	opened := f.mgr.Stats().Opened
	if _, err := f.wire.roundTrip(context.Background(), replayed); !errors.Is(err, ErrReplayedHello) {
		t.Fatalf("replayed resume hello = %v, want ErrReplayedHello", err)
	}
	if got := f.mgr.Stats().Opened; got != opened {
		t.Fatalf("a replayed resume hello opened a session (%d -> %d)", opened, got)
	}
	for _, skew := range []time.Duration{-helloFreshness - time.Second, helloFreshness + time.Second} {
		stale := f.unsent(t)
		stale.IssuedAt = f.clock.now().Add(skew)
		d := resumeDigest(stale.ID, stale.Nonce, stale.IssuedAt)
		tag := dcrypto.MAC(f.held(t).master, d[:]) // correctly tagged: only the time is wrong
		stale.Tag = tag[:]
		if _, err := f.wire.roundTrip(context.Background(), encodeResumeFrame(stale)); !errors.Is(err, ErrStaleHello) {
			t.Fatalf("resume hello issued %v from now = %v, want ErrStaleHello", skew, err)
		}
	}
}

// TestResumeRejectsBadTag: the tag is the proof. A wrong one, a truncated
// one and one under another secret are refused (dcrypto.VerifyMAC, constant
// time), consume no nonce, and count as gateway rejections.
func TestResumeRejectsBadTag(t *testing.T) {
	clock := newFakeClock()
	ca, ps := enrollAt(t, clock.now, "alice")
	cfg := Config{Stages: []StageConfig{{Name: StageSession, Params: map[string]string{
		"ttl": "10m", "idle": "5m", "reqauth": "mac",
	}}}}
	gw, err := NewGateway("gw", cfg, Env{CAKey: ca.PublicKey(), Now: clock.now}, ordering.New("op", ordering.VisibilityEnvelope))
	if err != nil {
		t.Fatal(err)
	}
	serve := func(_ context.Context, frame []byte) ([]byte, error) {
		return gw.ServeWire(context.Background(), TopicSessionOpen, frame, "tcp:1:peer")
	}
	f := &resumeFixture{clock: clock, ca: ca, alice: ps["alice"], mgr: gw.Sessions(), client: &Handshaker{Now: clock.now}}
	if _, err := f.client.Open(context.Background(), "alice", f.alice.cert, f.alice.key, serve); err != nil {
		t.Fatal(err)
	}
	tampered := map[string]func(h *resumeHello){
		"flipped bit": func(h *resumeHello) { h.Tag[0] ^= 1 },
		"truncated":   func(h *resumeHello) { h.Tag = h.Tag[:dcrypto.MACSize-1] },
		"empty":       func(h *resumeHello) { h.Tag = nil },
		"other secret": func(h *resumeHello) {
			d := resumeDigest(h.ID, h.Nonce, h.IssuedAt)
			tag := dcrypto.MAC(bytes.Repeat([]byte{7}, masterBytes), d[:])
			h.Tag = tag[:]
		},
	}
	rejected := gw.Stats().Rejected
	for name, tamper := range tampered {
		h := f.unsent(t)
		tamper(h)
		_, err := serve(context.Background(), encodeResumeFrame(h))
		if !errors.Is(err, ErrBadMAC) {
			t.Fatalf("%s tag = %v, want ErrBadMAC", name, err)
		}
		rejected++
		if got := gw.Stats().Rejected; got != rejected {
			t.Fatalf("%s tag: confmw_gateway_rejected_total = %d, want %d", name, got, rejected)
		}
		// The refused hello planted no nonce: correctly tagged, it opens.
		d := resumeDigest(h.ID, h.Nonce, h.IssuedAt)
		tag := dcrypto.MAC(f.held(t).master, d[:])
		h.Tag = tag[:]
		if _, err := serve(context.Background(), encodeResumeFrame(h)); err != nil {
			t.Fatalf("%s: the genuine hello with the same nonce: %v", name, err)
		}
	}
	if st := gw.Stats(); st.Sessions.Resumed != uint64(len(tampered)) || st.Sessions.ResumeMisses != 0 {
		t.Fatalf("resumed %d, misses %d; want %d and 0", st.Sessions.Resumed, st.Sessions.ResumeMisses, len(tampered))
	}
}

// flippingRevoker answers IsRevoked false until armed, then true from the
// n-th probe on: the revocation that lands between an open's two checks.
type flippingRevoker struct {
	countingRevoker
	revokeFrom atomic.Uint64 // probe number from which IsRevoked is true; 0 never
}

func (r *flippingRevoker) IsRevoked(serial uint64) bool {
	n := r.probes.Add(1)
	from := r.revokeFrom.Load()
	return from != 0 && n >= from
}

// TestResumeChecksRevocation: a resumed open asks the revoker twice, like a
// full one — the unlocked fast check and the one under the control lock —
// a revoked serial cannot resume, and the sweep that evicts its sessions
// drops its entry, after which the client's fallback meets the same refusal.
func TestResumeChecksRevocation(t *testing.T) {
	clock := newFakeClock()
	ca, ps := enrollAt(t, clock.now, "alice", "bob")
	rev := &flippingRevoker{countingRevoker: countingRevoker{pullRevoker: pullRevoker{ca}}}
	mgr, err := NewSessionManager(ca.PublicKey(), 10*time.Minute, 5*time.Minute, clock.now,
		WithRequestAuth(AuthMAC), WithRevocationChecks(rev, RevokeCheckSweep, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	f := &resumeFixture{clock: clock, ca: ca, alice: ps["alice"], mgr: mgr,
		wire: &wireTo{mgr: mgr, transportID: "tcp:1:peer"}, client: &Handshaker{Now: clock.now}}
	f.open(t)
	before := rev.probes.Load()
	if grant := f.open(t); !grant.Resumed {
		t.Fatal("second open did not resume")
	}
	if got := rev.probes.Load() - before; got != 2 {
		t.Fatalf("a resumed open made %d IsRevoked probes, want 2", got)
	}
	// Revoked between the two checks: the fast check passes, the locked one
	// refuses, and no session is inserted.
	live := mgr.Len()
	rev.revokeFrom.Store(rev.probes.Load() + 2)
	if _, err := f.tryOpen(); !errors.Is(err, ErrSessionRevoked) {
		t.Fatalf("revoked between the checks = %v, want ErrSessionRevoked", err)
	}
	if mgr.Len() != live {
		t.Fatalf("the refused resume left a session behind (%d -> %d)", live, mgr.Len())
	}
	// Revoked for good: refused at the fast check while the entry is still
	// in the table...
	if _, err := f.tryOpen(); !errors.Is(err, ErrSessionRevoked) {
		t.Fatalf("resume under a revoked certificate = %v, want ErrSessionRevoked", err)
	}
	if st := mgr.Stats(); st.ResumeEntries != 1 || st.ResumeMisses != 0 {
		t.Fatalf("before the sweep: %d entries, %d misses; want 1 and 0", st.ResumeEntries, st.ResumeMisses)
	}
	// ...and the sweep that evicts the certificate's sessions drops it.
	bob := &Handshaker{Now: clock.now}
	bobWire := &wireTo{mgr: mgr, transportID: "tcp:2:peer"}
	rev.revokeFrom.Store(0)
	if _, err := bob.Open(context.Background(), "bob", ps["bob"].cert, ps["bob"].key, bobWire.roundTrip); err != nil {
		t.Fatal(err)
	}
	ca.Revoke(f.alice.cert.Serial)
	if evicted := mgr.SweepRevoked(); evicted != 2 {
		t.Fatalf("sweep evicted %d sessions, want alice's 2", evicted)
	}
	if st := mgr.Stats(); st.ResumeEntries != 1 {
		t.Fatalf("after the sweep: %d resumption entries, want bob's alone", st.ResumeEntries)
	}
	rev.revokeFrom.Store(1)
	if _, err := f.tryOpen(); !errors.Is(err, ErrSessionRevoked) {
		t.Fatalf("fallback under a revoked certificate = %v, want ErrSessionRevoked", err)
	}
	if st := mgr.Stats(); st.ResumeMisses != 1 {
		t.Fatalf("misses = %d, want the one resume hello that met the swept table", st.ResumeMisses)
	}
	rev.revokeFrom.Store(0)
	if grant, err := bob.Open(context.Background(), "bob", ps["bob"].cert, ps["bob"].key, bobWire.roundTrip); err != nil || !grant.Resumed {
		t.Fatalf("bob after alice's revocation: %+v, %v; want a resumed session", grant, err)
	}
}

// TestResumeEntryExpires: an entry is honoured for the session ttl after the
// full handshake and never past the certificate's NotAfter, whatever the
// client believes.
func TestResumeEntryExpires(t *testing.T) {
	t.Run("ttl", func(t *testing.T) {
		f := newResumeFixture(t)
		held := f.held(t)
		f.clock.advance(10*time.Minute - time.Second)
		if grant := f.open(t); !grant.Resumed {
			t.Fatal("inside the ttl: not resumed")
		}
		f.clock.advance(2 * time.Second)
		// A client that still believes in its secret is told otherwise.
		if _, miss, err := held.resume(context.Background(), f.clock.now(), "alice", f.wire.roundTrip); err != nil || !miss {
			t.Fatalf("resume past the ttl: miss %v, err %v; want a miss", miss, err)
		}
		if st := f.mgr.Stats(); st.ResumeMisses != 1 || st.ResumeEntries != 0 {
			t.Fatalf("misses %d, entries %d; want 1 and the expired entry gone", st.ResumeMisses, st.ResumeEntries)
		}
		// The Handshaker knows the expiry too, and goes straight to the full
		// handshake: no second miss.
		if grant := f.open(t); grant.Resumed {
			t.Fatal("past the ttl: resumed")
		}
		if st := f.mgr.Stats(); st.ResumeMisses != 1 {
			t.Fatalf("misses = %d after the client's own expiry check, want still 1", st.ResumeMisses)
		}
	})
	t.Run("NotAfter", func(t *testing.T) {
		// The certificate runs out four minutes into a ten-minute ttl.
		clock := newFakeClock()
		ca, ps := enrollAt(t, clock.now, "alice")
		clock.advance(ps["alice"].cert.NotAfter.Sub(clock.now()) - 4*time.Minute)
		mgr := mustManager(t, ca, 10*time.Minute, 10*time.Minute, clock.now)
		f := &resumeFixture{clock: clock, ca: ca, alice: ps["alice"], mgr: mgr,
			wire: &wireTo{mgr: mgr}, client: &Handshaker{Now: clock.now}}
		f.open(t)
		held := f.held(t)
		clock.advance(3 * time.Minute)
		if grant := f.open(t); !grant.Resumed {
			t.Fatal("inside the certificate's window: not resumed")
		}
		clock.advance(2 * time.Minute)
		if _, miss, err := held.resume(context.Background(), clock.now(), "alice", f.wire.roundTrip); err != nil || !miss {
			t.Fatalf("resume past NotAfter: miss %v, err %v; want a miss", miss, err)
		}
		if _, err := f.tryOpen(); !errors.Is(err, pki.ErrExpired) {
			t.Fatalf("full handshake past NotAfter = %v, want ErrExpired", err)
		}
	})
}

// TestResumeReenrolledCertificateTakesFullPath: a secret belongs to one
// certificate. The same identity under a new one signs again.
func TestResumeReenrolledCertificateTakesFullPath(t *testing.T) {
	f := newResumeFixture(t)
	renewed, err := f.ca.Enroll("alice", f.alice.key.Public())
	if err != nil {
		t.Fatal(err)
	}
	grant, err := f.client.Open(context.Background(), "alice", renewed, f.alice.key, f.wire.roundTrip)
	if err != nil || grant.Resumed {
		t.Fatalf("first open under the renewed certificate: %+v, %v; want a full handshake", grant, err)
	}
	if st := f.mgr.Stats(); st.CertVerifications != 2 || st.Resumed != 0 || st.ResumeMisses != 0 {
		t.Fatalf("stats = %+v, want the renewed certificate verified and nothing resumed or missed", st)
	}
	for _, cert := range []pki.Certificate{renewed, f.alice.cert} {
		if grant, err := f.client.Open(context.Background(), "alice", cert, f.alice.key, f.wire.roundTrip); err != nil || !grant.Resumed {
			t.Fatalf("serial %d, second open: %+v, %v; want resumed", cert.Serial, grant, err)
		}
	}
}

// TestResumeTableBound: two generations, however many distinct entries
// arrive; an entry in use survives the rotations.
func TestResumeTableBound(t *testing.T) {
	var table resumeTable
	now := time.Unix(1_700_000_000, 0)
	id := func(i int) (id [resumeIDBytes]byte) {
		id[0], id[1], id[2] = byte(i), byte(i>>8), byte(i>>16)
		return id
	}
	table.put(id(0), &resumeEntry{identity: "returning", expires: now.Add(time.Hour)})
	for i := 1; i <= 5*resumeGeneration; i++ {
		table.put(id(i), &resumeEntry{expires: now.Add(time.Hour)})
		if table.len() > 2*resumeGeneration {
			t.Fatalf("after %d inserts the table holds %d entries, bound %d", i, table.len(), 2*resumeGeneration)
		}
		if i%(resumeGeneration/2) == 0 {
			if e := table.get(id(0), now); e == nil || e.identity != "returning" {
				t.Fatalf("after %d inserts the entry in use was forgotten", i)
			}
		}
	}
	if table.get(id(1), now) != nil {
		t.Fatal("an entry unused for two generations is still held")
	}
	// An expired entry is deleted on sight, from either generation.
	table.put(id(-1), &resumeEntry{expires: now.Add(-time.Second)})
	before := table.len()
	if table.get(id(-1), now) != nil || table.len() != before-1 {
		t.Fatalf("expired entry: still honoured, or still held (%d -> %d)", before, table.len())
	}
}

// TestResumedSessionsAreBoundAndCapped: a resumed session is a session — tied
// to the connection its hello arrived on, and counted against the
// per-principal cap.
func TestResumedSessionsAreBoundAndCapped(t *testing.T) {
	f := newResumeFixture(t, WithMaxPerPrincipal(2))
	second := f.open(t)
	if _, _, _, err := f.mgr.resolve(second.Token, "tcp:9:elsewhere"); !errors.Is(err, ErrSessionBound) {
		t.Fatalf("resumed session from another connection = %v, want ErrSessionBound", err)
	}
	if err := f.mgr.CloseFrom(second.Token, "tcp:9:elsewhere"); !errors.Is(err, ErrSessionBound) {
		t.Fatalf("closing a resumed session from another connection = %v, want ErrSessionBound", err)
	}
	third := f.open(t)
	if !third.Resumed {
		t.Fatal("third open did not resume")
	}
	if st := f.mgr.Stats(); st.Live != 2 || st.Evicted != 1 {
		t.Fatalf("live %d, evicted %d; want the cap of 2 held by evicting the oldest", st.Live, st.Evicted)
	}
	if _, _, _, err := f.mgr.resolve(third.Token, "tcp:1:peer"); err != nil {
		t.Fatalf("the newest resumed session: %v", err)
	}
	if n := f.mgr.EvictTransport("tcp:1:peer"); n != 2 {
		t.Fatalf("tearing the connection down evicted %d sessions, want 2", n)
	}
}

// TestResumeFallsBackWhenGatewayLostItsTable: a gateway restarted on the
// same CA knows none of the old one's secrets. The client is told, runs the
// full handshake inside the same Open, and resumes from then on; the caller
// sees a grant, never an error.
func TestResumeFallsBackWhenGatewayLostItsTable(t *testing.T) {
	f := newResumeFixture(t)
	restarted, err := NewSessionManager(f.ca.PublicKey(), 10*time.Minute, 5*time.Minute, f.clock.now, WithRequestAuth(AuthMAC))
	if err != nil {
		t.Fatal(err)
	}
	f.wire.mgr = restarted
	grant, err := f.tryOpen()
	if err != nil || grant.Resumed || len(grant.MacKey) != dcrypto.MACKeySize {
		t.Fatalf("open at the restarted gateway: %+v, %v; want a full grant and no error", grant, err)
	}
	if st := restarted.Stats(); st.ResumeMisses != 1 || st.Opened != 1 || st.Resumed != 0 {
		t.Fatalf("restarted gateway: %+v, want one miss and one full open", st)
	}
	if grant := f.open(t); !grant.Resumed {
		t.Fatal("the replaced secret does not resume")
	}
}

// TestSubstrateCallerResumesWithItsOwnHandshaker: OpenSessionOver keeps
// nothing between calls, so it always signs; a caller on the substrate that
// holds a Handshaker resumes through the same round trip.
func TestSubstrateCallerResumesWithItsOwnHandshaker(t *testing.T) {
	gw, net, ps, grants := fastpathGateway(t, "mac", "alice")
	again, err := OpenSessionOver(net, "alice", "gateway", ps["alice"].cert, ps["alice"].key)
	if err != nil || grants["alice"].Resumed || again.Resumed {
		t.Fatalf("the helper's second open: %+v, %v; want another full handshake", again, err)
	}
	var client Handshaker
	open := func() SessionGrant {
		t.Helper()
		grant, err := client.Open(context.Background(), "alice", ps["alice"].cert, ps["alice"].key, func(_ context.Context, hello []byte) ([]byte, error) {
			return net.Send(transport.Message{From: "alice", To: "gateway", Topic: TopicSessionOpen, Payload: hello})
		})
		if err != nil {
			t.Fatal(err)
		}
		return grant
	}
	if first := open(); first.Resumed {
		t.Fatal("a first handshake was resumed")
	}
	resumed := open()
	if !resumed.Resumed {
		t.Fatalf("second open: %+v; want resumed", resumed)
	}
	req := &Request{Channel: "deals", Principal: "alice", Payload: []byte("trade"), SessionToken: resumed.Token}
	MACRequest(req, resumed.MacKey)
	if _, err := SubmitOver(net, "alice", "gateway", req); err != nil {
		t.Fatalf("submission on the resumed session: %v", err)
	}
	if st := gw.Stats().Sessions; st.Resumed != 1 || st.ResumeMisses != 0 {
		t.Fatalf("resumed %d, misses %d; want 1 and 0", st.Resumed, st.ResumeMisses)
	}
}

// TestConcurrentFirstOpensShareOneFullHandshake: sessions opened at once for
// a certificate whose secret is not held yet cost the gateway one signature
// check and one table entry between them; and a first handshake that fails
// leaves the others to try for themselves, not waiting for ever.
func TestConcurrentFirstOpensShareOneFullHandshake(t *testing.T) {
	ca, ps := enrollAt(t, time.Now, "alice")
	mgr, err := NewSessionManager(ca.PublicKey(), 10*time.Minute, 5*time.Minute, nil, WithRequestAuth(AuthMAC))
	if err != nil {
		t.Fatal(err)
	}
	var down atomic.Bool
	roundTrip := func(_ context.Context, frame []byte) ([]byte, error) {
		if down.Load() {
			return nil, errors.New("gateway down")
		}
		grant, err := openFrame(mgr, frame, "tcp:1:peer")
		if err != nil {
			return nil, err
		}
		return encodeGrantFrame(&grant), nil
	}
	var client Handshaker
	const opens = 16
	openAll := func() (failed int) {
		errs := make(chan error, opens)
		for i := 0; i < opens; i++ {
			go func() {
				_, err := client.Open(context.Background(), "alice", ps["alice"].cert, ps["alice"].key, roundTrip)
				errs <- err
			}()
		}
		for i := 0; i < opens; i++ {
			if <-errs != nil {
				failed++
			}
		}
		return failed
	}

	down.Store(true)
	if failed := openAll(); failed != opens {
		t.Fatalf("%d of %d opens failed against a gateway that is down", failed, opens)
	}
	down.Store(false)
	if failed := openAll(); failed != 0 {
		t.Fatalf("%d opens failed", failed)
	}
	st := mgr.Stats()
	if st.Opened != opens || st.Resumed != opens-1 || st.ResumeEntries != 1 || st.CertVerifications+st.CertCacheHits != 1 {
		t.Fatalf("stats = %+v, want %d opened of which %d resumed, one entry, one certificate check", st, opens, opens-1)
	}

	// An Open waiting on somebody else's full handshake gives up with its own
	// context, not with theirs.
	var stuck Handshaker
	entered, release := make(chan struct{}), make(chan struct{})
	leader := make(chan error, 1)
	go func() {
		_, err := stuck.Open(context.Background(), "alice", ps["alice"].cert, ps["alice"].key, func(ctx context.Context, frame []byte) ([]byte, error) {
			close(entered)
			<-release
			return roundTrip(ctx, frame)
		})
		leader <- err
	}()
	<-entered
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := stuck.Open(ctx, "alice", ps["alice"].cert, ps["alice"].key, roundTrip); !errors.Is(err, context.Canceled) {
		t.Fatalf("waiting open with a cancelled context = %v, want context.Canceled", err)
	}
	close(release)
	if err := <-leader; err != nil {
		t.Fatalf("the full handshake the other open waited on: %v", err)
	}
}

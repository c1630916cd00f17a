package middleware

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/ledger"
	"dltprivacy/internal/ordering"
	"dltprivacy/internal/pki"
)

// pullRevoker hides a CA's push hook, modelling an out-of-process CA the
// gateway can only poll: deltas reach it via sweeps and revocation.notify,
// never via subscription.
type pullRevoker struct{ ca *pki.CA }

func (p pullRevoker) RevocationVersion() uint64 { return p.ca.RevocationVersion() }

func (p pullRevoker) RevokedSince(epoch uint64) ([]pki.Revocation, uint64) {
	return p.ca.RevokedSince(epoch)
}

func (p pullRevoker) IsRevoked(serial uint64) bool { return p.ca.IsRevoked(serial) }

// revocableManager builds a manager holding a revoker, which is what makes
// it check revocation, over a fresh CA-backed consortium.
func revocableManager(t *testing.T, clock *fakeClock, names ...string) (*pki.CA, map[string]*principal, *SessionManager) {
	t.Helper()
	ca, ps := enrollAt(t, clock.now, names...)
	mgr, err := NewSessionManager(ca.PublicKey(), 10*time.Minute, 2*time.Minute, clock.now,
		withRevoker(pullRevoker{ca}))
	if err != nil {
		t.Fatalf("NewSessionManager: %v", err)
	}
	return ca, ps, mgr
}

func TestRevocationResolveModeEvictsMidSession(t *testing.T) {
	clock := newFakeClock()
	ca, ps, mgr := revocableManager(t, clock, "alice", "bob")
	stage, err := newSession(mgr)
	if err != nil {
		t.Fatal(err)
	}
	chain := newChain((&accept{}).handler, stage)
	submit := func(p *principal, grant SessionGrant) error {
		return chain.execute(context.Background(), sessionRequest(p, grant, "deals", []byte("x")))
	}

	alice := openSession(t, mgr, ps["alice"])
	bob := openSession(t, mgr, ps["bob"])
	if err := submit(ps["alice"], alice); err != nil {
		t.Fatalf("pre-revocation submit: %v", err)
	}

	// Revocation is observed on the very next resolve: no sweep, no
	// notification, just the version probe.
	ca.Revoke(ps["alice"].cert.Serial)
	if err := submit(ps["alice"], alice); !errors.Is(err, ErrSessionRevoked) {
		t.Fatalf("post-revocation submit = %v, want ErrSessionRevoked", err)
	}
	// The error is stable across retries, not a one-shot.
	if err := submit(ps["alice"], alice); !errors.Is(err, ErrSessionRevoked) {
		t.Fatalf("second post-revocation submit = %v, want ErrSessionRevoked", err)
	}
	// An unrevoked principal is untouched.
	if err := submit(ps["bob"], bob); err != nil {
		t.Fatalf("unrevoked principal submit: %v", err)
	}
	stats := mgr.stats()
	if stats.Revoked != 1 || stats.Live != 1 {
		t.Fatalf("stats = %+v, want 1 revoked / 1 live", stats)
	}
	if stats.Expired != 0 || stats.Evicted != 0 {
		t.Fatalf("revocation leaked into other counters: %+v", stats)
	}

	// A revoked certificate cannot root a fresh session either.
	hello, err := newSessionHelloAt("alice", ps["alice"].cert, ps["alice"].key, clock.now())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Open(hello); !errors.Is(err, ErrSessionRevoked) {
		t.Fatalf("open with revoked cert = %v, want ErrSessionRevoked", err)
	}

	// Once the session's original expiry passes, the tombstone decays to
	// an ordinary unknown token.
	clock.advance(11 * time.Minute)
	if err := submit(ps["alice"], alice); !errors.Is(err, ErrNoSession) {
		t.Fatalf("decayed tombstone = %v, want ErrNoSession", err)
	}
}

// TestRevocationPushEvictsBeforeAnyRequest: the push path (a notified
// sweep) evicts a revoked certificate's session at once, before any request
// carries its token.
func TestRevocationPushEvictsBeforeAnyRequest(t *testing.T) {
	clock := newFakeClock()
	ca, ps, mgr := revocableManager(t, clock, "alice")
	stage, err := newSession(mgr)
	if err != nil {
		t.Fatal(err)
	}
	chain := newChain((&accept{}).handler, stage)

	grant := openSession(t, mgr, ps["alice"])
	ca.Revoke(ps["alice"].cert.Serial)
	if n := mgr.sweepRevoked(); n != 1 {
		t.Fatalf("sweepRevoked = %d, want 1", n)
	}
	if st := mgr.stats(); st.Revoked != 1 || mgr.Len() != 0 {
		t.Fatalf("after the push: revoked %d, live %d; want 1 and 0", st.Revoked, mgr.Len())
	}
	err = chain.execute(context.Background(), sessionRequest(ps["alice"], grant, "deals", []byte("x")))
	if !errors.Is(err, ErrSessionRevoked) {
		t.Fatalf("submit after notified sweep = %v, want ErrSessionRevoked", err)
	}
}

// TestRevocationOffModeIgnoresRevoker: a manager built without a revoker,
// as the session stage is without Env.Revoker, checks no revocation.
func TestRevocationOffModeIgnoresRevoker(t *testing.T) {
	clock := newFakeClock()
	ca, ps := enrollAt(t, clock.now, "alice")
	mgr := mustManager(t, ca, 10*time.Minute, 2*time.Minute, clock.now)
	stage, err := newSession(mgr)
	if err != nil {
		t.Fatal(err)
	}
	chain := newChain((&accept{}).handler, stage)

	grant := openSession(t, mgr, ps["alice"])
	ca.Revoke(ps["alice"].cert.Serial)
	// A manager without a revoker (a session stage built without
	// Env.Revoker) checks nothing: the session outlives the revocation
	// until TTL/idle expiry.
	err = chain.execute(context.Background(), sessionRequest(ps["alice"], grant, "deals", []byte("x")))
	if err != nil {
		t.Fatalf("submit after revocation, no revoker: %v", err)
	}
	if mgr.sweepRevoked() != 0 {
		t.Fatal("a manager without a revoker must sweep trivially")
	}
}

// TestRevocationNewerCertSurvivesOldSerialRevocation pins the serial-exact
// eviction semantics: revoking a principal's superseded certificate must
// not kill sessions rooted in its replacement.
func TestRevocationNewerCertSurvivesOldSerialRevocation(t *testing.T) {
	clock := newFakeClock()
	ca, ps, mgr := revocableManager(t, clock, "alice")
	oldCert := ps["alice"].cert
	renewed, err := ca.Enroll("alice", ps["alice"].key.Public())
	if err != nil {
		t.Fatalf("re-enroll: %v", err)
	}
	ps["alice"].cert = renewed
	grant := openSession(t, mgr, ps["alice"])

	ca.Revoke(oldCert.Serial)
	stage, err := newSession(mgr)
	if err != nil {
		t.Fatal(err)
	}
	chain := newChain((&accept{}).handler, stage)
	err = chain.execute(context.Background(), sessionRequest(ps["alice"], grant, "deals", []byte("x")))
	if err != nil {
		t.Fatalf("session under renewed cert evicted by old serial: %v", err)
	}
	if got := mgr.stats().Revoked; got != 0 {
		t.Fatalf("revoked counter = %d, want 0", got)
	}
}

// revocableGatewayConfig is the full revocation-aware pipeline the e2e
// tests drive through ServeWire. Its session stage names no revokecheck: it
// checks revocation because Env.Revoker is set.
func revocableGatewayConfig() Config {
	return Config{Stages: []StageConfig{
		{Name: StageSession, Params: map[string]string{"ttl": "10m", "idle": "5m"}},
		{Name: StageEncrypt, Params: map[string]string{"keyttl": "5m"}},
		{Name: StageAudit, Params: map[string]string{"observer": "gateway-op"}},
	}}
}

// TestGatewayRevocationEndToEnd runs the whole plane through ServeWire: a
// CA revocation pushes through the gateway into session eviction, key-epoch
// rotation, audit trail, and stats — and the revoked member cannot open
// post-revocation envelopes. The session stage runs as "unnamed" (no
// revokecheck) and as "resolve" (the compatibility value): one pipeline.
func TestGatewayRevocationEndToEnd(t *testing.T) {
	for _, spelling := range []string{"resolve", "unnamed"} {
		t.Run(spelling, func(t *testing.T) {
			clock := newFakeClock()
			ca, ps := enrollAt(t, clock.now, "alice", "bob", "carol")
			memberKeys := map[string]dcrypto.PublicKey{
				"alice": ps["alice"].key.Public(),
				"bob":   ps["bob"].key.Public(),
				"carol": ps["carol"].key.Public(),
			}
			log := audit.NewHistory()
			orderer := ordering.New("orderer-op", ordering.VisibilityEnvelope, ordering.WithAuditLog(log))
			env := Env{
				CAKey:     ca.PublicKey(),
				Directory: StaticDirectory{"deals": memberKeys},
				Log:       log,
				Now:       clock.now,
				Revoker:   ca, // a RevocationSource: the gateway subscribes
			}
			cfg := revocableGatewayConfig()
			if spelling == "resolve" {
				cfg.Stages[0].Params["revokecheck"] = "resolve"
			}
			gw, err := NewGateway("gw", cfg, env, orderer)
			if err != nil {
				t.Fatal(err)
			}
			vault := &payloadVault{}
			gw.Bind("deals", vault)
			w := frontOf(gw)

			grants := make(map[string]SessionGrant)
			for _, name := range []string{"alice", "bob"} {
				grant, err := w.openAt(ps[name], clock.now())
				if err != nil {
					t.Fatalf("open session for %s: %v", name, err)
				}
				grants[name] = grant
			}

			// Pre-revocation: bob is a recipient of epoch-1 envelopes.
			req := sessionRequest(ps["alice"], grants["alice"], "deals", []byte("pre-revocation"))
			if _, err := w.submit(req); err != nil {
				t.Fatalf("pre-revocation submit: %v", err)
			}
			envl := vault.parse(t, 0)
			if envl.Epoch != 1 {
				t.Fatalf("pre-revocation epoch = %d, want 1", envl.Epoch)
			}
			if _, err := OpenEnvelope(envl, "bob", ps["bob"].key); err != nil {
				t.Fatalf("bob cannot open pre-revocation envelope: %v", err)
			}

			// Revoke bob mid-session. The CA pushes, the gateway syncs.
			ca.Revoke(ps["bob"].cert.Serial)

			// Bob's next request dies with the distinct revocation error
			// (the push subscription has already swept his session).
			bobReq := sessionRequest(ps["bob"], grants["bob"], "deals", []byte("x"))
			if _, err := w.submit(bobReq); !errors.Is(err, ErrSessionRevoked) {
				t.Fatalf("revoked principal submit = %v, want ErrSessionRevoked", err)
			}
			// Bob cannot re-open a session with the revoked certificate.
			if _, err := w.openAt(ps["bob"], clock.now()); !errors.Is(err, ErrSessionRevoked) {
				t.Fatalf("revoked principal re-open = %v, want ErrSessionRevoked", err)
			}
			// Nor without one: every request rides a session.
			if _, err := w.submit(&Request{Channel: "deals", Principal: "bob", Payload: []byte("x")}); !errors.Is(err, ErrNoSession) {
				t.Fatalf("revoked principal's sessionless request = %v, want ErrNoSession", err)
			}

			// Alice's next envelope rides a fresh epoch bob cannot unwrap.
			req = sessionRequest(ps["alice"], grants["alice"], "deals", []byte("post-revocation"))
			if _, err := w.submit(req); err != nil {
				t.Fatalf("post-revocation submit: %v", err)
			}
			envl = vault.parse(t, 1)
			if envl.Epoch != 2 {
				t.Fatalf("post-revocation epoch = %d, want 2", envl.Epoch)
			}
			if _, err := OpenEnvelope(envl, "bob", ps["bob"].key); !errors.Is(err, ErrNotRecipient) {
				t.Fatalf("revoked member opened post-revocation envelope: %v", err)
			}
			for _, name := range []string{"alice", "carol"} {
				got, err := OpenEnvelope(envl, name, ps[name].key)
				if err != nil || string(got) != "post-revocation" {
					t.Fatalf("surviving member %s read %q, %v", name, got, err)
				}
			}

			// Counters and audit trail agree with what happened.
			stats := gw.Stats()
			if stats.SessionsRevoked != 1 {
				t.Fatalf("SessionsRevoked = %d, want 1", stats.SessionsRevoked)
			}
			if stats.KeyEpochsRevokedRotations != 1 {
				t.Fatalf("KeyEpochsRevokedRotations = %d, want 1", stats.KeyEpochsRevokedRotations)
			}
			if stats.RevocationSweeps == 0 {
				t.Fatal("RevocationSweeps = 0, want at least the push sync")
			}
			if !log.Saw("gw", audit.ClassIdentity, fmt.Sprintf("revoked:bob#%d@1", ps["bob"].cert.Serial)) {
				t.Fatalf("audit log missing the revocation trail; saw %v",
					log.ItemsSeen("gw", audit.ClassIdentity))
			}
		})
	}
}

// TestSessionStageChecksRevocationWithEnvRevoker: a session stage that names
// no revokecheck checks revocation because Env.Revoker is set. The revoker cannot push, so the refusal comes from the next token
// request's own probe.
func TestSessionStageChecksRevocationWithEnvRevoker(t *testing.T) {
	clock := newFakeClock()
	ca, ps := enrollAt(t, clock.now, "alice", "bob")
	env := Env{CAKey: ca.PublicKey(), Log: audit.NewLog(), Now: clock.now, Revoker: pullRevoker{ca}}
	cfg := Config{Stages: []StageConfig{{Name: StageSession}}}
	gw, err := NewGateway("gw", cfg, env, ordering.New("orderer-op", ordering.VisibilityFull))
	if err != nil {
		t.Fatal(err)
	}
	gw.Bind("deals", &countingBackend{})
	w := frontOf(gw)
	grants := make(map[string]SessionGrant)
	for _, name := range []string{"alice", "bob"} {
		if grants[name], err = w.openAt(ps[name], clock.now()); err != nil {
			t.Fatalf("open session for %s: %v", name, err)
		}
	}
	submit := func(name string) error {
		_, err := w.submit(sessionRequest(ps[name], grants[name], "deals", []byte("x")))
		return err
	}
	if err := submit("alice"); err != nil {
		t.Fatalf("pre-revocation submit: %v", err)
	}
	ca.Revoke(ps["alice"].cert.Serial)
	if err := submit("alice"); !errors.Is(err, ErrSessionRevoked) {
		t.Fatalf("revoked principal's next token request = %v, want ErrSessionRevoked", err)
	}
	if err := submit("bob"); err != nil {
		t.Fatalf("unrevoked principal submit: %v", err)
	}
	if got := gw.Stats().SessionsRevoked; got != 1 {
		t.Fatalf("SessionsRevoked = %d, want 1", got)
	}
}

// TestPullOnlyRevokerExcludesFromNextEnvelope: a revoker that cannot push
// and is never notified still reaches the encrypt stage. The submission
// after a revocation sees the revoker's version move and syncs the gateway
// first, so the envelope it seals is not wrapped to the revoked member.
// Under -race its second half checks that check against concurrent syncs.
func TestPullOnlyRevokerExcludesFromNextEnvelope(t *testing.T) {
	clock := newFakeClock()
	ca, ps := enrollAt(t, clock.now, "alice", "bob", "carol")
	env := Env{
		CAKey: ca.PublicKey(),
		Directory: StaticDirectory{"deals": {
			"alice": ps["alice"].key.Public(),
			"bob":   ps["bob"].key.Public(),
			"carol": ps["carol"].key.Public(),
		}},
		Log:     audit.NewLog(),
		Now:     clock.now,
		Revoker: pullRevoker{ca},
	}
	stages, err := ParseStages("session|encrypt(keyttl=5m)")
	if err != nil {
		t.Fatal(err)
	}
	gw, err := NewGateway("gw", Config{Stages: stages}, env, ordering.New("orderer-op", ordering.VisibilityEnvelope))
	if err != nil {
		t.Fatal(err)
	}
	vault := &payloadVault{}
	gw.Bind("deals", vault)
	w := frontOf(gw)

	if _, err := w.submit(memberRequest(t, gw.sessions, ps["alice"], "deals", []byte("pre-revocation"))); err != nil {
		t.Fatalf("pre-revocation submit: %v", err)
	}
	if _, err := OpenEnvelope(vault.parse(t, 0), "bob", ps["bob"].key); err != nil {
		t.Fatalf("bob cannot open the pre-revocation envelope: %v", err)
	}
	ca.Revoke(ps["bob"].cert.Serial)
	if _, err := w.submit(memberRequest(t, gw.sessions, ps["alice"], "deals", []byte("post-revocation"))); err != nil {
		t.Fatalf("post-revocation submit: %v", err)
	}
	envl := vault.parse(t, 1)
	if _, err := OpenEnvelope(envl, "bob", ps["bob"].key); !errors.Is(err, ErrNotRecipient) {
		t.Fatalf("revoked member opened the next envelope (epoch %d): %v", envl.Epoch, err)
	}
	if got, err := OpenEnvelope(envl, "alice", ps["alice"].key); err != nil || string(got) != "post-revocation" {
		t.Fatalf("alice read %q, %v", got, err)
	}
	if got := gw.revocationEpoch(); got != 1 {
		t.Fatalf("revocation epoch = %d, want 1", got)
	}

	// Submissions race the next revocation and the syncs it sets off, their
	// own and a notification's: none fails, and carol is out of the
	// envelope after them.
	const submitters, each = 4, 10
	reqs := make([][]*Request, submitters)
	for i := range reqs {
		for j := 0; j < each; j++ {
			reqs[i] = append(reqs[i], memberRequest(t, gw.sessions, ps["alice"], "deals", []byte{byte(i), byte(j)}))
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, submitters*each)
	for _, batch := range reqs {
		wg.Add(1)
		go func(batch []*Request) {
			defer wg.Done()
			for _, req := range batch {
				if _, err := w.submit(req); err != nil {
					errs <- err
				}
			}
		}(batch)
	}
	ca.Revoke(ps["carol"].cert.Serial)
	gw.syncRevocations()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("submit racing the revocation: %v", err)
	}
	if _, err := w.submit(memberRequest(t, gw.sessions, ps["alice"], "deals", []byte("last"))); err != nil {
		t.Fatalf("last submit: %v", err)
	}
	envl = vault.parse(t, 2+submitters*each)
	if _, err := OpenEnvelope(envl, "carol", ps["carol"].key); !errors.Is(err, ErrNotRecipient) {
		t.Fatalf("carol opened the envelope after her revocation: %v", err)
	}
	if got := gw.revocationEpoch(); got != 2 {
		t.Fatalf("revocation epoch = %d, want 2", got)
	}
}

// TestGatewayRevocationNotifyTopic exercises the pull path: a gateway
// whose revoker cannot push learns about revocations from the admin topic.
func TestGatewayRevocationNotifyTopic(t *testing.T) {
	clock := newFakeClock()
	ca, ps := enrollAt(t, clock.now, "alice", "bob")
	memberKeys := map[string]dcrypto.PublicKey{
		"alice": ps["alice"].key.Public(),
		"bob":   ps["bob"].key.Public(),
	}
	env := Env{
		CAKey:     ca.PublicKey(),
		Directory: StaticDirectory{"deals": memberKeys},
		Log:       audit.NewLog(),
		Now:       clock.now,
		Revoker:   pullRevoker{ca}, // no push hook: notify is the only channel
	}
	orderer := ordering.New("orderer-op", ordering.VisibilityEnvelope)
	gw, err := NewGateway("gw", revocableGatewayConfig(), env, orderer)
	if err != nil {
		t.Fatal(err)
	}
	gw.Bind("deals", &countingBackend{})
	w := frontOf(gw)

	grant, err := w.openAt(ps["bob"], clock.now())
	if err != nil {
		t.Fatal(err)
	}
	// Without push, the notification applies the delta before any request
	// would have.
	ca.Revoke(ps["bob"].cert.Serial)
	notice, err := w.notifyRevocation()
	if err != nil {
		t.Fatalf("notify revocation: %v", err)
	}
	if notice.SessionsRevoked != 1 || notice.Epoch != 1 {
		t.Fatalf("notice = %+v, want 1 session revoked at epoch 1", notice)
	}
	req := sessionRequest(ps["bob"], grant, "deals", []byte("x"))
	if _, err := w.submit(req); !errors.Is(err, ErrSessionRevoked) {
		t.Fatalf("submit after notify = %v, want ErrSessionRevoked", err)
	}
	// Idempotent: a second notification finds an empty delta.
	notice, err = w.notifyRevocation()
	if err != nil {
		t.Fatal(err)
	}
	if notice.SessionsRevoked != 0 || notice.Epoch != 1 {
		t.Fatalf("second notice = %+v, want empty delta at epoch 1", notice)
	}
}

// TestRevocationUnderConcurrentSubmitters drives many session submitters
// while certificates are revoked mid-flight: every request either succeeds
// or fails with a revocation-family error, and afterwards the revoked
// principals are locked out while the survivors still work. Run under
// -race this also proves the push sweep and admit's probe are data-race
// free.
func TestRevocationUnderConcurrentSubmitters(t *testing.T) {
	// "resolve" names the one revocation behaviour: admit probes the
	// revoker on every request while push sweeps run alongside.
	t.Run("resolve", func(t *testing.T) {
		clock := newFakeClock()
		names := []string{"alice", "bob", "carol", "dave"}
		ca, ps, mgr := revocableManager(t, clock, names...)
		stage, err := newSession(mgr)
		if err != nil {
			t.Fatal(err)
		}
		chain := newChain((&accept{}).handler, stage)

		grants := make(map[string]SessionGrant, len(names))
		for _, name := range names {
			grants[name] = openSession(t, mgr, ps[name])
		}

		const perWorker = 50
		var wg sync.WaitGroup
		errs := make(chan error, len(names)*perWorker)
		for _, name := range names {
			wg.Add(1)
			go func(p *principal, grant SessionGrant) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					req := sessionRequest(p, grant, "deals", []byte{byte(i)})
					if err := chain.execute(context.Background(), req); err != nil {
						errs <- err
					}
				}
			}(ps[name], grants[name])
		}
		// Revoke two principals while the submitters run, and push the
		// sweeps concurrently too.
		wg.Add(1)
		go func() {
			defer wg.Done()
			ca.Revoke(ps["alice"].cert.Serial)
			mgr.sweepRevoked()
			ca.Revoke(ps["carol"].cert.Serial)
			mgr.sweepRevoked()
		}()
		wg.Wait()
		close(errs)
		for err := range errs {
			if !errors.Is(err, ErrSessionRevoked) {
				t.Fatalf("concurrent submitter saw %v, want only ErrSessionRevoked failures", err)
			}
		}

		// Post-conditions: revoked out, survivors in, counters exact.
		for _, name := range []string{"alice", "carol"} {
			req := sessionRequest(ps[name], grants[name], "deals", []byte("x"))
			if err := chain.execute(context.Background(), req); !errors.Is(err, ErrSessionRevoked) {
				t.Fatalf("revoked %s = %v, want ErrSessionRevoked", name, err)
			}
		}
		for _, name := range []string{"bob", "dave"} {
			req := sessionRequest(ps[name], grants[name], "deals", []byte("x"))
			if err := chain.execute(context.Background(), req); err != nil {
				t.Fatalf("surviving %s rejected: %v", name, err)
			}
		}
		stats := mgr.stats()
		if stats.Revoked != 2 || stats.Live != 2 {
			t.Fatalf("stats = %+v, want 2 revoked / 2 live", stats)
		}
	})
}

// TestSessionCloseIdempotent is the regression test for the session.close
// gap: closing a token that was already evicted — by expiry, by a
// revocation sweep, or by a previous close — must succeed silently and
// must not skew any lifecycle counter.
func TestSessionCloseIdempotent(t *testing.T) {
	clock := newFakeClock()
	ca, ps, mgr := revocableManager(t, clock, "alice")
	stage, err := newSession(mgr)
	if err != nil {
		t.Fatal(err)
	}
	chain := newChain((&accept{}).handler, stage)
	submit := func(grant SessionGrant) error {
		return chain.execute(context.Background(), sessionRequest(ps["alice"], grant, "deals", []byte("x")))
	}

	// Close of a token that never existed.
	mgr.close("no-such-token")

	// Double close of a live session.
	g1 := openSession(t, mgr, ps["alice"])
	mgr.close(g1.Token)
	mgr.close(g1.Token)

	// Close after idle eviction: the expiry already counted, close adds
	// nothing.
	g2 := openSession(t, mgr, ps["alice"])
	clock.advance(3 * time.Minute)
	if err := submit(g2); !errors.Is(err, ErrSessionExpired) {
		t.Fatalf("idle session = %v, want ErrSessionExpired", err)
	}
	mgr.close(g2.Token)

	// Close after revocation eviction clears the tombstone: the token
	// degrades to an ordinary unknown one instead of answering
	// ErrSessionRevoked forever.
	g3 := openSession(t, mgr, ps["alice"])
	ca.Revoke(ps["alice"].cert.Serial)
	if err := submit(g3); !errors.Is(err, ErrSessionRevoked) {
		t.Fatalf("revoked session = %v, want ErrSessionRevoked", err)
	}
	mgr.close(g3.Token)
	if err := submit(g3); !errors.Is(err, ErrNoSession) {
		t.Fatalf("closed tombstone = %v, want ErrNoSession", err)
	}

	stats := mgr.stats()
	if stats.Live != 0 || stats.Opened != 3 || stats.Expired != 1 || stats.Evicted != 0 || stats.Revoked != 1 {
		t.Fatalf("counters skewed by closes: %+v", stats)
	}
}

// TestSessionCloseIdempotentOverTransport covers the wire form of the same
// gap: session.close for an evicted token replies ok, twice.
func TestSessionCloseIdempotentOverTransport(t *testing.T) {
	clock := newFakeClock()
	ca, ps := enrollAt(t, clock.now, "alice")
	env := Env{CAKey: ca.PublicKey(), Now: clock.now}
	orderer := ordering.New("op", ordering.VisibilityFull)
	gw, err := NewGateway("gw", Config{Stages: []StageConfig{
		{Name: StageSession, Params: map[string]string{"ttl": "10m", "idle": "2m"}},
	}}, env, orderer)
	if err != nil {
		t.Fatal(err)
	}
	w := frontOf(gw)
	grant, err := w.openAt(ps["alice"], clock.now())
	if err != nil {
		t.Fatal(err)
	}
	before := gw.Sessions().stats()
	for i := 0; i < 2; i++ {
		if err := w.close(grant.Token); err != nil {
			t.Fatalf("close %d: %v", i+1, err)
		}
	}
	if err := w.close("never-issued"); err != nil {
		t.Fatalf("close of never-issued token: %v", err)
	}
	after := gw.Sessions().stats()
	if after.Live != 0 || after.Opened != before.Opened ||
		after.Expired != before.Expired || after.Evicted != before.Evicted || after.Revoked != 0 {
		t.Fatalf("counters skewed by closes: before %+v, after %+v", before, after)
	}
}

// payloadVault collects committed transaction payloads for envelope
// inspection.
type payloadVault struct {
	mu       sync.Mutex
	payloads [][]byte
}

func (v *payloadVault) Name() string { return "vault" }

func (v *payloadVault) Commit(b ledger.Block) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, tx := range b.Txs {
		v.payloads = append(v.payloads, tx.Payload)
	}
	return nil
}

func (v *payloadVault) parse(t *testing.T, i int) Envelope {
	t.Helper()
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.payloads) <= i {
		t.Fatalf("vault holds %d payloads, want index %d", len(v.payloads), i)
	}
	envl, err := ParseEnvelope(v.payloads[i])
	if err != nil {
		t.Fatalf("ParseEnvelope: %v", err)
	}
	return envl
}

// TestEncryptRevokeMemberRacingSeal hammers the cached encrypt stage with
// concurrent sealers while members are revoked mid-flight. The invariant
// under test is install-time exclusion: once RevokeMember returns, every
// envelope sealed afterwards must exclude the revoked member — a racing
// key wrap may not smuggle the revoked identity into a fresh cached epoch
// (channelKeyFor's exclusion-generation re-check). Run under -race this
// also covers the lock discipline of the retry loop.
func TestEncryptRevokeMemberRacingSeal(t *testing.T) {
	clock := newFakeClock()
	_, ps := enrollAt(t, clock.now, "alice", "bob", "carol")
	members := map[string]dcrypto.PublicKey{
		"alice": ps["alice"].key.Public(),
		"bob":   ps["bob"].key.Public(),
		"carol": ps["carol"].key.Public(),
	}
	enc, err := newCachedEncrypt(StaticDirectory{"deals": members}, time.Hour, clock.now)
	if err != nil {
		t.Fatal(err)
	}
	chain := newChain((&accept{}).handler, enc)
	seal := func() (Envelope, error) {
		req := &Request{Channel: "deals", Principal: "alice", Payload: []byte("x")}
		req.authenticated = true
		if err := chain.execute(context.Background(), req); err != nil {
			return Envelope{}, err
		}
		return ParseEnvelope(req.Payload)
	}

	var bobRevoked, carolRevoked atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				// Sample the flags BEFORE sealing: if a revocation had
				// completed by then, the envelope must not include them.
				bobGone, carolGone := bobRevoked.Load(), carolRevoked.Load()
				envl, err := seal()
				if err != nil {
					t.Errorf("concurrent seal: %v", err)
					return
				}
				if _, err := OpenEnvelope(envl, "bob", ps["bob"].key); err == nil && bobGone {
					t.Errorf("envelope sealed after bob's revocation wraps a key for bob (epoch %d)", envl.Epoch)
					return
				}
				if _, err := OpenEnvelope(envl, "carol", ps["carol"].key); err == nil && carolGone {
					t.Errorf("envelope sealed after carol's revocation wraps a key for carol (epoch %d)", envl.Epoch)
					return
				}
			}
		}()
	}
	enc.RevokeMember("bob")
	bobRevoked.Store(true)
	enc.RevokeMember("carol")
	carolRevoked.Store(true)
	wg.Wait()

	// Steady state: only alice remains a recipient.
	envl, err := seal()
	if err != nil {
		t.Fatal(err)
	}
	if len(envl.Wraps) != dcrypto.WrappedKeySize {
		t.Fatalf("post-revocation table holds %d bytes of wraps, want alice's alone", len(envl.Wraps))
	}
	if _, err := OpenEnvelope(envl, "alice", ps["alice"].key); err != nil {
		t.Fatalf("surviving member cannot open: %v", err)
	}
}

// TestGatewayCloseDetachesRevocationPush pins the subscription lifecycle:
// a closed gateway stops receiving revocation pushes (no sync, no session
// eviction), while pull paths keep working.
func TestGatewayCloseDetachesRevocationPush(t *testing.T) {
	clock := newFakeClock()
	ca, ps := enrollAt(t, clock.now, "alice")
	env := Env{CAKey: ca.PublicKey(), Now: clock.now, Revoker: ca}
	cfg := Config{Stages: []StageConfig{
		{Name: StageSession, Params: map[string]string{"ttl": "10m", "idle": "5m"}},
	}}
	gw, err := NewGateway("gw", cfg, env, ordering.New("op", ordering.VisibilityFull))
	if err != nil {
		t.Fatal(err)
	}
	openSession(t, gw.Sessions(), ps["alice"])

	gw.Close()
	gw.Close() // idempotent
	ca.Revoke(ps["alice"].cert.Serial)
	if got := gw.Stats(); got.RevocationSweeps != 0 || got.SessionsRevoked != 0 {
		t.Fatalf("closed gateway still received the push: %+v", got)
	}
	// The pull path is unaffected: a direct sync still applies the delta.
	if n := gw.syncRevocations(); n != 1 {
		t.Fatalf("syncRevocations after Close = %d, want 1", n)
	}
}

// TestSessionOpenRacingRevocation stresses the Open/Revoke interleaving:
// whatever order a handshake and a revocation sweep land in, no session
// rooted in the revoked certificate may survive once the sweep has run —
// an Open that slipped past the unlocked fast-fail must be caught by the
// in-lock re-check (or evicted by a later sweep), never left resolvable.
func TestSessionOpenRacingRevocation(t *testing.T) {
	clock := newFakeClock()
	for i := 0; i < 60; i++ {
		name := fmt.Sprintf("org-%d", i)
		ca, ps, mgr := revocableManager(t, clock, name)
		hello, err := newSessionHelloAt(name, ps[name].cert, ps[name].key, clock.now())
		if err != nil {
			t.Fatal(err)
		}
		var grant SessionGrant
		var openErr error
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			grant, openErr = mgr.Open(hello)
		}()
		go func() {
			defer wg.Done()
			ca.Revoke(ps[name].cert.Serial)
			mgr.sweepRevoked()
		}()
		wg.Wait()
		// Settle: one more sweep covers the insert-then-revoke order.
		mgr.sweepRevoked()
		// The table is asked first: admit's own probe would catch a
		// survivor the sweeps missed.
		if n := mgr.Len(); n != 0 {
			t.Fatalf("iteration %d: %d sessions survived the sweep", i, n)
		}
		if openErr != nil {
			if !errors.Is(openErr, ErrSessionRevoked) {
				t.Fatalf("iteration %d: Open = %v, want ErrSessionRevoked", i, openErr)
			}
			continue
		}
		if _, _, err := admitToken(mgr, grant.Token, ""); err == nil {
			t.Fatalf("iteration %d: revoked certificate kept a resolvable session", i)
		}
	}
}

// TestRevocationRotationFlowKeepsEnvelopeMembership pins the
// superseded-cert semantics end to end: routine key rotation (re-enroll,
// then revoke the old serial) kills sessions rooted in the old
// certificate but must NOT exclude the identity from envelopes, while an
// outright revocation does.
func TestRevocationRotationFlowKeepsEnvelopeMembership(t *testing.T) {
	clock := newFakeClock()
	ca, ps := enrollAt(t, clock.now, "alice", "bob")
	memberKeys := map[string]dcrypto.PublicKey{
		"alice": ps["alice"].key.Public(),
		"bob":   ps["bob"].key.Public(),
	}
	env := Env{
		CAKey:     ca.PublicKey(),
		Directory: StaticDirectory{"deals": memberKeys},
		Log:       audit.NewLog(),
		Now:       clock.now,
		Revoker:   ca,
	}
	orderer := ordering.New("orderer-op", ordering.VisibilityEnvelope)
	gw, err := NewGateway("gw", revocableGatewayConfig(), env, orderer)
	if err != nil {
		t.Fatal(err)
	}
	vault := &payloadVault{}
	gw.Bind("deals", vault)
	w := frontOf(gw)
	aliceGrant, err := w.openAt(ps["alice"], clock.now())
	if err != nil {
		t.Fatal(err)
	}
	submit := func(payload string) Envelope {
		t.Helper()
		req := sessionRequest(ps["alice"], aliceGrant, "deals", []byte(payload))
		if _, err := w.submit(req); err != nil {
			t.Fatalf("submit: %v", err)
		}
		return vault.parse(t, len(vault.payloads)-1)
	}

	// Rotation: bob re-enrolls, then the CA revokes his old serial. Bob's
	// old-cert session dies (serial-exact), but he stays an envelope
	// recipient with no interruption.
	bobOldGrant, err := w.openAt(ps["bob"], clock.now())
	if err != nil {
		t.Fatal(err)
	}
	oldCert := ps["bob"].cert
	renewed, err := ca.Enroll("bob", ps["bob"].key.Public())
	if err != nil {
		t.Fatal(err)
	}
	ps["bob"].cert = renewed
	ca.Revoke(oldCert.Serial)
	stale := sessionRequest(ps["bob"], bobOldGrant, "deals", []byte("x"))
	if _, err := w.submit(stale); !errors.Is(err, ErrSessionRevoked) {
		t.Fatalf("old-cert session after rotation = %v, want ErrSessionRevoked", err)
	}
	if _, err := w.openAt(ps["bob"], clock.now()); err != nil {
		t.Fatalf("re-open under renewed cert: %v", err)
	}
	envl := submit("post-rotation")
	if _, err := OpenEnvelope(envl, "bob", ps["bob"].key); err != nil {
		t.Fatalf("rotated member lost envelope membership: %v", err)
	}

	// Outright withdrawal: revoking bob's current cert excludes him.
	ca.Revoke(renewed.Serial)
	envl = submit("post-withdrawal")
	if _, err := OpenEnvelope(envl, "bob", ps["bob"].key); !errors.Is(err, ErrNotRecipient) {
		t.Fatalf("withdrawn member still a recipient: %v", err)
	}
}

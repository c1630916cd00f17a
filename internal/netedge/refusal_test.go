package netedge

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"strings"
	"sync"
	"testing"
	"time"

	"dltprivacy/internal/anoncred"
	"dltprivacy/internal/audit"
	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/ledger"
	"dltprivacy/internal/middleware"
	"dltprivacy/internal/ordering"
	"dltprivacy/internal/paillier"
	"dltprivacy/internal/pki"
	"dltprivacy/internal/tee"
	"dltprivacy/internal/telemetry"
)

// refusedSeries are the gateway's refusal series no case below drives, and
// why no pipeline behind the edge can reach them.
var refusedSeries = map[string]string{
	"encrypt/not_authenticated":        "encrypt needs a principal before it, and the stages that give one refuse a request they did not authenticate",
	"encrypt/not_recipient":            "the encrypt stage seals for the channel; only a reader's OpenEnvelope returns ErrNotRecipient",
	"session.open/certificate_revoked": "a revoked certificate's handshake is refused as session_revoked, before any pki check",
	"batch/no_group_key":               "only a chain assembled by hand around Config.Build's wiring hands groupseal a request without a deferred key",
	"chain/bad_config":                 "configuration is refused when the gateway is built, before it serves a request",
	"session.open/other":               "the catch-all, with no sentinel: every handshake refusal has a row of its own",
}

// TestEveryRefusalSurvivesTheSocket drives a real loopback edge through one
// refusal per series of confmw_gateway_rejected_total that a pipeline can
// reach. On the client each is a *WireError whose label is the one series
// that moved on /metrics, and errors.Is matches the row's sentinel, which
// the case names itself; refusedSeries lists the rest, and together they
// cover the family.
func TestEveryRefusalSurvivesTheSocket(t *testing.T) {
	driven := make(map[string]bool)
	var vocabulary []string
	expect := func(t *testing.T, e *refusalEdge, series string, sentinel error, do func() error) {
		t.Helper()
		before := e.rejected(t)
		err := do()
		moved := e.rejected(t)
		for s, n := range before {
			if moved[s] == n {
				delete(moved, s)
			}
		}
		if len(moved) != 1 || moved[series] != before[series]+1 {
			t.Errorf("%s: the refusal (%v) moved %v, want that one series by 1", series, err, moved)
		}
		var we *WireError
		if !errors.As(err, &we) {
			t.Fatalf("%s: got %T %v, want a *WireError", series, err, err)
		}
		if we.Label != series {
			t.Errorf("%s: the error frame is labelled %q", series, we.Label)
		}
		if sentinel == nil {
			if errors.Unwrap(err) != nil {
				t.Errorf("%s: a catch-all refusal unwraps to %v", series, errors.Unwrap(err))
			}
		} else if !errors.Is(err, sentinel) {
			t.Errorf("%s: errors.Is(%v, %v) is false across the socket", series, err, sentinel)
		}
		driven[series] = true
		if vocabulary == nil {
			for s := range before {
				vocabulary = append(vocabulary, s)
			}
		}
	}

	t.Run("session|authn", func(t *testing.T) { sessionRefusals(t, expect) })
	// A request that names no session is the session stage's to refuse.
	t.Run("session|encrypt", func(t *testing.T) {
		e := serveRefusals(t, "session|encrypt", middleware.Env{CAKey: mustCA(t).PublicKey(),
			Directory: middleware.StaticDirectory{"deals": {}}}, acceptingOrderer())
		expect(t, e, "session/no_session", middleware.ErrNoSession, func() error {
			return e.submit(&middleware.Request{Channel: "deals", Principal: "alice", Payload: []byte("x")})
		})
	})
	t.Run("anoncred|zkproof|attest", func(t *testing.T) { privacyRefusals(t, expect) })
	t.Run("orderer refusals", func(t *testing.T) { ordererRefusals(t, expect) })
	t.Run("unknown channel", func(t *testing.T) { unknownChannelRefusals(t, expect) })
	t.Run("unknown topic", func(t *testing.T) { unknownTopicRefusals(t, expect) })

	if len(vocabulary) == 0 {
		t.Fatal("no confmw_gateway_rejected_total series read back")
	}
	for _, s := range vocabulary {
		if why, listed := refusedSeries[s]; listed == driven[s] {
			t.Errorf("series %s: driven %v, listed as unreachable %v (%q)", s, driven[s], listed, why)
		}
	}
	if len(vocabulary) != len(driven)+len(refusedSeries) {
		t.Errorf("the family has %d series; %d driven + %d listed", len(vocabulary), len(driven), len(refusedSeries))
	}
}

// expectFunc runs do against e and checks its refusal counted as series and
// arrived matching sentinel (see TestEveryRefusalSurvivesTheSocket).
type expectFunc func(t *testing.T, e *refusalEdge, series string, sentinel error, do func() error)

// refusalEdge is one gateway behind a loopback edge, with a client and the
// registry its /metrics reads.
type refusalEdge struct {
	reg *telemetry.Registry
	srv *Server
	c   *Client
}

func serveRefusals(t *testing.T, stages string, env middleware.Env, orderer ordering.Backend) *refusalEdge {
	t.Helper()
	return serveRefusalsAt(t, "127.0.0.1:0", stages, env, orderer)
}

// serveRefusalsAt is serveRefusals listening on addr.
func serveRefusalsAt(t *testing.T, addr, stages string, env middleware.Env, orderer ordering.Backend) *refusalEdge {
	t.Helper()
	stageList, err := middleware.ParseStages(stages)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := middleware.NewGateway("refusal-gw", middleware.Config{Stages: stageList}, env, orderer)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	if err := gw.RegisterMetrics(reg); err != nil {
		t.Fatal(err)
	}
	srv, err := Listen(addr, gw)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	e := &refusalEdge{reg: reg, srv: srv}
	e.c = e.dial(t)
	return e
}

func (e *refusalEdge) dial(t *testing.T) *Client {
	t.Helper()
	c, err := Dial(e.srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func (e *refusalEdge) submit(req *middleware.Request) error {
	_, err := e.c.Submit(context.Background(), req)
	return err
}

// open runs a handshake through h over e's client, sending what tamper makes
// of each hello frame.
func (e *refusalEdge) open(h *middleware.Handshaker, principal string, cert pki.Certificate, key *dcrypto.PrivateKey, tamper func([]byte) []byte) error {
	_, err := h.Open(context.Background(), principal, cert, key, func(ctx context.Context, hello []byte) ([]byte, error) {
		return e.c.Call(ctx, middleware.TopicSessionOpen, tamper(hello))
	})
	return err
}

// rejected reads the confmw_gateway_rejected_total family off /metrics,
// keyed "stage/reason".
func (e *refusalEdge) rejected(t *testing.T) map[string]uint64 {
	t.Helper()
	var sb strings.Builder
	if err := e.reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]uint64)
	for _, line := range strings.Split(sb.String(), "\n") {
		rest, ok := strings.CutPrefix(line, `confmw_gateway_rejected_total{stage="`)
		if !ok {
			continue
		}
		var n uint64
		stage, rest, _ := strings.Cut(rest, `",reason="`)
		reason, count, _ := strings.Cut(rest, `"} `)
		if _, err := fmt.Sscan(count, &n); err != nil {
			t.Fatalf("unreadable series %q: %v", line, err)
		}
		out[stage+"/"+reason] = n
	}
	return out
}

func mustCA(t *testing.T, opts ...pki.Option) *pki.CA {
	t.Helper()
	ca, err := pki.NewCA("refusal-ca", opts...)
	if err != nil {
		t.Fatal(err)
	}
	return ca
}

type identity struct {
	name string
	key  *dcrypto.PrivateKey
	cert pki.Certificate
}

func enrollWith(t *testing.T, ca *pki.CA, name string) identity {
	t.Helper()
	key, err := dcrypto.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	cert, err := ca.Enroll(name, key.Public())
	if err != nil {
		t.Fatal(err)
	}
	return identity{name, key, cert}
}

// onSession is a request on grant's token, MAC'd under its key.
func onSession(grant middleware.SessionGrant, principal, payload string) *middleware.Request {
	req := &middleware.Request{Channel: "deals", Principal: principal, Payload: []byte(payload), SessionToken: grant.Token}
	middleware.MACRequest(req, grant.MacKey)
	return req
}

func same(b []byte) []byte { return b }

// sessionRefusals covers the session, decode and handshake rows on
// one gateway whose clock the test moves; authn, a pass-through, refuses
// nothing.
func sessionRefusals(t *testing.T, expect expectFunc) {
	var mu sync.Mutex
	now := time.Now()
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	set := func(at time.Time) { mu.Lock(); now = at; mu.Unlock() }
	ca := mustCA(t, pki.WithClock(clock))
	alice, bob, dave := enrollWith(t, ca, "alice"), enrollWith(t, ca, "bob"), enrollWith(t, ca, "dave")
	start := clock()
	set(start.Add(-2 * 365 * 24 * time.Hour))
	old := enrollWith(t, ca, "old")
	set(start)
	foreign := enrollWith(t, mustCA(t, pki.WithClock(clock)), "alice")

	e := serveRefusals(t, "session(ttl=1h,idle=1h,revokecheck=resolve)|authn",
		middleware.Env{CAKey: ca.PublicKey(), Revoker: ca, Now: clock}, acceptingOrderer())
	ctx := context.Background()
	grant, err := e.c.OpenSession(ctx, "alice", alice.cert, alice.key, "")
	if err != nil {
		t.Fatal(err)
	}
	daveGrant, err := e.c.OpenSession(ctx, "dave", dave.cert, dave.key, "")
	if err != nil {
		t.Fatal(err)
	}

	expect(t, e, "decode/bad_frame", nil, func() error {
		_, err := e.c.SubmitRaw(ctx, []byte("garbage"))
		return err
	})
	expect(t, e, "session/no_session", middleware.ErrNoSession, func() error {
		return e.submit(onSession(middleware.SessionGrant{Token: strings.Repeat("0", 64), MacKey: grant.MacKey}, "alice", "x"))
	})
	other := e.dial(t)
	expect(t, e, "session/session_bound", middleware.ErrSessionBound, func() error {
		_, err := other.Submit(ctx, onSession(grant, "alice", "x"))
		return err
	})
	expect(t, e, "session/principal_mismatch", middleware.ErrIdentityMismatch, func() error {
		return e.submit(onSession(grant, "bob", "x"))
	})
	expect(t, e, "session/bad_mac", middleware.ErrBadMAC, func() error {
		req := onSession(grant, "alice", "x")
		req.Payload = []byte("y")
		return e.submit(req)
	})

	expect(t, e, "session.open/bad_frame", middleware.ErrBadFrame, func() error {
		_, err := e.c.Call(ctx, middleware.TopicSessionOpen, []byte("garbage"))
		return err
	})
	expect(t, e, "session.open/stale_hello", middleware.ErrStaleHello, func() error {
		return e.open(&middleware.Handshaker{Now: func() time.Time { return start.Add(-time.Hour) }}, "alice", alice.cert, alice.key, same)
	})
	var hello []byte
	if err := e.open(new(middleware.Handshaker), "bob", bob.cert, bob.key, func(b []byte) []byte {
		hello = append([]byte(nil), b...)
		return b
	}); err != nil {
		t.Fatal(err)
	}
	expect(t, e, "session.open/replayed_hello", middleware.ErrReplayedHello, func() error {
		_, err := e.c.Call(ctx, middleware.TopicSessionOpen, hello)
		return err
	})
	expect(t, e, "session.open/identity_mismatch", middleware.ErrIdentityMismatch, func() error {
		return e.open(new(middleware.Handshaker), "bob", alice.cert, alice.key, same)
	})
	expect(t, e, "session.open/bad_signature", middleware.ErrBadSignature, func() error {
		return e.open(new(middleware.Handshaker), "alice", alice.cert, bob.key, same)
	})
	expect(t, e, "session.open/bad_certificate", pki.ErrBadCertificate, func() error {
		return e.open(new(middleware.Handshaker), "alice", foreign.cert, foreign.key, same)
	})
	expect(t, e, "session.open/certificate_expired", pki.ErrExpired, func() error {
		return e.open(new(middleware.Handshaker), "old", old.cert, old.key, same)
	})
	// A resume hello (the second open through one Handshaker) whose tag is
	// not the master secret's: the tag's last byte sits before the trace ID.
	resumer := new(middleware.Handshaker)
	if err := e.open(resumer, "alice", alice.cert, alice.key, same); err != nil {
		t.Fatal(err)
	}
	expect(t, e, "session.open/bad_mac", middleware.ErrBadMAC, func() error {
		return e.open(resumer, "alice", alice.cert, alice.key, func(b []byte) []byte {
			b = append([]byte(nil), b...)
			b[len(b)-2] ^= 1
			return b
		})
	})

	ca.Revoke(dave.cert.Serial)
	expect(t, e, "session/session_revoked", middleware.ErrSessionRevoked, func() error {
		return e.submit(onSession(daveGrant, "dave", "x"))
	})
	expect(t, e, "session.open/session_revoked", middleware.ErrSessionRevoked, func() error {
		return e.open(new(middleware.Handshaker), "dave", dave.cert, dave.key, same)
	})
	set(start.Add(2 * time.Hour))
	expect(t, e, "session/session_expired", middleware.ErrSessionExpired, func() error {
		return e.submit(onSession(grant, "alice", "x"))
	})
}

// privacyRefusals covers the anoncred, zkproof and attest rows: each request
// presents a fresh one-show credential, and its proofs bind to the
// pseudonym the presentation fixes.
func privacyRefusals(t *testing.T, expect expectFunc) {
	attrs := []string{"role=member"}
	issuer := anoncred.NewIssuer("consortium")
	credKey, err := issuer.RegisterAttributeSet(attrs)
	if err != nil {
		t.Fatal(err)
	}
	wallet, err := anoncred.NewWallet()
	if err != nil {
		t.Fatal(err)
	}
	if err := wallet.RequestTokens(issuer, attrs, 8); err != nil {
		t.Fatal(err)
	}
	man, err := tee.NewManufacturer()
	if err != nil {
		t.Fatal(err)
	}
	enclave, err := man.Provision()
	if err != nil {
		t.Fatal(err)
	}
	prog := tee.Program{Name: "echo", Version: "1", Run: func(in, st []byte) ([]byte, []byte, error) { return in, st, nil }}
	if err := enclave.Load(prog); err != nil {
		t.Fatal(err)
	}
	output, att, err := enclave.Execute([]byte("settlement"))
	if err != nil {
		t.Fatal(err)
	}
	e := serveRefusals(t, "anoncred(attrs=role=member,scope=audit)|zkproof(bits=16)|attest(bind=output)", middleware.Env{
		AnonCredKey: credKey,
		Attestation: &middleware.AttestationPolicy{Manufacturer: man.PublicKey(), Measurement: prog.Measurement()},
	}, acceptingOrderer())
	presented := func(payload []byte, proof bool) *middleware.Request {
		t.Helper()
		req := &middleware.Request{Channel: "deals", Payload: payload}
		if _, err := middleware.AttachPresentation(req, wallet, attrs, "audit"); err != nil {
			t.Fatal(err)
		}
		if proof {
			if _, err := middleware.AttachRangeProof(req, big.NewInt(421), 16); err != nil {
				t.Fatal(err)
			}
		}
		return req
	}

	expect(t, e, "anoncred/credential_required", middleware.ErrCredentialRequired, func() error {
		return e.submit(&middleware.Request{Channel: "deals", Principal: "nobody", Payload: output})
	})
	spent := presented(output, false)
	expect(t, e, "zkproof/proof_required", middleware.ErrProofRequired, func() error { return e.submit(spent) })
	expect(t, e, "anoncred/credential_rejected", middleware.ErrCredentialRejected, func() error {
		replay := &middleware.Request{Channel: "deals", Principal: spent.Principal, Payload: output,
			Meta: map[string]string{middleware.MetaAnonCred: spent.Meta[middleware.MetaAnonCred]}}
		return e.submit(replay)
	})
	expect(t, e, "zkproof/proof_invalid", middleware.ErrProofInvalid, func() error {
		req := presented(output, false)
		// A proof bound to another channel does not verify on this one.
		elsewhere := &middleware.Request{Channel: "elsewhere", Principal: req.Principal}
		if _, err := middleware.AttachRangeProof(elsewhere, big.NewInt(421), 16); err != nil {
			t.Fatal(err)
		}
		req.Meta[middleware.MetaZKProof] = elsewhere.Meta[middleware.MetaZKProof]
		return e.submit(req)
	})
	expect(t, e, "attest/attestation_required", middleware.ErrAttestationRequired, func() error {
		return e.submit(presented(output, true))
	})
	expect(t, e, "attest/attestation_rejected", middleware.ErrAttestationRejected, func() error {
		req := presented([]byte("not what the enclave said"), true)
		if err := middleware.AttachAttestation(req, att); err != nil {
			t.Fatal(err)
		}
		return e.submit(req)
	})
}

// ordererRefusals covers the rows an ordering backend's refusal lands in,
// and the stages that stand between the chain and the backend.
func ordererRefusals(t *testing.T, expect expectFunc) {
	orderer := &refusingOrderer{}
	e := serveRefusals(t, "audit", middleware.Env{Log: audit.NewHistory()}, orderer)
	for _, c := range []struct {
		series   string
		refusal  error
		sentinel error
	}{
		{"order/no_leader", fmt.Errorf("shard 0: %w", ordering.ErrNoLeader), ordering.ErrNoLeader},
		{"order/no_quorum", fmt.Errorf("shard 0: %w", ordering.ErrNoQuorum), ordering.ErrNoQuorum},
		{"chain/other", errors.New("disk full"), nil},
	} {
		orderer.refuse(c.refusal)
		expect(t, e, c.series, c.sentinel, func() error {
			return e.submit(&middleware.Request{Channel: "deals", Principal: "p", Payload: []byte("x")})
		})
	}

	orderer = &refusingOrderer{}
	orderer.refuse(errors.New("disk full"))
	e = serveRefusals(t, "batch(size=1)", middleware.Env{}, orderer)
	expect(t, e, "batch/release_failed", middleware.ErrBatchRelease, func() error {
		return e.submit(&middleware.Request{Channel: "deals", Principal: "p", Payload: []byte("x")})
	})

	collector, err := paillier.GenerateKey(512)
	if err != nil {
		t.Fatal(err)
	}
	e = serveRefusals(t, "aggregate(size=1)", middleware.Env{Aggregator: &collector.PublicKey}, orderer)
	expect(t, e, "aggregate/bad_aggregand", middleware.ErrBadAggregand, func() error {
		return e.submit(&middleware.Request{Channel: "deals", Principal: "p", Payload: []byte("x")})
	})
	expect(t, e, "aggregate/release_failed", middleware.ErrAggregateRelease, func() error {
		payload, err := middleware.EncodeAggregand(&collector.PublicKey, big.NewInt(7))
		if err != nil {
			t.Fatal(err)
		}
		return e.submit(&middleware.Request{Channel: "deals", Principal: "p", Payload: payload})
	})
}

// unknownChannelRefusals covers a row a gateway refuses on its own,
// whatever its stages: a channel its directory does not know.
func unknownChannelRefusals(t *testing.T, expect expectFunc) {
	e := serveRefusals(t, "audit", middleware.Env{Directory: middleware.StaticDirectory{"deals": {}}, Log: audit.NewHistory()}, acceptingOrderer())
	expect(t, e, "order/unknown_channel", middleware.ErrUnknownChannel, func() error {
		return e.submit(&middleware.Request{Channel: "elsewhere", Principal: "p", Payload: []byte("x")})
	})
}

// unknownTopicRefusals covers the other: a topic the edge does not serve,
// here one it once served.
func unknownTopicRefusals(t *testing.T, expect expectFunc) {
	e := serveRefusals(t, "audit", middleware.Env{Directory: middleware.StaticDirectory{"deals": {}}, Log: audit.NewHistory()}, acceptingOrderer())
	expect(t, e, "wire/unknown_topic", nil, func() error {
		_, err := e.c.Call(context.Background(), "shard.rebalance", nil)
		return err
	})
}

// acceptingOrderer is a solo orderer with a consumer on "deals".
func acceptingOrderer() ordering.Backend {
	ord := ordering.New("op", ordering.VisibilityEnvelope)
	ord.Subscribe("deals", func(ledger.Block) error { return nil })
	return ord
}

// refusingOrderer refuses every transaction with the error it was last given.
type refusingOrderer struct {
	mu  sync.Mutex
	err error
}

func (o *refusingOrderer) refuse(err error) { o.mu.Lock(); o.err = err; o.mu.Unlock() }

func (o *refusingOrderer) Submit(ledger.Transaction) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.err
}

func (o *refusingOrderer) Subscribe(string, ordering.DeliverFunc) {}

func (o *refusingOrderer) Operators() []string { return []string{"refusing"} }

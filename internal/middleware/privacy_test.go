package middleware

import (
	"context"
	"errors"
	"math/big"
	"slices"
	"strings"
	"testing"

	"dltprivacy/internal/anoncred"
	"dltprivacy/internal/audit"
	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/ledger"
	"dltprivacy/internal/ordering"
	"dltprivacy/internal/paillier"
	"dltprivacy/internal/tee"
	"dltprivacy/internal/telemetry"
)

// runStage invokes one stage directly with a pass-through terminal,
// reporting whether the request reached it.
func runStage(t *testing.T, s Stage, req *Request) (passed bool, err error) {
	t.Helper()
	err = s.Handle(context.Background(), req, func(ctx context.Context, r *Request) error {
		passed = true
		return nil
	})
	return passed, err
}

func TestZKProofStageVerifiesRange(t *testing.T) {
	z, err := newZKProofRange(16, "")
	if err != nil {
		t.Fatal(err)
	}
	req := &Request{Channel: "ch", Principal: "alice"}
	if _, err := AttachRangeProof(req, big.NewInt(777), 16); err != nil {
		t.Fatal(err)
	}
	passed, err := runStage(t, z, req)
	if err != nil || !passed {
		t.Fatalf("valid claim rejected: %v", err)
	}
	// The bulky proof is consumed; only the compact note rides on.
	if note := req.Meta[MetaZKProof]; !strings.HasPrefix(note, "range/16 verified") {
		t.Fatalf("meta note = %q", note)
	}
}

func TestZKProofStageBindsPrincipalAndChannel(t *testing.T) {
	z, err := newZKProofRange(16, "")
	if err != nil {
		t.Fatal(err)
	}
	// A claim proved by alice replayed under bob's identity fails: the
	// transcript context covers (channel, principal).
	req := &Request{Channel: "ch", Principal: "alice"}
	if _, err := AttachRangeProof(req, big.NewInt(777), 16); err != nil {
		t.Fatal(err)
	}
	req.Principal = "bob"
	if _, err := runStage(t, z, req); !errors.Is(err, ErrProofInvalid) {
		t.Fatalf("cross-principal replay = %v, want ErrProofInvalid", err)
	}
}

func TestZKProofStageRejectsHostileClaims(t *testing.T) {
	z, err := newZKProofRange(4, "")
	if err != nil {
		t.Fatal(err)
	}
	// None of these may panic: every decoded group element is sanitized
	// before curve arithmetic.
	hostile := []string{
		`not json`,
		`{}`,
		`{"Proof":{"Bits":4}}`,
		`{"Comm":{"P":{"X":0}},"Proof":{"Bits":4,"BitComms":[{},{},{},{}],"BitProofs":[{},{},{},{}]}}`,
		`{"Comm":{"P":{"X":1,"Y":2}},"Proof":{"Bits":4,"BitComms":[{},{},{},{}],"BitProofs":[{},{},{},{}]}}`,
		`{"Comm":{"P":{"X":99999999999999999999999999999999999999999999999999999999999999999999999999999999,"Y":1}},"Proof":{"Bits":4,"BitComms":[{},{},{},{}],"BitProofs":[{},{},{},{}]}}`,
	}
	for _, blob := range hostile {
		req := &Request{Channel: "ch", Principal: "alice", Meta: map[string]string{MetaZKProof: blob}}
		if _, err := runStage(t, z, req); !errors.Is(err, ErrProofInvalid) {
			t.Fatalf("hostile claim %q = %v, want ErrProofInvalid", blob, err)
		}
	}
	// Missing entirely is its own error.
	if _, err := runStage(t, z, &Request{Channel: "ch"}); !errors.Is(err, ErrProofRequired) {
		t.Fatalf("missing claim = %v, want ErrProofRequired", err)
	}
}

func TestZKProofStageChannelGate(t *testing.T) {
	z, err := newZKProofRange(16, "gated")
	if err != nil {
		t.Fatal(err)
	}
	// Other channels pass through proof-less; the gated one does not.
	passed, err := runStage(t, z, &Request{Channel: "open"})
	if err != nil || !passed {
		t.Fatalf("ungated channel blocked: %v", err)
	}
	if _, err := runStage(t, z, &Request{Channel: "gated"}); !errors.Is(err, ErrProofRequired) {
		t.Fatalf("gated channel = %v, want ErrProofRequired", err)
	}
}

func newTestWallet(t *testing.T, attrs []string) (*anoncred.Wallet, *anonCredStage) {
	t.Helper()
	issuer := anoncred.NewIssuer("test-issuer")
	key, err := issuer.RegisterAttributeSet(attrs)
	if err != nil {
		t.Fatal(err)
	}
	w, err := anoncred.NewWallet()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RequestTokens(issuer, attrs, 8); err != nil {
		t.Fatal(err)
	}
	stage, err := newAnonCred(key, attrs, "audit", true)
	if err != nil {
		t.Fatal(err)
	}
	return w, stage
}

func TestAnonCredStageAuthenticates(t *testing.T) {
	attrs := []string{"role=member"}
	w, stage := newTestWallet(t, attrs)
	req := &Request{Channel: "ch"}
	nym, err := AttachPresentation(req, w, attrs, "audit")
	if err != nil {
		t.Fatal(err)
	}
	passed, err := runStage(t, stage, req)
	if err != nil || !passed {
		t.Fatalf("valid presentation rejected: %v", err)
	}
	if !req.authenticated {
		t.Fatal("request not marked authenticated")
	}
	if req.Principal != nym || req.Meta[MetaNym] != nym {
		t.Fatalf("principal %q / nym meta %q, want %q", req.Principal, req.Meta[MetaNym], nym)
	}
	if req.Meta[MetaAnonCred] != "present/audit" {
		t.Fatalf("anoncred note = %q", req.Meta[MetaAnonCred])
	}
	if stage.shown() != 1 {
		t.Fatalf("Shown() = %d", stage.shown())
	}
}

func TestAnonCredStageRejectsReplayAndMismatch(t *testing.T) {
	attrs := []string{"role=member"}
	w, stage := newTestWallet(t, attrs)

	req := &Request{Channel: "ch"}
	if _, err := AttachPresentation(req, w, attrs, "audit"); err != nil {
		t.Fatal(err)
	}
	blob, principal := req.Meta[MetaAnonCred], req.Principal
	if _, err := runStage(t, stage, req); err != nil {
		t.Fatal(err)
	}
	// Replaying the spent presentation burns on the one-show registry.
	replay := &Request{Channel: "ch", Principal: principal, Meta: map[string]string{MetaAnonCred: blob}}
	if _, err := runStage(t, stage, replay); !errors.Is(err, ErrCredentialRejected) {
		t.Fatalf("replay = %v, want ErrCredentialRejected", err)
	}

	// Wrong scope: presented for another context.
	other := &Request{Channel: "ch"}
	if _, err := AttachPresentation(other, w, attrs, "not-audit"); err != nil {
		t.Fatal(err)
	}
	if _, err := runStage(t, stage, other); !errors.Is(err, ErrCredentialRejected) {
		t.Fatalf("wrong scope = %v, want ErrCredentialRejected", err)
	}

	// Principal not the presentation pseudonym.
	forged := &Request{Channel: "ch"}
	if _, err := AttachPresentation(forged, w, attrs, "audit"); err != nil {
		t.Fatal(err)
	}
	forged.Principal = "mallory"
	if _, err := runStage(t, stage, forged); !errors.Is(err, ErrCredentialRejected) {
		t.Fatalf("principal mismatch = %v, want ErrCredentialRejected", err)
	}

	// No presentation at all on a required stage.
	if _, err := runStage(t, stage, &Request{Channel: "ch"}); !errors.Is(err, ErrCredentialRequired) {
		t.Fatalf("missing presentation = %v, want ErrCredentialRequired", err)
	}

	// Hostile points must not panic.
	for _, blob := range []string{
		`{"Nym":{"X":1,"Y":1}}`,
		`{"Nym":{"X":0},"Sig":{},"Comm":{},"Link":{}}`,
	} {
		hostile := &Request{Channel: "ch", Principal: "x", Meta: map[string]string{MetaAnonCred: blob}}
		if _, err := runStage(t, stage, hostile); !errors.Is(err, ErrCredentialRejected) {
			t.Fatalf("hostile presentation %q = %v, want ErrCredentialRejected", blob, err)
		}
	}
}

func TestAnonCredStagePassesAuthenticatedTraffic(t *testing.T) {
	attrs := []string{"role=member"}
	_, stage := newTestWallet(t, attrs)
	// A request another authenticator already vouched for passes without
	// a presentation: credential and certificate traffic share pipelines.
	req := &Request{Channel: "ch", Principal: "alice"}
	req.authenticated = true
	passed, err := runStage(t, stage, req)
	if err != nil || !passed {
		t.Fatalf("pre-authenticated request blocked: %v", err)
	}
}

// TestOptionalCredentialLeavesBareRequestsToTheSession pins what
// anoncred(require=off) admits: a credential or a session, never a request
// with neither. The stage gives no principal in that mode, so a pipeline in
// which only a pass-through follows it is refused at Build, and with a
// session stage after it a bare request is refused there and orders nothing.
func TestOptionalCredentialLeavesBareRequestsToTheSession(t *testing.T) {
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
	if err := wallet.RequestTokens(issuer, attrs, 1); err != nil {
		t.Fatal(err)
	}
	ca, ps := enroll(t, "alice")
	env := Env{AnonCredKey: credKey, CAKey: ca.PublicKey(), Log: audit.NewLog(),
		Directory: StaticDirectory{"deals": {}}}
	gateway := func(stages string) (*Gateway, error) {
		sc, err := ParseStages(stages)
		if err != nil {
			t.Fatal(err)
		}
		return NewGateway("gw-optional", Config{Stages: sc}, env, ordering.New("orderer-op", ordering.VisibilityEnvelope))
	}
	const optional = "anoncred(attrs=role=member,scope=audit,require=off)"
	if _, err := gateway(optional + "|authn|audit"); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("%s|authn|audit built (%v): a bare request would pass every stage", optional, err)
	}

	gw, err := gateway(optional + "|session|authn|audit")
	if err != nil {
		t.Fatal(err)
	}
	var creators []string
	gw.Bind("deals", backendFunc{name: "recorder", commit: func(b ledger.Block) error {
		for _, tx := range b.Txs {
			creators = append(creators, tx.Creator)
		}
		return nil
	}})
	w := frontOf(gw)
	_, err = w.submit(&Request{Channel: "deals", Principal: "alice", Payload: []byte("bare")})
	if !errors.Is(err, ErrNoSession) || RejectLabel(err) != "session/no_session" {
		t.Fatalf("bare request = %v (%q), want ErrNoSession as session/no_session", err, RejectLabel(err))
	}
	grant, err := w.open(ps["alice"])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.submit(sessionRequest(ps["alice"], grant, "deals", []byte("session"))); err != nil {
		t.Fatalf("session request refused: %v", err)
	}
	req := &Request{Channel: "deals", Payload: []byte("credential")}
	nym, err := AttachPresentation(req, wallet, attrs, "audit")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.submit(req); err != nil {
		t.Fatalf("credential request refused: %v", err)
	}
	if want := []string{"alice", nym}; !slices.Equal(creators, want) {
		t.Fatalf("ordered %q, want %q", creators, want)
	}
}

func TestAttestStageVerifiesAndBinds(t *testing.T) {
	man, err := tee.NewManufacturer()
	if err != nil {
		t.Fatal(err)
	}
	enclave, err := man.Provision()
	if err != nil {
		t.Fatal(err)
	}
	prog := tee.Program{Name: "echo", Version: "1", Run: func(in, st []byte) ([]byte, []byte, error) {
		return append([]byte("out:"), in...), st, nil
	}}
	if err := enclave.Load(prog); err != nil {
		t.Fatal(err)
	}
	policy := AttestationPolicy{Manufacturer: man.PublicKey(), Measurement: prog.Measurement()}
	output, att, err := enclave.Execute([]byte("payload"))
	if err != nil {
		t.Fatal(err)
	}

	// Output binding: the attested output is the payload.
	stage, err := newAttestTEE(policy, bindOutput)
	if err != nil {
		t.Fatal(err)
	}
	req := &Request{Channel: "ch", Payload: output}
	if err := AttachAttestation(req, att); err != nil {
		t.Fatal(err)
	}
	passed, err := runStage(t, stage, req)
	if err != nil || !passed {
		t.Fatalf("valid attestation rejected: %v", err)
	}
	if !strings.HasPrefix(req.Meta[MetaAttest], "tee/") {
		t.Fatalf("meta note = %q", req.Meta[MetaAttest])
	}

	// Payload swapped after attestation: rejected.
	swapped := &Request{Channel: "ch", Payload: []byte("something else")}
	if err := AttachAttestation(swapped, att); err != nil {
		t.Fatal(err)
	}
	if _, err := runStage(t, stage, swapped); !errors.Is(err, ErrAttestationRejected) {
		t.Fatalf("swapped payload = %v, want ErrAttestationRejected", err)
	}

	// Input binding accepts the enclave input instead.
	inStage, err := newAttestTEE(policy, bindInput)
	if err != nil {
		t.Fatal(err)
	}
	inReq := &Request{Channel: "ch", Payload: []byte("payload")}
	if err := AttachAttestation(inReq, att); err != nil {
		t.Fatal(err)
	}
	if passed, err := runStage(t, inStage, inReq); err != nil || !passed {
		t.Fatalf("input-bound attestation rejected: %v", err)
	}

	// Wrong measurement: an unaudited program's quote.
	wrongPolicy := policy
	wrongPolicy.Measurement = tee.Program{Name: "other", Version: "9"}.Measurement()
	wrongStage, err := newAttestTEE(wrongPolicy, bindOff)
	if err != nil {
		t.Fatal(err)
	}
	wReq := &Request{Channel: "ch", Payload: output}
	if err := AttachAttestation(wReq, att); err != nil {
		t.Fatal(err)
	}
	if _, err := runStage(t, wrongStage, wReq); !errors.Is(err, ErrAttestationRejected) {
		t.Fatalf("wrong measurement = %v, want ErrAttestationRejected", err)
	}

	// Missing and hostile blobs.
	if _, err := runStage(t, stage, &Request{Channel: "ch"}); !errors.Is(err, ErrAttestationRequired) {
		t.Fatalf("missing attestation = %v, want ErrAttestationRequired", err)
	}
	for _, blob := range []string{`garbage`, `{}`, `{"EnclaveKey":"AAECAw=="}`} {
		h := &Request{Channel: "ch", Meta: map[string]string{MetaAttest: blob}}
		if _, err := runStage(t, stage, h); !errors.Is(err, ErrAttestationRejected) {
			t.Fatalf("hostile attestation %q = %v, want ErrAttestationRejected", blob, err)
		}
	}
}

func TestAggregateStageCombinesAndReleases(t *testing.T) {
	sk, err := paillier.GenerateKey(512)
	if err != nil {
		t.Fatal(err)
	}
	pk := &sk.PublicKey
	agg, err := newAggregate(pk, 3)
	if err != nil {
		t.Fatal(err)
	}
	var released []*Request
	next := func(ctx context.Context, r *Request) error {
		released = append(released, r)
		return nil
	}
	submit := func(channel string, v int64) error {
		payload, err := EncodeAggregand(pk, big.NewInt(v))
		if err != nil {
			t.Fatal(err)
		}
		req := &Request{Channel: channel, Principal: "contributor", Payload: payload,
			Meta: map[string]string{MetaNym: "secret-nym"}}
		return agg.Handle(context.Background(), req, next)
	}

	// Two contributions are acknowledged and held.
	for _, v := range []int64{100, 250} {
		if err := submit("reports", v); err != nil {
			t.Fatal(err)
		}
	}
	if len(released) != 0 || agg.pendingCount() != 2 {
		t.Fatalf("released %d, pending %d", len(released), agg.pendingCount())
	}
	// The third fills the group and releases the sum.
	if err := submit("reports", 75); err != nil {
		t.Fatal(err)
	}
	if len(released) != 1 || agg.pendingCount() != 0 {
		t.Fatalf("released %d, pending %d", len(released), agg.pendingCount())
	}
	out := released[0]
	if out.Principal != AggregatePrincipal {
		t.Fatalf("released principal = %q", out.Principal)
	}
	if out.Meta[MetaAggregate] != "paillier/v1 n=3" {
		t.Fatalf("aggregate note = %q", out.Meta[MetaAggregate])
	}
	// Contributor annotations must not survive onto the aggregate.
	if _, leaked := out.Meta[MetaNym]; leaked {
		t.Fatal("contributor meta leaked onto the aggregate")
	}
	total, err := DecryptAggregate(sk, out.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if total.Int64() != 425 {
		t.Fatalf("aggregate total = %s, want 425", total)
	}
}

func TestAggregateStageFlushAndGrouping(t *testing.T) {
	sk, err := paillier.GenerateKey(512)
	if err != nil {
		t.Fatal(err)
	}
	pk := &sk.PublicKey
	agg, err := newAggregate(pk, 10)
	if err != nil {
		t.Fatal(err)
	}
	var released []*Request
	next := func(ctx context.Context, r *Request) error {
		released = append(released, r)
		return nil
	}
	// Flush with nothing buffered is a no-op even before any submission.
	if err := agg.Flush(context.Background()); err != nil {
		t.Fatalf("empty flush: %v", err)
	}
	// Channels aggregate independently.
	for _, sub := range []struct {
		ch string
		v  int64
	}{{"a", 1}, {"b", 10}, {"a", 2}} {
		payload, err := EncodeAggregand(pk, big.NewInt(sub.v))
		if err != nil {
			t.Fatal(err)
		}
		req := &Request{Channel: sub.ch, Payload: payload}
		if err := agg.Handle(context.Background(), req, next); err != nil {
			t.Fatal(err)
		}
	}
	if err := agg.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(released) != 2 {
		t.Fatalf("flushed %d groups, want 2", len(released))
	}
	totals := map[string]int64{}
	for _, r := range released {
		v, err := DecryptAggregate(sk, r.Payload)
		if err != nil {
			t.Fatal(err)
		}
		totals[r.Channel] = v.Int64()
	}
	if totals["a"] != 3 || totals["b"] != 10 {
		t.Fatalf("totals = %v", totals)
	}
}

func TestAggregateStageRejectsBadAggregands(t *testing.T) {
	sk, err := paillier.GenerateKey(512)
	if err != nil {
		t.Fatal(err)
	}
	pk := &sk.PublicKey
	agg, err := newAggregate(pk, 2)
	if err != nil {
		t.Fatal(err)
	}
	next := func(ctx context.Context, r *Request) error { return nil }
	tooBig := pk.N2.String()
	for _, payload := range []string{
		`junk`,
		`{}`,
		`{"scheme":"rsa/v1","c":"AQ=="}`,
		`{"scheme":"paillier/v1","c":""}`,
		// c = N^2: outside the multiplicative group.
		`{"scheme":"paillier/v1","c":"` + bigToB64(tooBig) + `"}`,
	} {
		req := &Request{Channel: "ch", Payload: []byte(payload)}
		if err := agg.Handle(context.Background(), req, next); !errors.Is(err, ErrBadAggregand) {
			t.Fatalf("bad aggregand %q = %v, want ErrBadAggregand", payload, err)
		}
	}
	if agg.pendingCount() != 0 {
		t.Fatalf("bad aggregands buffered: pending = %d", agg.pendingCount())
	}
}

// bigToB64 renders a decimal big integer as the base64 JSON []byte form.
func bigToB64(dec string) string {
	n, _ := new(big.Int).SetString(dec, 10)
	return b64encode(n.Bytes())
}

func b64encode(b []byte) string {
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
	var sb strings.Builder
	for i := 0; i < len(b); i += 3 {
		var chunk [3]byte
		n := copy(chunk[:], b[i:])
		sb.WriteByte(alphabet[chunk[0]>>2])
		sb.WriteByte(alphabet[(chunk[0]&0x3)<<4|chunk[1]>>4])
		if n > 1 {
			sb.WriteByte(alphabet[(chunk[1]&0xf)<<2|chunk[2]>>6])
		} else {
			sb.WriteByte('=')
		}
		if n > 2 {
			sb.WriteByte(alphabet[chunk[2]&0x3f])
		} else {
			sb.WriteByte('=')
		}
	}
	return sb.String()
}

// TestGatewayPrivacyChain drives the flagship composition — anoncred-gated,
// range-proof-validated, TEE-attested, envelope-sealed — end to end over
// ServeWire, and checks the new stages surface in both
// StageStats and the Prometheus stage-latency histograms.
func TestGatewayPrivacyChain(t *testing.T) {
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
	if err := wallet.RequestTokens(issuer, attrs, 4); err != nil {
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
	prog := tee.Program{Name: "settle", Version: "1", Run: func(in, st []byte) ([]byte, []byte, error) {
		return in, st, nil
	}}
	if err := enclave.Load(prog); err != nil {
		t.Fatal(err)
	}
	readerKey, err := dcrypto.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}

	log := audit.NewLog()
	orderer := ordering.New("orderer-op", ordering.VisibilityEnvelope, ordering.WithAuditLog(log))
	cfg := Config{Stages: []StageConfig{
		{Name: StageAnonCred, Params: map[string]string{"attrs": "role=member", "scope": "audit"}},
		{Name: StageZKProof, Params: map[string]string{"bits": "16"}},
		{Name: StageAttest, Params: map[string]string{"bind": "output"}},
		{Name: StageEncrypt},
		{Name: StageAudit, Params: map[string]string{"observer": "gateway-op"}},
	}}
	env := Env{
		AnonCredKey: credKey,
		Attestation: &AttestationPolicy{Manufacturer: man.PublicKey(), Measurement: prog.Measurement()},
		Directory:   dynamicDirectory{},
		Log:         log,
	}
	gw, err := NewGateway("gw-privacy", cfg, env, orderer)
	if err != nil {
		t.Fatal(err)
	}
	var committed []ledger.Transaction
	gw.Bind("deals", backendFunc{name: "recorder", commit: func(b ledger.Block) error {
		committed = append(committed, b.Txs...)
		return nil
	}})
	w := frontOf(gw)
	reg := telemetry.NewRegistry()
	if err := gw.RegisterMetrics(reg); err != nil {
		t.Fatal(err)
	}

	// The client flow: run the payload through the enclave, present a
	// credential (fixing the pseudonymous principal), then bind proof and
	// attestation to it.
	output, att, err := enclave.Execute([]byte("confidential settlement"))
	if err != nil {
		t.Fatal(err)
	}
	req := &Request{Channel: "deals", Payload: output}
	nym, err := AttachPresentation(req, wallet, attrs, "audit")
	if err != nil {
		t.Fatal(err)
	}
	env.Directory.(dynamicDirectory)[nym] = readerKey.Public()
	if _, err := AttachRangeProof(req, big.NewInt(421), 16); err != nil {
		t.Fatal(err)
	}
	if err := AttachAttestation(req, att); err != nil {
		t.Fatal(err)
	}
	if _, err := w.submit(req); err != nil {
		t.Fatalf("flagship submission rejected: %v", err)
	}

	// The committed transaction is sealed, pseudonymous, and carries the
	// compact verification notes from all three privacy stages.
	if len(committed) != 1 {
		t.Fatalf("committed %d txs, want 1", len(committed))
	}
	tx := committed[0]
	if tx.Creator != nym {
		t.Fatalf("creator = %q, want the pseudonym", tx.Creator)
	}
	for _, key := range []string{MetaAnonCred, MetaZKProof, MetaAttest} {
		note := tx.Meta[key]
		if note == "" || len(note) > 128 {
			t.Fatalf("meta %s = %q, want a compact note", key, note)
		}
	}
	envl, err := ParseEnvelope(tx.Payload)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := OpenEnvelope(envl, nym, readerKey)
	if err != nil {
		t.Fatal(err)
	}
	if string(plain) != "confidential settlement" {
		t.Fatalf("decrypted payload = %q", plain)
	}

	// Every privacy stage counted the request.
	stats := gw.Stats()
	counted := map[string]uint64{}
	for _, st := range stats.Stages {
		counted[st.Name] = st.Calls
	}
	for _, name := range []string{StageAnonCred, StageZKProof, StageAttest, StageEncrypt} {
		if counted[name] != 1 {
			t.Fatalf("stage %s calls = %d, want 1", name, counted[name])
		}
	}

	// The new stages export through the stage-latency histograms.
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	scrape := buf.String()
	for _, name := range []string{StageAnonCred, StageZKProof, StageAttest} {
		want := `confmw_stage_latency_seconds_bucket{stage="` + name + `"`
		if !strings.Contains(scrape, want) {
			t.Fatalf("scrape missing %s histogram series", name)
		}
	}
}

// dynamicDirectory lets the test add the pseudonymous recipient after the
// nym is known.
type dynamicDirectory map[string]dcrypto.PublicKey

func (d dynamicDirectory) MemberKeys(channel string) (map[string]dcrypto.PublicKey, error) {
	return d, nil
}

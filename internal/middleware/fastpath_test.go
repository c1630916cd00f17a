package middleware

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"reflect"
	"sync"
	"testing"
	"time"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/ledger"
	"dltprivacy/internal/ordering"
	"dltprivacy/internal/transport"
)

// --- binary codec ---

func TestWireRequestBinaryRoundtrip(t *testing.T) {
	_, ps := enroll(t, "alice")
	cert := ps["alice"].cert
	sig, err := ps["alice"].key.Sign([]byte("digest"))
	if err != nil {
		t.Fatal(err)
	}
	mac := bytes.Repeat([]byte{0x7f}, dcrypto.MACSize)
	cases := []Request{
		{Channel: "deals", Principal: "alice", Payload: []byte("trade")},
		{Channel: "deals", Principal: "alice", Backend: "fabric", Payload: []byte("trade"),
			Sig: sig, SessionToken: "tok", Meta: map[string]string{"a": "1", "b": "2"}},
		{Channel: "deals", Principal: "alice", Payload: nil, MAC: mac, SessionToken: "tok"},
		{Channel: "deals", Principal: "alice", Payload: []byte("trade"), Cert: cert, Sig: sig},
	}
	for i := range cases {
		w := &cases[i]
		b, err := EncodeWireRequest(w, "")
		if err != nil {
			t.Fatalf("case %d: encode: %v", i, err)
		}
		if !bytes.HasPrefix(b, []byte{binaryMagic, binaryKindRequest}) {
			t.Fatalf("case %d: encoded frame starts % x", i, b[:2])
		}
		var got Request
		if err := decodeRequestBinary(b, &got, nil); err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if got.Channel != w.Channel || got.Principal != w.Principal || got.Backend != w.Backend ||
			got.SessionToken != w.SessionToken || !bytes.Equal(got.Payload, w.Payload) || !bytes.Equal(got.MAC, w.MAC) {
			t.Fatalf("case %d: roundtrip mismatch: %+v vs %+v", i, got, w)
		}
		if (w.Sig.R == nil) != (got.Sig.R == nil) {
			t.Fatalf("case %d: signature presence mismatch", i)
		}
		if w.Sig.R != nil && !bytes.Equal(w.Sig.Bytes(), got.Sig.Bytes()) {
			t.Fatalf("case %d: signature mismatch", i)
		}
		if got.Cert.Identity != w.Cert.Identity || got.Cert.Serial != w.Cert.Serial {
			t.Fatalf("case %d: cert mismatch: %+v vs %+v", i, got.Cert, w.Cert)
		}
		if !reflect.DeepEqual(got.Meta, w.Meta) {
			t.Fatalf("case %d: meta mismatch: %v vs %v", i, got.Meta, w.Meta)
		}
	}
}

// TestEncodeWireRequestRejectsUnencodableSignature: a caller's Request can
// carry any integers as its signature. The frame's 64-byte field cannot hold
// a component wider than 256 bits (FillBytes panicked) or tell a negative one
// from its absolute value, so encoding refuses them.
func TestEncodeWireRequestRejectsUnencodableSignature(t *testing.T) {
	_, ps := enroll(t, "alice")
	sig, err := ps["alice"].key.Sign([]byte("digest"))
	if err != nil {
		t.Fatal(err)
	}
	wide := new(big.Int).Lsh(big.NewInt(1), 256)
	for name, bad := range map[string]dcrypto.Signature{
		"wide R":     {R: wide, S: sig.S},
		"wide S":     {R: sig.R, S: new(big.Int).Add(sig.S, wide)},
		"negative R": {R: new(big.Int).Neg(sig.R), S: sig.S},
		"negative S": {R: sig.R, S: new(big.Int).Neg(sig.S)},
		"zero R":     {R: new(big.Int), S: sig.S},
		"zero S":     {R: sig.R, S: new(big.Int)},
		"nil R":      {S: sig.S},
		"nil S":      {R: sig.R},
	} {
		req := &Request{Channel: "deals", Principal: "alice", Payload: []byte("trade"), Sig: bad}
		if b, err := EncodeWireRequest(req, CodecBinary); !errors.Is(err, dcrypto.ErrInvalidSignature) {
			t.Errorf("%s: encoded %d bytes, err %v; want ErrInvalidSignature", name, len(b), err)
		}
	}
	// No signature at all is a request that authenticates by MAC.
	if _, err := EncodeWireRequest(&Request{Channel: "deals", Principal: "alice"}, CodecBinary); err != nil {
		t.Fatalf("unsigned request: %v", err)
	}
	// A MAC of the wrong size would be refused by the decoder; the encoder
	// does not emit it.
	if _, err := EncodeWireRequest(&Request{Channel: "deals", Principal: "alice", MAC: []byte{1, 2, 3}}, CodecBinary); err == nil {
		t.Fatal("3-byte MAC encoded")
	}
}

func TestEnvelopeBinaryRoundtrip(t *testing.T) {
	_, ps := enroll(t, "alice", "bob")
	members := map[string]dcrypto.PublicKey{
		"alice": ps["alice"].key.Public(),
		"bob":   ps["bob"].key.Public(),
	}
	env, err := SealEnvelope("deals", []byte("secret trade"), members)
	if err != nil {
		t.Fatal(err)
	}
	env.Epoch = 7
	b := EncodeEnvelope(env)
	if !bytes.HasPrefix(b, []byte{binaryMagic, binaryKindEnvelope}) {
		t.Fatalf("envelope frame starts % x", b[:2])
	}
	got, err := ParseEnvelope(b)
	if err != nil {
		t.Fatalf("ParseEnvelope(binary): %v", err)
	}
	if got.Scheme != env.Scheme || got.Channel != env.Channel || got.Epoch != env.Epoch {
		t.Fatalf("header mismatch: %+v", got)
	}
	// The decoded envelope must open like the original for every member.
	for name, p := range ps {
		pt, err := OpenEnvelope(got, name, p.key)
		if err != nil {
			t.Fatalf("open decoded envelope as %s: %v", name, err)
		}
		if !bytes.Equal(pt, []byte("secret trade")) {
			t.Fatalf("decoded payload mismatch for %s", name)
		}
	}
	// A JSON envelope (the debug view) is rejected, not mis-parsed.
	jb, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseEnvelope(jb); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("ParseEnvelope(json) = %v, want ErrBadFrame", err)
	}
	// The encoding is deterministic (sorted recipient order).
	if !bytes.Equal(b, EncodeEnvelope(env)) {
		t.Fatal("envelope encoding is not deterministic")
	}
}

func TestBinaryFrameRejectsMalformed(t *testing.T) {
	good, err := EncodeWireRequest(&Request{Channel: "deals", Principal: "alice", Payload: []byte("p")}, "")
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":           {},
		"magic only":      {binaryMagic},
		"wrong kind":      {binaryMagic, 0x7f},
		"truncated":       good[:len(good)-2],
		"trailing bytes":  append(append([]byte{}, good...), 0x01),
		"oversized field": {binaryMagic, binaryKindRequest, 0xff, 0xff, 0xff, 0x01},
		"huge meta count": append(append([]byte{}, good[:len(good)-1]...), 0xff, 0xff, 0x03),
		"envelope as req": {binaryMagic, binaryKindEnvelope, 0x00},
		"bad sig length":  nil, // built below
		"bad mac length":  nil, // built below
		"huge key count env": append([]byte{binaryMagic, binaryKindEnvelope},
			0x01, 's', 0x01, 'c', 0x00, 0x00, 0xff, 0xff, 0x03),
	}
	// Hand-assemble a frame with a 3-byte "signature".
	withSig := []byte{binaryMagic, binaryKindRequest,
		0x01, 'c', 0x01, 'p', 0x00, 0x00, 0x00, 0x03, 0xaa, 0xbb, 0xcc, 0x00, 0x00, 0x00}
	cases["bad sig length"] = withSig
	withMAC := []byte{binaryMagic, binaryKindRequest,
		0x01, 'c', 0x01, 'p', 0x00, 0x00, 0x00, 0x00, 0x02, 0xaa, 0xbb, 0x00, 0x00}
	cases["bad mac length"] = withMAC
	for name, b := range cases {
		if name == "envelope as req" || name == "huge key count env" {
			if _, err := ParseEnvelope(b); err == nil && name == "huge key count env" {
				t.Fatalf("%s: accepted", name)
			}
			continue
		}
		if err := decodeRequestBinary(b, new(Request), nil); err == nil {
			t.Fatalf("%s: malformed frame accepted", name)
		}
	}
	if _, err := ParseEnvelope([]byte{binaryMagic, binaryKindEnvelope}); err == nil {
		t.Fatal("truncated binary envelope accepted")
	}
}

// TestCodecConfigValidation: the codec names the benchmark still passes mean
// the one wire format; every other name, "json" included, is refused.
func TestCodecConfigValidation(t *testing.T) {
	req := &Request{Channel: "deals", Principal: "alice", Payload: []byte("p")}
	for _, codec := range []string{"json", "protobuf"} {
		_, err := Config{
			Stages: []StageConfig{{Name: StageRateLimit}},
			Codec:  codec,
		}.Build(Env{}, nil)
		if !errors.Is(err, ErrBadConfig) {
			t.Fatalf("Config{Codec: %q} = %v, want ErrBadConfig", codec, err)
		}
		if b, err := EncodeWireRequest(req, codec); err == nil {
			t.Fatalf("EncodeWireRequest(req, %q) encoded %d bytes", codec, len(b))
		}
	}
	for _, codec := range []string{"", CodecBinary} {
		if _, err := (Config{
			Stages: []StageConfig{{Name: StageRateLimit}},
			Codec:  codec,
		}).Build(Env{}, nil); err != nil {
			t.Fatalf("codec %q rejected: %v", codec, err)
		}
		if _, err := EncodeWireRequest(req, codec); err != nil {
			t.Fatalf("EncodeWireRequest(req, %q): %v", codec, err)
		}
	}
}

// --- MAC request authentication ---

// fastpathGateway builds a session+encrypt gateway with the given reqauth
// over the transport substrate, returning the network and the per-principal
// grants.
func fastpathGateway(t testing.TB, reqauth string, names ...string) (*Gateway, *transport.Network, map[string]*principal, map[string]SessionGrant) {
	t.Helper()
	ca, ps := enroll(t, names...)
	members := make(map[string]dcrypto.PublicKey, len(ps))
	for name, p := range ps {
		members[name] = p.key.Public()
	}
	dir := NewSyncDirectory()
	dir.SetChannel("deals", members)
	dir.SetChannel("loans", members)
	cfg := Config{
		Stages: []StageConfig{
			{Name: StageSession, Params: map[string]string{"ttl": "1h", "idle": "1h", "reqauth": reqauth}},
			{Name: StageAuthn},
			{Name: StageEncrypt, Params: map[string]string{"keyttl": "1h"}},
		},
	}
	env := Env{CAKey: ca.PublicKey(), Directory: dir, Log: audit.NewLog()}
	gw, err := NewGateway("fastpath-gw", cfg, env, ordering.New("op", ordering.VisibilityEnvelope))
	if err != nil {
		t.Fatalf("NewGateway: %v", err)
	}
	net := transport.New()
	if err := gw.AttachTransport(context.Background(), net, "gateway"); err != nil {
		t.Fatalf("AttachTransport: %v", err)
	}
	// The orderer needs at least one subscriber per channel to accept
	// submissions; tests asserting delivery bind their own recorders too.
	for _, ch := range []string{"deals", "loans"} {
		gw.Bind(ch, backendFunc{name: "sink", commit: func(ledger.Block) error { return nil }})
	}
	grants := make(map[string]SessionGrant, len(ps))
	for name, p := range ps {
		grant, err := OpenSessionOver(net, name, "gateway", p.cert, p.key)
		if err != nil {
			t.Fatalf("open session for %s: %v", name, err)
		}
		grants[name] = grant
	}
	return gw, net, ps, grants
}

func TestSessionMACAuthenticates(t *testing.T) {
	gw, net, _, grants := fastpathGateway(t, "mac", "alice")
	grant := grants["alice"]
	if len(grant.MacKey) != dcrypto.MACKeySize {
		t.Fatalf("mac-mode grant carries no MAC key: %+v", grant)
	}
	req := &Request{Channel: "deals", Principal: "alice", Payload: []byte("trade"), SessionToken: grant.Token}
	MACRequest(req, grant.MacKey)
	if req.Sig.R != nil {
		t.Fatal("MACRequest must not sign")
	}
	if _, err := SubmitOver(net, "alice", "gateway", req); err != nil {
		t.Fatalf("MAC-authenticated submission rejected: %v", err)
	}
	if stats := gw.Stats(); stats.Submitted != 1 {
		t.Fatalf("submitted = %d, want 1", stats.Submitted)
	}
}

func TestSessionMACRejectsTampering(t *testing.T) {
	_, net, _, grants := fastpathGateway(t, "mac", "alice")
	grant := grants["alice"]

	// Tampered payload after MACing.
	req := &Request{Channel: "deals", Principal: "alice", Payload: []byte("legit"), SessionToken: grant.Token}
	MACRequest(req, grant.MacKey)
	req.Payload = []byte("tampered")
	if _, err := SubmitOver(net, "alice", "gateway", req); !errors.Is(err, ErrBadMAC) {
		t.Fatalf("tampered MAC submission: got %v, want ErrBadMAC", err)
	}

	// MAC under the wrong key.
	wrongKey := bytes.Repeat([]byte{0x42}, dcrypto.MACKeySize)
	req2 := &Request{Channel: "deals", Principal: "alice", Payload: []byte("legit"), SessionToken: grant.Token}
	MACRequest(req2, wrongKey)
	if _, err := SubmitOver(net, "alice", "gateway", req2); !errors.Is(err, ErrBadMAC) {
		t.Fatalf("wrong-key MAC submission: got %v, want ErrBadMAC", err)
	}

	// Garbage MAC of the right length.
	req3 := &Request{Channel: "deals", Principal: "alice", Payload: []byte("legit"), SessionToken: grant.Token}
	req3.MAC = bytes.Repeat([]byte{0x00}, dcrypto.MACSize)
	if _, err := SubmitOver(net, "alice", "gateway", req3); !errors.Is(err, ErrBadMAC) {
		t.Fatalf("garbage MAC submission: got %v, want ErrBadMAC", err)
	}
}

func TestSessionMACSigFallback(t *testing.T) {
	_, net, ps, grants := fastpathGateway(t, "mac", "alice")
	// A signature-path client on a MAC gateway keeps working (first
	// contact, or a client that ignored the grant key).
	req := &Request{Channel: "deals", Principal: "alice", Payload: []byte("trade"), SessionToken: grants["alice"].Token}
	if err := SignRequest(req, ps["alice"].key); err != nil {
		t.Fatal(err)
	}
	if _, err := SubmitOver(net, "alice", "gateway", req); err != nil {
		t.Fatalf("signature fallback on mac gateway rejected: %v", err)
	}
}

func TestSessionSigModeGrantsNoMACKey(t *testing.T) {
	_, net, _, grants := fastpathGateway(t, "sig", "alice")
	grant := grants["alice"]
	if grant.MacKey != nil {
		t.Fatalf("sig-mode grant carries a MAC key")
	}
	// A MAC-bearing request at a signature-only gateway is rejected, not
	// silently accepted.
	req := &Request{Channel: "deals", Principal: "alice", Payload: []byte("trade"), SessionToken: grant.Token}
	req.MAC = bytes.Repeat([]byte{0x01}, dcrypto.MACSize)
	if _, err := SubmitOver(net, "alice", "gateway", req); !errors.Is(err, ErrBadMAC) {
		t.Fatalf("MAC at sig gateway: got %v, want ErrBadMAC", err)
	}
}

func TestSessionMACKeyBoundPerSession(t *testing.T) {
	ca, ps := enroll(t, "alice")
	mgr, err := NewSessionManager(ca.PublicKey(), time.Hour, time.Hour, nil, WithRequestAuth(AuthMAC))
	if err != nil {
		t.Fatal(err)
	}
	a := openSession(t, mgr, ps["alice"])
	b := openSession(t, mgr, ps["alice"])
	if bytes.Equal(a.MacKey, b.MacKey) {
		t.Fatal("two sessions share a MAC key")
	}
	// One session's key cannot authenticate against the other's token.
	req := &Request{Channel: "deals", Principal: "alice", Payload: []byte("p"), SessionToken: b.Token}
	MACRequest(req, a.MacKey)
	stage, err := NewSession(mgr)
	if err != nil {
		t.Fatal(err)
	}
	err = stage.Handle(context.Background(), req, func(context.Context, *Request) error { return nil })
	if !errors.Is(err, ErrBadMAC) {
		t.Fatalf("cross-session MAC: got %v, want ErrBadMAC", err)
	}
}

func TestRevocationKillsMACSession(t *testing.T) {
	ca, ps := enroll(t, "alice")
	mgr, err := NewSessionManager(ca.PublicKey(), time.Hour, time.Hour, nil,
		WithRequestAuth(AuthMAC),
		WithRevocationChecks(ca, RevokeCheckResolve, 0))
	if err != nil {
		t.Fatal(err)
	}
	grant := openSession(t, mgr, ps["alice"])
	stage, err := NewSession(mgr)
	if err != nil {
		t.Fatal(err)
	}
	next := func(context.Context, *Request) error { return nil }

	req := &Request{Channel: "deals", Principal: "alice", Payload: []byte("p"), SessionToken: grant.Token}
	MACRequest(req, grant.MacKey)
	if err := stage.Handle(context.Background(), req, next); err != nil {
		t.Fatalf("pre-revocation MAC request rejected: %v", err)
	}

	ca.Revoke(ps["alice"].cert.Serial)

	// A perfectly valid MAC under the granted key is now refused: the
	// session (and the server's copy of the key) died with the cert.
	late := &Request{Channel: "deals", Principal: "alice", Payload: []byte("late"), SessionToken: grant.Token}
	MACRequest(late, grant.MacKey)
	if err := stage.Handle(context.Background(), late, next); !errors.Is(err, ErrSessionRevoked) {
		t.Fatalf("post-revocation MAC request: got %v, want ErrSessionRevoked", err)
	}
}

// --- submissions over the wire ---

func TestBinarySubmissionEndToEnd(t *testing.T) {
	gw, net, ps, grants := fastpathGateway(t, "mac", "alice", "bob")
	var delivered []ledger.Transaction
	var mu sync.Mutex
	sink := backendFunc{name: "recorder", commit: func(b ledger.Block) error {
		mu.Lock()
		delivered = append(delivered, b.Txs...)
		mu.Unlock()
		return nil
	}}
	gw.Bind("deals", sink)

	for _, name := range []string{"alice", "bob"} {
		grant := grants[name]
		req := &Request{Channel: "deals", Principal: name, Payload: []byte(name + "'s trade"), SessionToken: grant.Token}
		MACRequest(req, grant.MacKey)
		if _, err := SubmitOver(net, name, "gateway", req); err != nil {
			t.Fatalf("%s's submission rejected: %v", name, err)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	if len(delivered) != 2 {
		t.Fatalf("delivered %d txs, want 2", len(delivered))
	}
	// What was committed is an envelope frame that opens for a member.
	for i, tx := range delivered {
		env, err := ParseEnvelope(tx.Payload)
		if err != nil {
			t.Fatalf("tx %d: parse envelope: %v", i, err)
		}
		pt, err := OpenEnvelope(env, "alice", ps["alice"].key)
		if err != nil {
			t.Fatalf("tx %d: open envelope: %v", i, err)
		}
		if !bytes.Contains(pt, []byte("trade")) {
			t.Fatalf("tx %d: unexpected payload %q", i, pt)
		}
	}
}

// TestWireRefusalsAreCounted: what the one decoder of a topic refuses —
// garbage, a JSON document (a wire format once), nothing at all, a cut frame
// — is an error wrapping ErrBadFrame and one more on
// confmw_gateway_rejected_total, on gateway.submit as on session.open. A
// refused submission used to leave no trace in any telemetry.
func TestWireRefusalsAreCounted(t *testing.T) {
	gw, _, ps, grants := fastpathGateway(t, "mac", "alice")
	req := &Request{Channel: "deals", Principal: "alice", Payload: []byte("trade"), SessionToken: grants["alice"].Token}
	MACRequest(req, grants["alice"].MacKey)
	frame, err := EncodeWireRequest(req, "")
	if err != nil {
		t.Fatal(err)
	}
	jsonHello, err := json.Marshal(mustHelloAt(t, ps["alice"], time.Now()))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, topic string
		payload     []byte
	}{
		{"garbage", TopicSubmit, []byte("\x00\x01\x02session\xff")},
		{"JSON submission", TopicSubmit, []byte(`{"channel":"deals","principal":"alice","payload":"dHJhZGU="}`)},
		{"truncated request frame", TopicSubmit, frame[:len(frame)/2]},
		{"header only", TopicSubmit, []byte{binaryMagic, binaryKindRequest}},
		{"empty submission", TopicSubmit, nil},
		{"one byte", TopicSubmit, []byte{binaryMagic}},
		{"hello on the submit topic", TopicSubmit, []byte{binaryMagic, binaryKindHello, 0x00}},
		{"JSON hello", TopicSessionOpen, jsonHello},
		{"empty hello", TopicSessionOpen, nil},
		{"one-byte hello", TopicSessionOpen, []byte{binaryMagic}},
		{"request on the open topic", TopicSessionOpen, frame},
	} {
		before := gw.Stats()
		reply, err := gw.ServeWire(context.Background(), tc.topic, tc.payload, "")
		if !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: reply %q, err %v; want ErrBadFrame", tc.name, reply, err)
		}
		after := gw.Stats()
		if after.Rejected != before.Rejected+1 || after.Submitted != before.Submitted || after.Sessions.Opened != before.Sessions.Opened {
			t.Errorf("%s: rejected %d -> %d, submitted %d -> %d, sessions %d -> %d; want one more rejection and nothing else",
				tc.name, before.Rejected, after.Rejected, before.Submitted, after.Submitted, before.Sessions.Opened, after.Sessions.Opened)
		}
	}
	if _, err := gw.ServeWire(context.Background(), TopicSubmit, frame, ""); err != nil {
		t.Fatalf("the well-formed frame: %v", err)
	}
}

// backendFunc adapts a function to the Backend interface.
type backendFunc struct {
	name   string
	commit func(ledger.Block) error
}

func (b backendFunc) Name() string                  { return b.name }
func (b backendFunc) Commit(blk ledger.Block) error { return b.commit(blk) }

// --- SyncDirectory and fingerprint cache ---

func TestSyncDirectoryMembershipRotatesEpoch(t *testing.T) {
	ca, ps := enroll(t, "alice", "bob", "carol")
	dir := NewSyncDirectory()
	dir.SetChannel("deals", map[string]dcrypto.PublicKey{
		"alice": ps["alice"].key.Public(),
		"bob":   ps["bob"].key.Public(),
	})
	enc, err := NewCachedEncrypt(dir, time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	chain := NewChain(nil, NewAuthn(ca.PublicKey(), nil), enc)
	submit := func(p *principal) *Request {
		req := signedRequest(t, p, "deals", []byte("trade"))
		if err := chain.Execute(context.Background(), req); err != nil {
			t.Fatalf("submit as %s: %v", p.name, err)
		}
		return req
	}
	submit(ps["alice"])
	if got := enc.Epoch("deals"); got != 1 {
		t.Fatalf("epoch after first seal = %d, want 1", got)
	}
	// Steady state: the fingerprint cache keeps the epoch pinned.
	for i := 0; i < 5; i++ {
		submit(ps["alice"])
	}
	if got := enc.Epoch("deals"); got != 1 {
		t.Fatalf("epoch after steady-state seals = %d, want 1", got)
	}
	// Membership change through the directory bumps the generation; the
	// next seal must rotate and wrap to carol.
	dir.SetChannel("deals", map[string]dcrypto.PublicKey{
		"alice": ps["alice"].key.Public(),
		"bob":   ps["bob"].key.Public(),
		"carol": ps["carol"].key.Public(),
	})
	req := submit(ps["alice"])
	if got := enc.Epoch("deals"); got != 2 {
		t.Fatalf("epoch after membership change = %d, want 2", got)
	}
	env, err := ParseEnvelope(req.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenEnvelope(env, "carol", ps["carol"].key); err != nil {
		t.Fatalf("joiner cannot open post-join envelope: %v", err)
	}
}

func TestSyncDirectoryRevocationStillExcludes(t *testing.T) {
	ca, ps := enroll(t, "alice", "bob")
	dir := NewSyncDirectory()
	dir.SetChannel("deals", map[string]dcrypto.PublicKey{
		"alice": ps["alice"].key.Public(),
		"bob":   ps["bob"].key.Public(),
	})
	enc, err := NewCachedEncrypt(dir, time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	chain := NewChain(nil, NewAuthn(ca.PublicKey(), nil), enc)
	req := signedRequest(t, ps["alice"], "deals", []byte("trade"))
	if err := chain.Execute(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	enc.RevokeMember("bob")
	req2 := signedRequest(t, ps["alice"], "deals", []byte("post-revocation"))
	if err := chain.Execute(context.Background(), req2); err != nil {
		t.Fatal(err)
	}
	env, err := ParseEnvelope(req2.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenEnvelope(env, "bob", ps["bob"].key); !errors.Is(err, ErrNotRecipient) {
		t.Fatalf("revoked member still a recipient (err %v) despite fingerprint cache", err)
	}
}

// racyDirectory wraps a SyncDirectory and fires a mutation from inside the
// first MemberKeys call — the worst interleaving for the fingerprint
// cache: a membership change landing between the generation read and the
// member fetch of one request.
type racyDirectory struct {
	*SyncDirectory
	once   sync.Once
	mutate func()
}

func (d *racyDirectory) MemberKeys(channel string) (map[string]dcrypto.PublicKey, error) {
	members, err := d.SyncDirectory.MemberKeys(channel)
	d.once.Do(d.mutate)
	return members, err
}

// TestFingerprintCacheNotPoisonedByRacingUpdate pins the generation-read
// ordering: when a directory update lands mid-request (after the
// generation read, after the member fetch), the racing request may still
// seal to the set it fetched, but the cache must NOT keep advertising that
// stale set under the new generation — the very next request must re-key
// to the updated membership.
func TestFingerprintCacheNotPoisonedByRacingUpdate(t *testing.T) {
	ca, ps := enroll(t, "alice", "bob")
	base := NewSyncDirectory()
	base.SetChannel("deals", map[string]dcrypto.PublicKey{
		"alice": ps["alice"].key.Public(),
		"bob":   ps["bob"].key.Public(),
	})
	dir := &racyDirectory{SyncDirectory: base}
	dir.mutate = func() {
		base.SetChannel("deals", map[string]dcrypto.PublicKey{
			"alice": ps["alice"].key.Public(), // bob removed mid-request
		})
	}
	enc, err := NewCachedEncrypt(dir, time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	chain := NewChain(nil, NewAuthn(ca.PublicKey(), nil), enc)
	// Request 1 races the membership change; whichever snapshot it sealed
	// to, request 2 runs entirely after the update and must exclude bob.
	for i := 0; i < 2; i++ {
		req := signedRequest(t, ps["alice"], "deals", []byte("trade"))
		if err := chain.Execute(context.Background(), req); err != nil {
			t.Fatalf("request %d: %v", i+1, err)
		}
		if i == 0 {
			continue
		}
		env, err := ParseEnvelope(req.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if _, wrapped := env.Keys["bob"]; wrapped {
			t.Fatal("request after membership change still wraps the removed member: fingerprint cache poisoned by racing update")
		}
	}
}

// --- concurrency matrix ---

// TestFastPathConcurrencyMatrix drives parallel submitters through the
// full gateway over the transport substrate under each reqauth mode, then
// asserts (a) every submission was accepted and counted, (b) both bound
// backends saw identical per-channel delivery orders, and (c) the
// per-channel sequences are a merge preserving each submitter's own
// submission order. Run under -race this also shakes the striped
// session table, the fingerprint cache, and the pooled hashing.
func TestFastPathConcurrencyMatrix(t *testing.T) {
	const (
		submitters   = 4
		perSubmitter = 25
	)
	names := make([]string, submitters)
	for i := range names {
		names[i] = fmt.Sprintf("org%d", i)
	}
	channels := []string{"deals", "loans"}
	for _, reqauth := range []string{"sig", "mac"} {
		t.Run(fmt.Sprintf("reqauth=%s/codec=%s", reqauth, CodecBinary), func(t *testing.T) {
			gw, net, ps, grants := fastpathGateway(t, reqauth, names...)
			type record struct {
				mu   sync.Mutex
				seen map[string][]string // channel -> request ids in delivery order
			}
			recs := [2]*record{{seen: map[string][]string{}}, {seen: map[string][]string{}}}
			for i, rec := range recs {
				rec := rec
				for _, ch := range channels {
					gw.Bind(ch, backendFunc{name: fmt.Sprintf("rec%d", i), commit: func(b ledger.Block) error {
						rec.mu.Lock()
						for _, tx := range b.Txs {
							rec.seen[tx.Channel] = append(rec.seen[tx.Channel], tx.Meta["reqid"])
						}
						rec.mu.Unlock()
						return nil
					}})
				}
			}
			var wg sync.WaitGroup
			errs := make(chan error, submitters)
			for _, name := range names {
				wg.Add(1)
				go func(name string) {
					defer wg.Done()
					p, grant := ps[name], grants[name]
					for i := 0; i < perSubmitter; i++ {
						req := &Request{
							Channel:      channels[i%len(channels)],
							Principal:    name,
							Payload:      []byte(fmt.Sprintf("%s-%d", name, i)),
							SessionToken: grant.Token,
							Meta:         map[string]string{"reqid": fmt.Sprintf("%s-%d", name, i)},
						}
						if reqauth == "mac" {
							MACRequest(req, grant.MacKey)
						} else if err := SignRequest(req, p.key); err != nil {
							errs <- err
							return
						}
						if _, err := SubmitOver(net, name, "gateway", req); err != nil {
							errs <- fmt.Errorf("%s submit %d: %w", name, i, err)
							return
						}
					}
				}(name)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			total := uint64(submitters * perSubmitter)
			stats := gw.Stats()
			if stats.Submitted != total || stats.Ordered != total || stats.Rejected != 0 {
				t.Fatalf("stats = submitted %d ordered %d rejected %d, want %d/%d/0",
					stats.Submitted, stats.Ordered, stats.Rejected, total, total)
			}
			// Both backends saw the same per-channel order.
			for _, ch := range channels {
				if !reflect.DeepEqual(recs[0].seen[ch], recs[1].seen[ch]) {
					t.Fatalf("channel %s: backends disagree on delivery order", ch)
				}
			}
			// The merged order preserves each submitter's own sequence,
			// and nothing was lost or duplicated.
			delivered := 0
			for _, ch := range channels {
				prev := make(map[int]int)
				for _, id := range recs[0].seen[ch] {
					var orgIdx, seq int
					if _, err := fmt.Sscanf(id, "org%d-%d", &orgIdx, &seq); err != nil {
						t.Fatalf("unparseable reqid %q: %v", id, err)
					}
					if last, ok := prev[orgIdx]; ok && seq <= last {
						t.Fatalf("channel %s: submitter org%d delivered out of order (%d after %d)", ch, orgIdx, seq, last)
					}
					prev[orgIdx] = seq
					delivered++
				}
			}
			if delivered != int(total) {
				t.Fatalf("delivered %d txs across channels, want %d", delivered, total)
			}
		})
	}
}

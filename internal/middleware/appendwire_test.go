package middleware

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/dcrypto"
)

// TestAppendWireIsServeWireAfterAPrefix: for every topic, AppendWire into a
// buffer that already holds a prefix returns the prefix, untouched, and then
// the bytes ServeWire replies with; a refusal returns the prefix alone and an
// error with ServeWire's text and RejectLabel. Each case sends each path a
// payload of its own (a hello's nonce opens once), so the gateway is in the
// same state for both. A grant carries fresh randomness — its token, resume
// id and sealed secret — so the two grants are compared with those fields
// taken from the ServeWire one, and each must be the canonical encoding of
// what it decodes to.
func TestAppendWireIsServeWireAfterAPrefix(t *testing.T) {
	clock := newFakeClock()
	ca, ps := enrollAt(t, clock.now, "alice", "bob")
	alice := ps["alice"]
	cfg := Config{
		Stages: []StageConfig{
			{Name: StageSession, Params: map[string]string{"ttl": "10m", "idle": "5m"}},
			{Name: StageEncrypt, Params: map[string]string{"keyttl": "5m"}},
		},
		Shards: 2,
	}
	env := Env{
		CAKey:     ca.PublicKey(),
		Directory: StaticDirectory{"deals": {"alice": alice.key.Public(), "bob": ps["bob"].key.Public()}},
		Log:       audit.NewLog(),
		Now:       clock.now,
		Revoker:   pullRevoker{ca},
	}
	gw, err := NewGateway("gw", cfg, env, newShardedOrderer(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	gw.Bind("deals", &countingBackend{})
	ctx := context.Background()
	serveOpen := func(_ context.Context, hello []byte) ([]byte, error) {
		return gw.ServeWire(ctx, TopicSessionOpen, hello, "")
	}
	// held resumes: its first open is the full handshake.
	held := &Handshaker{Now: clock.now}
	grant, err := held.Open(ctx, "alice", alice.cert, alice.key, serveOpen)
	if err != nil {
		t.Fatal(err)
	}
	// capture returns the hello h's next open would send, unsent.
	capture := func(h *Handshaker) []byte {
		var hello []byte
		notSent := errors.New("not sent")
		if _, err := h.Open(ctx, "alice", alice.cert, alice.key, func(_ context.Context, b []byte) ([]byte, error) {
			hello = b
			return nil, notSent
		}); !errors.Is(err, notSent) {
			t.Fatalf("capturing a hello: %v", err)
		}
		return hello
	}
	frame := func(req *Request) []byte {
		b, err := EncodeWireRequest(req, "")
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	submission := frame(sessionRequest(alice, grant, "deals", []byte("trade")))
	badMAC := sessionRequest(alice, grant, "deals", []byte("trade"))
	badMAC.MAC[0] ^= 1
	rebalance := func(req RebalanceRequest) []byte {
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	shard := gw.sharded.ShardFor("deals")

	cases := []struct {
		name    string
		topic   string
		payload func() []byte // called once for each path
		refused bool
		want    error // the sentinel a refusal wraps, if it has one
		grant   bool  // the answer is a fresh grant
	}{
		{"submit accepted", TopicSubmit, func() []byte { return submission }, false, nil, false},
		{"submit bad MAC", TopicSubmit, func() []byte { return frame(badMAC) }, true, ErrBadMAC, false},
		{"submit undecodable", TopicSubmit, func() []byte { return []byte{binaryMagic, binaryKindRequest, 0xFF} }, true, ErrBadFrame, false},
		{"session.open full", TopicSessionOpen, func() []byte { return capture(&Handshaker{Now: clock.now}) }, false, nil, true},
		{"session.open resumed", TopicSessionOpen, func() []byte { return capture(held) }, false, nil, true},
		{"session.open resume miss", TopicSessionOpen, func() []byte {
			return encodeResumeFrame(&resumeHello{ID: [resumeIDBytes]byte{1}, IssuedAt: clock.now(), Tag: make([]byte, dcrypto.MACSize)})
		}, false, nil, false},
		{"session.open refused", TopicSessionOpen, func() []byte { return []byte{binaryMagic, binaryKindRequest} }, true, ErrBadFrame, false},
		{"session.close ok", TopicSessionClose, func() []byte {
			g, err := (&Handshaker{Now: clock.now}).Open(ctx, "alice", alice.cert, alice.key, serveOpen)
			if err != nil {
				t.Fatal(err)
			}
			key, _ := EncodeSessionClose(g.Token)
			return key[:]
		}, false, nil, false},
		{"session.close unknown", TopicSessionClose, func() []byte { return []byte("no such token") }, false, nil, false},
		{"revocation notify", TopicRevocationNotify, func() []byte { return nil }, false, nil, false},
		{"shard rebalance", TopicShardRebalance, func() []byte { return rebalance(RebalanceRequest{Channel: "deals", To: shard}) }, false, nil, false},
		{"shard rebalance refused", TopicShardRebalance, func() []byte { return []byte("{") }, true, nil, false},
		{"unknown topic", "no.such.topic", func() []byte { return nil }, true, nil, false},
	}
	const prefix = "frame head|"
	for _, tc := range cases {
		served, serveErr := gw.ServeWire(ctx, tc.topic, tc.payload(), "")
		dst := append(make([]byte, 0, 4096), prefix...)
		out, err := gw.AppendWire(ctx, dst, tc.topic, tc.payload(), "")
		if (serveErr != nil) != tc.refused || tc.want != nil && !errors.Is(serveErr, tc.want) {
			t.Fatalf("%s: ServeWire: %v, want refused %v (%v)", tc.name, serveErr, tc.refused, tc.want)
		}
		if string(dst[:len(prefix)]) != prefix || !bytes.HasPrefix(out, []byte(prefix)) {
			t.Fatalf("%s: the prefix became %q, the reply starts %q", tc.name, dst[:len(prefix)], out[:min(len(out), len(prefix))])
		}
		if (err == nil) != (serveErr == nil) {
			t.Fatalf("%s: AppendWire err %v, ServeWire err %v", tc.name, err, serveErr)
		}
		if err != nil {
			if len(out) != len(prefix) || err.Error() != serveErr.Error() || RejectLabel(err) != RejectLabel(serveErr) {
				t.Fatalf("%s: AppendWire refused with %q (label %q), %d bytes; ServeWire with %q (label %q)",
					tc.name, err, RejectLabel(err), len(out), serveErr, RejectLabel(serveErr))
			}
			continue
		}
		appended := out[len(prefix):]
		if tc.grant {
			appended = sameRandomness(t, tc.name, appended, served)
		}
		if !bytes.Equal(appended, served) {
			t.Fatalf("%s: AppendWire appended %q, ServeWire replied %q", tc.name, appended, served)
		}
	}
	// The resumed case resumed on both paths, and the miss case missed on
	// both.
	if st := gw.Stats().Sessions; st.Resumed != 2 || st.ResumeMisses != 2 {
		t.Fatalf("resumed %d, missed %d; want 2 and 2", st.Resumed, st.ResumeMisses)
	}
}

// sameRandomness returns the grant frame got with its token, resume id and
// sealed secret replaced by those of want, after checking that both are the
// canonical encodings of the grants they decode to.
func sameRandomness(t *testing.T, name string, got, want []byte) []byte {
	t.Helper()
	var grants [2]SessionGrant
	for i, b := range [][]byte{got, want} {
		g, miss, err := decodeGrantFrame(b, "")
		if err != nil || miss {
			t.Fatalf("%s: reply %q is no grant (miss %v, %v)", name, b, miss, err)
		}
		if !bytes.Equal(appendGrantFrame(nil, &g), b) {
			t.Fatalf("%s: grant frame %q is not its grant's encoding", name, b)
		}
		grants[i] = g
	}
	g := grants[0]
	g.Token, g.ResumeID, g.Sealed = grants[1].Token, grants[1].ResumeID, grants[1].Sealed
	return appendGrantFrame(nil, &g)
}

// TestParentLayoutFrameIsRefused: a request frame in the layout that carried
// a signature and a certificate field (testdata/parent_request_frame.hex,
// made once by that layout's encoder: both fields empty, around a MAC that
// is valid for the session its token names) is refused with a
// {stage,reason} and orders nothing, while the same request in today's
// layout is admitted on the same session.
func TestParentLayoutFrameIsRefused(t *testing.T) {
	golden, err := os.ReadFile("testdata/parent_request_frame.hex")
	if err != nil {
		t.Fatal(err)
	}
	parent, err := hex.DecodeString(strings.TrimSpace(string(golden)))
	if err != nil {
		t.Fatal(err)
	}
	ca, ps := enroll(t, "alice")
	cfg := Config{Stages: []StageConfig{{Name: StageSession}, {Name: StageAudit}}}
	gw, err := NewGateway("gw", cfg, Env{CAKey: ca.PublicKey(), Log: audit.NewLog()}, newShardedOrderer(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	gw.Bind("deals", &countingBackend{})
	// The frame's token is the key 01 02 … 20 and its MAC key 32 bytes of
	// 0x42: alice's live session is moved onto both.
	var key sessionKey
	for i := range key {
		key[i] = byte(i + 1)
	}
	macKey := bytes.Repeat([]byte{0x42}, dcrypto.MACSize)
	gw.sessions.rekey(t, openSession(t, gw.sessions, ps["alice"]).Token, key, macKey)
	spelled := key.hex()
	req := &Request{Channel: "deals", Principal: "alice", Payload: []byte("trade"), SessionToken: string(spelled[:])}
	MACRequest(req, macKey)
	if !bytes.Contains(parent, req.MAC) {
		t.Fatal("the golden frame does not carry its request's MAC")
	}
	ctx := context.Background()
	if _, err := gw.AppendWire(ctx, nil, TopicSubmit, parent, ""); err == nil || RejectLabel(err) == "" {
		t.Fatalf("parent-layout frame: err %v, label %q; want a counted refusal", err, RejectLabel(err))
	}
	if n := gw.Stats().Ordered; n != 0 {
		t.Fatalf("the refused frame ordered %d transactions", n)
	}
	frame, err := EncodeWireRequest(req, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gw.AppendWire(ctx, nil, TopicSubmit, frame, ""); err != nil {
		t.Fatalf("the same request in today's layout: %v", err)
	}
	if n := gw.Stats().Ordered; n != 1 {
		t.Fatalf("ordered %d transactions, want 1", n)
	}
}

// rekey moves the live session token names onto key, MAC'd under macKey: a
// session a checked-in frame can name.
func (m *SessionManager) rekey(t *testing.T, token string, key sessionKey, macKey []byte) {
	t.Helper()
	old, ok := parseSessionKey(token)
	if !ok {
		t.Fatalf("token %q is no key", token)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.stripe(&old)
	st.mu.Lock()
	s := st.sessions[old]
	delete(st.sessions, old)
	st.mu.Unlock()
	if s == nil {
		t.Fatalf("no live session %q", token)
	}
	s.key, s.macKey = key, *dcrypto.NewMACKey(macKey)
	st = m.stripe(&key)
	st.mu.Lock()
	st.sessions[key] = s
	st.mu.Unlock()
}

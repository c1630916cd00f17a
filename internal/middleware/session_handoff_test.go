package middleware

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dltprivacy/internal/ledger"
	"dltprivacy/internal/ordering"
	"dltprivacy/internal/pki"
)

// between is a test stage that runs its fixture's hook ahead of the session
// stage: after the wire decoder has handed a request its session record, and
// before the session stage checks it.
const between = "between"

type betweenStage struct{ hook func(*Request) }

func (*betweenStage) Name() string { return between }

func (s *betweenStage) Handle(ctx context.Context, req *Request, next Handler) error {
	if s.hook != nil {
		s.hook(req)
	}
	return next(ctx, req)
}

// handoffFixture is a gateway running between|session on a fake clock with
// a revocation plane and a per-principal cap of one, alice and bob enrolled,
// and alice holding a session bound to conn.
type handoffFixture struct {
	clock  *fakeClock
	ca     *pki.CA
	people map[string]*principal
	gw     *Gateway
	stage  *betweenStage
	grant  SessionGrant
	sent   atomic.Int64
}

const handoffConn = "tcp:1:handoff"

func newHandoffFixture(t *testing.T) *handoffFixture {
	t.Helper()
	fx := &handoffFixture{clock: newFakeClock(), stage: new(betweenStage)}
	err := registerStage(stageDef{
		name:  between,
		desc:  "test: runs a hook between the wire decoder and the session stage",
		build: func(*params, StageConfig, Env) (Stage, error) { return fx.stage, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { removeStage(between) })
	fx.ca, fx.people = enrollAt(t, fx.clock.now, "alice", "bob")
	cfg := Config{Stages: []StageConfig{
		{Name: between},
		{Name: StageSession, Params: map[string]string{"ttl": "1h", "idle": "1m", "revokecheck": "resolve", "maxperprincipal": "1"}},
	}}
	env := Env{
		CAKey:     fx.ca.PublicKey(),
		Directory: StaticDirectory{"deals": {"alice": fx.people["alice"].key.Public()}},
		Revoker:   fx.ca,
		Now:       fx.clock.now,
	}
	if fx.gw, err = NewGateway("handoff-gw", cfg, env, ordering.New("op", ordering.VisibilityEnvelope)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fx.gw.Close)
	fx.gw.Bind("deals", backendFunc{name: "sink", commit: func(ledger.Block) error { return nil }})
	fx.grant = fx.open(t, "alice")
	return fx
}

// open opens a session for the named principal, bound to handoffConn.
func (fx *handoffFixture) open(t *testing.T, name string) SessionGrant {
	t.Helper()
	p := fx.people[name]
	hello, err := newSessionHelloAt(p.name, p.cert, p.key, fx.clock.now())
	if err != nil {
		t.Fatal(err)
	}
	grant, err := fx.gw.Sessions().OpenBound(hello, handoffConn)
	if err != nil {
		t.Fatalf("open a session for %s: %v", name, err)
	}
	return grant
}

// frame is a fresh MAC'd submission by alice carrying token.
func (fx *handoffFixture) frame(t *testing.T, token string) []byte {
	t.Helper()
	req := &Request{Channel: "deals", Principal: "alice", SessionToken: token,
		Payload: []byte(fmt.Sprintf("trade-%d", fx.sent.Add(1)))}
	MACRequest(req, fx.grant.MacKey)
	b, err := EncodeWireRequest(req, "")
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), b...)
}

func (fx *handoffFixture) submit(frame []byte) error {
	_, err := fx.gw.AppendWire(context.Background(), nil, TopicSubmit, frame, handoffConn)
	return err
}

// sessionDeaths are the ways alice's session can die, each with the error a
// request carrying its token meets once it has, and racing, what one that
// races the death may also meet.
var sessionDeaths = []struct {
	name   string
	kill   func(t *testing.T, fx *handoffFixture)
	want   error
	racing error
}{
	{"Close", func(t *testing.T, fx *handoffFixture) { fx.gw.Sessions().close(fx.grant.Token) }, ErrNoSession, nil},
	{"CloseFrom", func(t *testing.T, fx *handoffFixture) {
		// A session.close frame from the session's own connection.
		if err := (wireFront{gw: fx.gw, ctx: context.Background(), conn: handoffConn}).close(fx.grant.Token); err != nil {
			t.Error(err)
		}
	}, ErrNoSession, nil},
	{"cap eviction", func(t *testing.T, fx *handoffFixture) { fx.open(t, "alice") }, ErrNoSession, nil},
	{"revocation", func(t *testing.T, fx *handoffFixture) {
		fx.ca.Revoke(fx.people["alice"].cert.Serial)
		fx.gw.Sessions().sweepRevoked()
	}, ErrSessionRevoked, nil},
	{"EvictTransport", func(t *testing.T, fx *handoffFixture) { fx.gw.Sessions().EvictTransport(handoffConn) }, ErrNoSession, nil},
	{"idle sweep", func(t *testing.T, fx *handoffFixture) {
		// bob's open sweeps the table, alice's session idle by then; a
		// request in between finds it idle itself.
		fx.clock.advance(2 * time.Minute)
		fx.open(t, "bob")
	}, ErrNoSession, ErrSessionExpired},
}

// TestSessionDiesBetweenDecodeAndStage: the wire decoder hands the session
// stage the record a frame's token named, and the session can die in
// between — closed, displaced by the cap, revoked, reaped with its
// connection, swept. Whichever way it died, the request is refused with the
// error a request decoded after the death meets, as if it had been looked
// up at the stage. The concurrent half kills the session while submissions
// race it, under the race detector in CI: each is accepted or refused with
// that same error.
func TestSessionDiesBetweenDecodeAndStage(t *testing.T) {
	for _, death := range sessionDeaths {
		t.Run(death.name, func(t *testing.T) {
			fx := newHandoffFixture(t)
			if err := fx.submit(fx.frame(t, fx.grant.Token)); err != nil {
				t.Fatalf("the live session's submission: %v", err)
			}
			fx.stage.hook = func(req *Request) {
				if req.session == nil || req.SessionToken != "" {
					t.Errorf("the decoder handed the stage token %q and record %v, want the live session's record alone", req.SessionToken, req.session)
				}
				fx.stage.hook = nil
				death.kill(t, fx)
			}
			if err := fx.submit(fx.frame(t, fx.grant.Token)); !errors.Is(err, death.want) {
				t.Fatalf("decoded while the session lived: %v, want %v", err, death.want)
			}
			if err := fx.submit(fx.frame(t, fx.grant.Token)); !errors.Is(err, death.want) {
				t.Fatalf("decoded after the session died: %v, want %v", err, death.want)
			}
		})
	}
	for _, death := range sessionDeaths {
		t.Run(death.name+" concurrently", func(t *testing.T) {
			fx := newHandoffFixture(t)
			const submitters, each = 4, 16
			frames := make([][]byte, submitters*each)
			for i := range frames {
				frames[i] = fx.frame(t, fx.grant.Token)
			}
			var wg sync.WaitGroup
			for w := 0; w < submitters; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, frame := range frames[w*each : (w+1)*each] {
						if err := fx.submit(frame); err != nil && !errors.Is(err, death.want) &&
							(death.racing == nil || !errors.Is(err, death.racing)) {
							t.Errorf("a submission racing the death: %v, want acceptance or %v", err, death.want)
						}
					}
				}()
			}
			death.kill(t, fx)
			wg.Wait()
			if err := fx.submit(fx.frame(t, fx.grant.Token)); !errors.Is(err, death.want) {
				t.Fatalf("after the death: %v, want %v", err, death.want)
			}
		})
	}
}

// loopSessionKey is parseSessionKey as a loop with a branch per character,
// the reference the table-driven form is held to.
func loopSessionKey(token []byte) (key sessionKey, ok bool) {
	if len(token) != 2*sessionTokenBytes {
		return key, false
	}
	for i := 0; i < len(token); i++ {
		c := token[i]
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		default:
			return sessionKey{}, false
		}
		key[i/2] = key[i/2]<<4 | c
	}
	return key, true
}

// TestParseSessionKeyMatchesLoop puts every byte value at every one of a
// token's 64 positions, and tokens one character short and one long, to
// parseSessionKey and to the loop it replaced: the two must agree on the
// verdict and the key.
func TestParseSessionKeyMatchesLoop(t *testing.T) {
	base := []byte("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef")
	check := func(token []byte) {
		t.Helper()
		want, wantOK := loopSessionKey(token)
		got, ok := parseSessionKey(string(token))
		if ok != wantOK || got != want {
			t.Fatalf("parseSessionKey(%q) = %x, %v; the loop says %x, %v", token, got, ok, want, wantOK)
		}
	}
	for pos := range base {
		for c := 0; c < 256; c++ {
			token := bytes.Clone(base)
			token[pos] = byte(c)
			check(token)
		}
	}
	for _, n := range []int{2*sessionTokenBytes - 1, 2*sessionTokenBytes + 1} {
		for c := 0; c < 256; c++ {
			token := bytes.Repeat([]byte{'a'}, n)
			token[n-1] = byte(c)
			check(token)
		}
	}
}

// TestSessionTokenIsItsLowercaseHex: a token is its key's 64 lowercase hex
// characters and nothing else. The same key in upper case, or a token with
// a byte that is no hex digit, names no session — a submission carrying it
// meets ErrNoSession, and closing it closes nothing — while the live session
// goes on serving its own token.
func TestSessionTokenIsItsLowercaseHex(t *testing.T) {
	fx := newHandoffFixture(t)
	mgr := fx.gw.Sessions()
	token := fx.grant.Token
	for _, other := range []string{
		strings.ToUpper(token),
		strings.ToUpper(token[:1]) + token[1:],
		token[:63] + "g",
		token[:10] + "\xff" + token[11:],
		token[:63],
		token + "0",
	} {
		if other == token {
			continue // an upper-cased token of digits alone is itself
		}
		if err := fx.submit(fx.frame(t, other)); !errors.Is(err, ErrNoSession) {
			t.Errorf("frame with token %q: %v, want ErrNoSession", other, err)
		}
		if _, err := fx.gw.AppendWire(context.Background(), nil, TopicSessionClose, []byte(other), handoffConn); err != nil {
			t.Errorf("session.close of %q: %v", other, err)
		}
		if _, ok := EncodeSessionClose(other); ok {
			t.Errorf("EncodeSessionClose(%q) made a payload", other)
		}
		mgr.close(other)
	}
	if mgr.Len() != 1 {
		t.Fatalf("%d sessions live, want alice's", mgr.Len())
	}
	if err := fx.submit(fx.frame(t, token)); err != nil {
		t.Fatalf("the live session after its misspellings: %v", err)
	}
}

// rawRequestFrame spells out the frame of a MAC'd request with no backend,
// trace ID or meta whose token field holds field as it is, whatever it
// spells: the frames EncodeWireRequest does not make.
func rawRequestFrame(req *Request, field []byte) []byte {
	out := []byte{binaryMagic, binaryKindRequest}
	for _, f := range [][]byte{[]byte(req.Channel), []byte(req.Principal), nil, req.Payload, field, nil, req.MAC, nil} {
		out = appendLenPrefixed(out, f)
	}
	return append(out, 0, 0)
}

// rawFrame is a fresh MAC'd submission by alice whose token field holds
// field as it is.
func (fx *handoffFixture) rawFrame(field []byte) []byte {
	req := &Request{Channel: "deals", Principal: "alice", Payload: []byte(fmt.Sprintf("trade-%d", fx.sent.Add(1)))}
	MACRequest(req, fx.grant.MacKey)
	return rawRequestFrame(req, field)
}

// requestTokenField returns the token field of a request frame.
func requestTokenField(t *testing.T, frame []byte) []byte {
	t.Helper()
	r := frameReader{b: frame[2:]}
	for i := 0; i < 4; i++ { // channel, principal, backend, payload
		r.bytes()
	}
	field := r.bytes()
	if r.err != nil {
		t.Fatalf("request frame %x: %v", frame, r.err)
	}
	return field
}

// TestWireFramesNameSessionsByKey: a session crosses the wire as its 32 key
// bytes — in the request frame, the session.close payload and the grant
// frame — and the 64 hex characters of its token, the API's spelling, never
// cross. A field that is not a key names no session, the old hex form
// included, and a key the table misses meets what its token met before.
func TestWireFramesNameSessionsByKey(t *testing.T) {
	ctx := context.Background()
	t.Run("the frames carry the key", func(t *testing.T) {
		fx := newHandoffFixture(t)
		token := fx.grant.Token
		key, err := hex.DecodeString(token)
		if err != nil || len(key) != sessionTokenBytes {
			t.Fatalf("token %q is not the hex of a %d-byte key: %v", token, sessionTokenBytes, err)
		}
		frame := fx.frame(t, token)
		if field := requestTokenField(t, frame); !bytes.Equal(field, key) {
			t.Fatalf("request frame's token field is %x, want the key %x", field, key)
		}
		if bytes.Contains(frame, []byte(token)) {
			t.Fatal("the request frame spells the token in hex")
		}
		if payload, ok := EncodeSessionClose(token); !ok || !bytes.Equal(payload[:], key) {
			t.Fatalf("session.close payload %x (ok %v), want the key %x", payload, ok, key)
		}

		// A grant frame of each handshake, as the gateway appends it.
		var replies [][]byte
		serve := func(ctx context.Context, hello []byte) ([]byte, error) {
			reply, err := fx.gw.AppendWire(ctx, nil, TopicSessionOpen, hello, handoffConn)
			replies = append(replies, bytes.Clone(reply))
			return reply, err
		}
		bob := fx.people["bob"]
		client := &Handshaker{Now: fx.clock.now}
		for _, resumed := range []bool{false, true} {
			grant, err := client.Open(ctx, bob.name, bob.cert, bob.key, serve)
			if err != nil || grant.Resumed != resumed {
				t.Fatalf("open (resumed %v): %+v, %v", resumed, grant, err)
			}
			reply := replies[len(replies)-1]
			r := frameReader{b: reply[3:]} // magic, kind, flags
			field := r.bytes()
			if r.err != nil || len(field) != sessionTokenBytes || hex.EncodeToString(field) != grant.Token {
				t.Fatalf("grant frame's token field %x (%v), want the %d bytes token %q spells", field, r.err, sessionTokenBytes, grant.Token)
			}
			if bytes.Contains(reply, []byte(grant.Token)) {
				t.Fatal("the grant frame spells the token in hex")
			}
			if fx.gw.Sessions().lookup((*sessionKey)(field)) == nil {
				t.Fatal("the grant frame's key names no session")
			}
		}
	})

	t.Run("a request frame is 32 bytes shorter", func(t *testing.T) {
		fx := newHandoffFixture(t)
		req := &Request{Channel: "deals-12", Principal: "org-00", Payload: make([]byte, 96), SessionToken: fx.grant.Token}
		MACRequest(req, fx.grant.MacKey)
		frame, err := EncodeWireRequest(req, "")
		if err != nil {
			t.Fatal(err)
		}
		// 218 while the token crossed as its 64 hex characters.
		if len(frame) != 186 {
			t.Fatalf("request frame is %d bytes, want 186", len(frame))
		}
	})

	t.Run("a field that is no key names no session", func(t *testing.T) {
		fx := newHandoffFixture(t)
		mgr := fx.gw.Sessions()
		token := fx.grant.Token
		misspelled := []string{
			strings.ToUpper(token),
			strings.ToUpper(token[:1]) + token[1:],
			token[:63] + "g",
			token[:10] + "\xff" + token[11:],
			token[:63],
			token + "0",
			"session-" + token[:24], // 32 characters, no key's spelling
		}
		// Each as a frame's token field and as a session.close payload,
		// and the token itself, the form a frame carried before the key.
		for _, other := range append(misspelled, token) {
			if err := fx.submit(fx.rawFrame([]byte(other))); !errors.Is(err, ErrNoSession) {
				t.Errorf("frame with token field %q: %v, want ErrNoSession", other, err)
			}
			if _, err := fx.gw.AppendWire(ctx, nil, TopicSessionClose, []byte(other), handoffConn); err != nil {
				t.Errorf("session.close of %q: %v", other, err)
			}
		}
		// Each as the API spelling: the encoders'. (The token itself is the
		// API spelling of a live session.)
		for _, other := range misspelled {
			if other == token {
				continue // an upper-cased token of digits alone is itself
			}
			frame, err := EncodeWireRequest(&Request{Channel: "deals", Principal: "alice", SessionToken: other}, "")
			switch {
			case len(other) == sessionTokenBytes:
				if !errors.Is(err, ErrNoSession) {
					t.Errorf("encoding token %q: %v, want ErrNoSession", other, err)
				}
			case err != nil:
				t.Errorf("encoding token %q: %v", other, err)
			case !bytes.Equal(requestTokenField(t, frame), []byte(other)):
				t.Errorf("token %q crossed as %q, want itself", other, requestTokenField(t, frame))
			}
			if len(other) != sessionTokenBytes {
				if err := fx.submit(fx.frame(t, other)); !errors.Is(err, ErrNoSession) {
					t.Errorf("frame with token %q: %v, want ErrNoSession", other, err)
				}
			}
			if _, ok := EncodeSessionClose(other); ok {
				t.Errorf("EncodeSessionClose(%q) made a payload", other)
			}
		}
		if mgr.Len() != 1 {
			t.Fatalf("%d sessions live, want alice's", mgr.Len())
		}
		if err := fx.submit(fx.frame(t, token)); err != nil {
			t.Fatalf("the live session after its misspellings: %v", err)
		}
	})

	// A key the table misses reaches the session stage spelled as its token,
	// and meets the error it met when the frame carried the hex; an expired
	// session's key still names its record, which the stage refuses.
	for _, death := range []struct {
		name   string
		kill   func(t *testing.T, fx *handoffFixture, key []byte)
		want   error
		record bool
	}{
		{"revoked", func(t *testing.T, fx *handoffFixture, _ []byte) {
			fx.ca.Revoke(fx.people["alice"].cert.Serial)
			fx.gw.Sessions().sweepRevoked()
		}, ErrSessionRevoked, false},
		{"expired", func(t *testing.T, fx *handoffFixture, _ []byte) { fx.clock.advance(2 * time.Minute) }, ErrSessionExpired, true},
		{"closed", func(t *testing.T, fx *handoffFixture, key []byte) {
			if _, err := fx.gw.AppendWire(ctx, nil, TopicSessionClose, key, handoffConn); err != nil {
				t.Fatal(err)
			}
		}, ErrNoSession, false},
	} {
		t.Run(death.name, func(t *testing.T) {
			fx := newHandoffFixture(t)
			key, ok := EncodeSessionClose(fx.grant.Token)
			if !ok {
				t.Fatalf("token %q spells no key", fx.grant.Token)
			}
			death.kill(t, fx, key[:])
			fx.stage.hook = func(req *Request) {
				if death.record && (req.session == nil || req.SessionToken != "") ||
					!death.record && (req.session != nil || req.SessionToken != fx.grant.Token) {
					t.Errorf("the decoder handed the stage token %q and record %v", req.SessionToken, req.session)
				}
			}
			if err := fx.submit(fx.frame(t, fx.grant.Token)); !errors.Is(err, death.want) {
				t.Fatalf("%s session's key: %v, want %v", death.name, err, death.want)
			}
		})
	}
}

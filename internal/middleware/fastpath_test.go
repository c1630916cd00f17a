package middleware

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/ledger"
	"dltprivacy/internal/ordering"
)

// --- binary codec ---

func TestWireRequestBinaryRoundtrip(t *testing.T) {
	mac := bytes.Repeat([]byte{0x7f}, dcrypto.MACSize)
	// A token crosses as its key, and a well-formed one decodes back to its
	// spelling; a malformed one decodes as misnamedSession.
	tok := fmt.Sprintf("%064x", 7)
	cases := []Request{
		{Channel: "deals", Principal: "alice", Payload: []byte("trade")},
		{Channel: "deals", Principal: "alice", Backend: "fabric", Payload: []byte("trade"),
			SessionToken: tok, Meta: map[string]string{"a": "1", "b": "2"}},
		{Channel: "deals", Principal: "alice", Payload: nil, MAC: mac, SessionToken: tok},
		{Channel: "deals", Principal: "alice", Payload: nil, MAC: mac, SessionToken: misnamedSession},
		{Channel: "deals", Principal: "alice", Payload: []byte("trade"), TraceID: 1 << 40},
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
		if got.TraceID != w.TraceID {
			t.Fatalf("case %d: trace ID %d, want %d", i, got.TraceID, w.TraceID)
		}
		if !reflect.DeepEqual(got.Meta, w.Meta) {
			t.Fatalf("case %d: meta mismatch: %v vs %v", i, got.Meta, w.Meta)
		}
	}
}

// TestEncodeWireRequestRejectsMisSizedMAC: the encoder emits a MAC field
// only of the size the decoder takes, or none.
func TestEncodeWireRequestRejectsMisSizedMAC(t *testing.T) {
	if _, err := EncodeWireRequest(&Request{Channel: "deals", Principal: "alice"}, CodecBinary); err != nil {
		t.Fatalf("request with no MAC: %v", err)
	}
	// A MAC of the wrong size would be refused by the decoder; the encoder
	// does not emit it.
	if _, err := EncodeWireRequest(&Request{Channel: "deals", Principal: "alice", MAC: []byte{1, 2, 3}}, CodecBinary); err == nil {
		t.Fatal("3-byte MAC encoded")
	}
}

// keepCarvedFrames runs eight goroutines that each make 2,000 frames with
// frame(w, i) and keep every one, with a copy taken when it is made. Each
// frame's capacity must be its length, and each goroutine appends to its
// previous frame once the next one is made: the append must reallocate. Once
// every goroutine is done, every kept frame must still equal its copy. A
// frame handed its slab's spare capacity, or cut from a slab carved twice or
// rewound, would have been written over by a later one.
func keepCarvedFrames(t *testing.T, frame func(w, i int) ([]byte, error)) [][][]byte {
	t.Helper()
	const workers, perWorker = 8, 2000
	frames, copies := make([][][]byte, workers), make([][][]byte, workers)
	var wg sync.WaitGroup
	for w := range frames {
		wg.Add(1)
		go func() {
			defer wg.Done()
			kept, made := make([][]byte, perWorker), make([][]byte, perWorker)
			for i := range kept {
				b, err := frame(w, i)
				if err != nil {
					t.Error(err)
					return
				}
				if cap(b) != len(b) {
					t.Errorf("worker %d frame %d: capacity %d past its length %d", w, i, cap(b), len(b))
					return
				}
				kept[i], made[i] = b, bytes.Clone(b)
				if i == 0 {
					continue
				}
				prev := kept[i-1]
				if grown := append(prev, 0xFF, 0xFF, 0xFF, 0xFF); &grown[0] == &prev[0] {
					t.Errorf("worker %d frame %d: appending to it wrote past its end", w, i-1)
					return
				}
			}
			frames[w], copies[w] = kept, made
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for w, kept := range frames {
		for i, b := range kept {
			if !bytes.Equal(b, copies[w][i]) {
				t.Fatalf("worker %d frame %d: written over since it was made", w, i)
			}
		}
	}
	return frames
}

// TestCarvedFramesStayTheCallers holds the frames EncodeWireRequest carves
// from shared slabs to their callers (keepCarvedFrames). The payloads walk
// up to a thousand bytes, so frames cross slab boundaries, and every
// fiftieth sits around the wire carver's nominal slab size, so some are
// carved two to a slab and some allocated on their own. The decode of every
// kept frame at the end must read its own request.
func TestCarvedFramesStayTheCallers(t *testing.T) {
	request := func(w, i int) *Request {
		size := i * 97 % 1000
		if i%50 == 0 {
			size = wireFrames.slab - 160 + i%128 // frames some 64 bytes either side of it
		}
		return &Request{
			Channel:      fmt.Sprintf("deals-%d", w),
			Principal:    fmt.Sprintf("org-%d-%d", w, i),
			Payload:      bytes.Repeat([]byte{byte(w*2000 + i)}, size),
			SessionToken: fmt.Sprintf("%064x", w*2000+i),
			MAC:          bytes.Repeat([]byte{byte(i)}, dcrypto.MACSize),
			TraceID:      uint64(i),
		}
	}
	frames := keepCarvedFrames(t, func(w, i int) ([]byte, error) { return EncodeWireRequest(request(w, i), "") })
	for w, kept := range frames {
		for i, b := range kept {
			var got Request
			if err := decodeRequestBinary(b, &got, nil); err != nil {
				t.Fatalf("worker %d frame %d: %v", w, i, err)
			}
			want := request(w, i)
			if got.Channel != want.Channel || got.Principal != want.Principal || !bytes.Equal(got.Payload, want.Payload) ||
				got.SessionToken != want.SessionToken || !bytes.Equal(got.MAC, want.MAC) || got.TraceID != want.TraceID {
				t.Fatalf("worker %d frame %d decodes to another request", w, i)
			}
		}
	}
}

// TestSealedFramesStayTheirHolders holds the frames channelKey.seal carves
// from sealedFrames' slabs, which a subscriber may keep, to their holders
// (keepCarvedFrames). Each goroutine seals distinct payloads under a
// 50-member key of its own: mostly single 96-byte trades, five to a slab,
// and every tenth a group of two whose frame lands just under or just over
// the carver's nominal slab size, so some are carved two to a slab and some
// allocated on their own.
// Once every goroutine is done every group and one single trade in fifty
// must still open to its own payloads; every other frame is held to the copy
// taken when it was sealed, an open being an ECDH and fifty commitment
// hashes.
func TestSealedFramesStayTheirHolders(t *testing.T) {
	members, keys := benchMembers(t, 50)
	payloads := func(w, i int) [][]byte {
		tag := fmt.Sprintf("w%d-i%d/", w, i)
		if i%10 != 0 {
			return [][]byte{[]byte(tag + strings.Repeat("t", 96-len(tag)))}
		}
		size := 3193 + i%40 // frames of 8,152 to 8,230 bytes on deals-N
		return [][]byte{[]byte(tag + strings.Repeat("a", size-len(tag))), []byte(tag + strings.Repeat("b", size-len(tag)))}
	}
	sealers := make([]*channelKey, 8)
	for w := range sealers {
		channel := fmt.Sprintf("deals-%d", w)
		var err error
		if sealers[w], err = newChannelKey(channel, 1, members, envelopeAD(channel)); err != nil {
			t.Fatal(err)
		}
	}
	frames := keepCarvedFrames(t, func(w, i int) ([]byte, error) {
		b, _, err := sealers[w].seal(payloads(w, i))
		return b, err
	})
	carved := 0
	opener := keys["org-07"]
	for w, kept := range frames {
		for i, b := range kept {
			if len(b) < sealedFrames.slab {
				carved++
			}
			if i%10 != 0 && i%50 != 7 {
				continue
			}
			env, err := ParseEnvelope(b)
			if err != nil {
				t.Fatalf("worker %d frame %d: %v", w, i, err)
			}
			want := payloads(w, i)
			var got [][]byte
			if len(want) == 1 {
				var one []byte
				one, err = OpenEnvelope(env, "org-07", opener)
				got = [][]byte{one}
			} else {
				got, err = OpenGroupEnvelope(env, "org-07", opener)
			}
			if err != nil {
				t.Fatalf("worker %d frame %d: %v", w, i, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("worker %d frame %d opens to another payload", w, i)
			}
		}
	}
	if total := 8 * len(frames[0]); carved <= total*9/10 || carved == total {
		t.Fatalf("%d of %d frames under the %d-byte nominal slab: the groups must straddle it", carved, total, sealedFrames.slab)
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
		"bad mac length":  nil, // built below
		"huge key count env": append([]byte{binaryMagic, binaryKindEnvelope},
			0x01, 's', 0x01, 'c', 0x00, 0x00, 0xff, 0xff, 0x03),
	}
	// Hand-assemble a frame with a 2-byte MAC.
	withMAC := []byte{binaryMagic, binaryKindRequest,
		0x01, 'c', 0x01, 'p', 0x00, 0x00, 0x00, 0x02, 0xaa, 0xbb, 0x00, 0x00}
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
		_, err := Config{Stages: auditOnly, Codec: codec}.build(auditEnv(), nil)
		if !errors.Is(err, ErrBadConfig) {
			t.Fatalf("Config{Codec: %q} = %v, want ErrBadConfig", codec, err)
		}
		if b, err := EncodeWireRequest(req, codec); err == nil {
			t.Fatalf("EncodeWireRequest(req, %q) encoded %d bytes", codec, len(b))
		}
	}
	for _, codec := range []string{"", CodecBinary} {
		if _, err := (Config{Stages: auditOnly, Codec: codec}).build(auditEnv(), nil); err != nil {
			t.Fatalf("codec %q rejected: %v", codec, err)
		}
		if _, err := EncodeWireRequest(req, codec); err != nil {
			t.Fatalf("EncodeWireRequest(req, %q): %v", codec, err)
		}
	}
}

// --- MAC request authentication ---

// fastpathGateway builds a session+encrypt gateway, returning it, a
// wire to it and the per-principal grants opened over that wire.
func fastpathGateway(t testing.TB, names ...string) (*Gateway, wireFront, map[string]*principal, map[string]SessionGrant) {
	t.Helper()
	ca, ps := enroll(t, names...)
	members := make(map[string]dcrypto.PublicKey, len(ps))
	for name, p := range ps {
		members[name] = p.key.Public()
	}
	dir := NewSyncDirectory()
	addMembers(dir, "deals", members)
	addMembers(dir, "loans", members)
	cfg := Config{
		Stages: []StageConfig{
			{Name: StageSession, Params: map[string]string{"ttl": "1h", "idle": "1h"}},
			{Name: StageEncrypt, Params: map[string]string{"keyttl": "1h"}},
		},
	}
	env := Env{CAKey: ca.PublicKey(), Directory: dir, Log: audit.NewLog()}
	gw, err := NewGateway("fastpath-gw", cfg, env, ordering.New("op", ordering.VisibilityEnvelope))
	if err != nil {
		t.Fatalf("NewGateway: %v", err)
	}
	w := frontOf(gw)
	// The orderer needs at least one subscriber per channel to accept
	// submissions; tests asserting delivery bind their own recorders too.
	for _, ch := range []string{"deals", "loans"} {
		gw.Bind(ch, backendFunc{name: "sink", commit: func(ledger.Block) error { return nil }})
	}
	grants := make(map[string]SessionGrant, len(ps))
	for name, p := range ps {
		grant, err := w.open(p)
		if err != nil {
			t.Fatalf("open session for %s: %v", name, err)
		}
		grants[name] = grant
	}
	return gw, w, ps, grants
}

func TestSessionMACAuthenticates(t *testing.T) {
	gw, w, _, grants := fastpathGateway(t, "alice")
	grant := grants["alice"]
	if len(grant.MacKey) != dcrypto.MACKeySize {
		t.Fatalf("grant carries no MAC key: %+v", grant)
	}
	req := &Request{Channel: "deals", Principal: "alice", Payload: []byte("trade"), SessionToken: grant.Token}
	MACRequest(req, grant.MacKey)
	if _, err := w.submit(req); err != nil {
		t.Fatalf("MAC-authenticated submission rejected: %v", err)
	}
	if stats := gw.Stats(); stats.Submitted != 1 {
		t.Fatalf("submitted = %d, want 1", stats.Submitted)
	}
}

func TestSessionMACRejectsTampering(t *testing.T) {
	_, w, _, grants := fastpathGateway(t, "alice")
	grant := grants["alice"]

	// Tampered payload after MACing.
	req := &Request{Channel: "deals", Principal: "alice", Payload: []byte("legit"), SessionToken: grant.Token}
	MACRequest(req, grant.MacKey)
	req.Payload = []byte("tampered")
	if _, err := w.submit(req); !errors.Is(err, ErrBadMAC) {
		t.Fatalf("tampered MAC submission: got %v, want ErrBadMAC", err)
	}

	// MAC under the wrong key.
	wrongKey := bytes.Repeat([]byte{0x42}, dcrypto.MACKeySize)
	req2 := &Request{Channel: "deals", Principal: "alice", Payload: []byte("legit"), SessionToken: grant.Token}
	MACRequest(req2, wrongKey)
	if _, err := w.submit(req2); !errors.Is(err, ErrBadMAC) {
		t.Fatalf("wrong-key MAC submission: got %v, want ErrBadMAC", err)
	}

	// Garbage MAC of the right length.
	req3 := &Request{Channel: "deals", Principal: "alice", Payload: []byte("legit"), SessionToken: grant.Token}
	req3.MAC = bytes.Repeat([]byte{0x00}, dcrypto.MACSize)
	if _, err := w.submit(req3); !errors.Is(err, ErrBadMAC) {
		t.Fatalf("garbage MAC submission: got %v, want ErrBadMAC", err)
	}
}

func TestSessionMACKeyBoundPerSession(t *testing.T) {
	ca, ps := enroll(t, "alice")
	mgr, err := NewSessionManager(ca.PublicKey(), time.Hour, time.Hour, nil)
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
	stage, err := newSession(mgr)
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
		withRevoker(ca))
	if err != nil {
		t.Fatal(err)
	}
	grant := openSession(t, mgr, ps["alice"])
	stage, err := newSession(mgr)
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
	gw, w, ps, grants := fastpathGateway(t, "alice", "bob")
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
		if _, err := w.submit(req); err != nil {
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
	gw, _, ps, grants := fastpathGateway(t, "alice")
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

// addMembers installs a channel's members in d, one AddMember each.
func addMembers(d *SyncDirectory, channel string, members map[string]dcrypto.PublicKey) {
	for id, key := range members {
		d.AddMember(channel, id, key)
	}
}

func TestSyncDirectoryMembershipRotatesEpoch(t *testing.T) {
	_, ps := enroll(t, "alice", "bob", "carol")
	dir := NewSyncDirectory()
	addMembers(dir, "deals", map[string]dcrypto.PublicKey{
		"alice": ps["alice"].key.Public(),
		"bob":   ps["bob"].key.Public(),
	})
	enc, err := newCachedEncrypt(dir, time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	chain := newChain(nil, enc)
	submit := func(p *principal) *Request {
		req := authenticatedRequest(p, "deals", []byte("trade"))
		if err := chain.execute(context.Background(), req); err != nil {
			t.Fatalf("submit as %s: %v", p.name, err)
		}
		return req
	}
	submit(ps["alice"])
	if got := enc.epoch("deals"); got != 1 {
		t.Fatalf("epoch after first seal = %d, want 1", got)
	}
	// Steady state: the fingerprint cache keeps the epoch pinned.
	for i := 0; i < 5; i++ {
		submit(ps["alice"])
	}
	if got := enc.epoch("deals"); got != 1 {
		t.Fatalf("epoch after steady-state seals = %d, want 1", got)
	}
	// Membership change through the directory bumps the generation; the
	// next seal must rotate and wrap to carol.
	dir.AddMember("deals", "carol", ps["carol"].key.Public())
	req := submit(ps["alice"])
	if got := enc.epoch("deals"); got != 2 {
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
	_, ps := enroll(t, "alice", "bob")
	dir := NewSyncDirectory()
	addMembers(dir, "deals", map[string]dcrypto.PublicKey{
		"alice": ps["alice"].key.Public(),
		"bob":   ps["bob"].key.Public(),
	})
	enc, err := newCachedEncrypt(dir, time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	chain := newChain(nil, enc)
	req := authenticatedRequest(ps["alice"], "deals", []byte("trade"))
	if err := chain.execute(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	enc.RevokeMember("bob")
	req2 := authenticatedRequest(ps["alice"], "deals", []byte("post-revocation"))
	if err := chain.execute(context.Background(), req2); err != nil {
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
	_, ps := enroll(t, "alice", "bob")
	base := NewSyncDirectory()
	addMembers(base, "deals", map[string]dcrypto.PublicKey{
		"alice": ps["alice"].key.Public(),
		"bob":   ps["bob"].key.Public(),
	})
	dir := &racyDirectory{SyncDirectory: base}
	dir.mutate = func() {
		// Bob removed mid-request. SyncDirectory only adds members, so the
		// test replaces the snapshot and bumps the generation as one would.
		base.mu.Lock()
		base.channels["deals"] = map[string]dcrypto.PublicKey{"alice": ps["alice"].key.Public()}
		base.gen.Add(1)
		base.mu.Unlock()
	}
	enc, err := newCachedEncrypt(dir, time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	chain := newChain(nil, enc)
	// Request 1 races the membership change; whichever snapshot it sealed
	// to, request 2 runs entirely after the update and must exclude bob.
	for i := 0; i < 2; i++ {
		req := authenticatedRequest(ps["alice"], "deals", []byte("trade"))
		if err := chain.execute(context.Background(), req); err != nil {
			t.Fatalf("request %d: %v", i+1, err)
		}
		if i == 0 {
			continue
		}
		env, err := ParseEnvelope(req.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := OpenEnvelope(env, "bob", ps["bob"].key); !errors.Is(err, ErrNotRecipient) {
			t.Fatal("request after membership change still wraps the removed member: fingerprint cache poisoned by racing update")
		}
	}
}

// --- concurrency matrix ---

// TestFastPathConcurrencyMatrix drives parallel MAC'd submitters through the
// full gateway through ServeWire, then asserts (a) every
// submission was accepted and counted, (b) both bound backends saw
// identical per-channel delivery orders, and (c) the per-channel sequences
// are a merge preserving each submitter's own submission order. Run under
// -race this also shakes the striped session table, the fingerprint cache,
// and the pooled hashing. Requests are MAC'd and the wire codec is binary;
// the subtest name records both.
func TestFastPathConcurrencyMatrix(t *testing.T) {
	t.Run("reqauth=mac/codec="+CodecBinary, testFastPathConcurrency)
}

func testFastPathConcurrency(t *testing.T) {
	const (
		submitters   = 4
		perSubmitter = 25
	)
	names := make([]string, submitters)
	for i := range names {
		names[i] = fmt.Sprintf("org%d", i)
	}
	channels := []string{"deals", "loans"}
	gw, w, _, grants := fastpathGateway(t, names...)
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
			grant := grants[name]
			for i := 0; i < perSubmitter; i++ {
				req := &Request{
					Channel:      channels[i%len(channels)],
					Principal:    name,
					Payload:      []byte(fmt.Sprintf("%s-%d", name, i)),
					SessionToken: grant.Token,
					Meta:         map[string]string{"reqid": fmt.Sprintf("%s-%d", name, i)},
				}
				MACRequest(req, grant.MacKey)
				if _, err := w.submit(req); err != nil {
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
}

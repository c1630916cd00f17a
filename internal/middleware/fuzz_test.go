package middleware

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"maps"
	"math/big"
	"testing"
	"time"

	"dltprivacy/internal/anoncred"
	"dltprivacy/internal/audit"
	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/ledger"
	"dltprivacy/internal/ordering"
	"dltprivacy/internal/paillier"
	"dltprivacy/internal/pki"
	"dltprivacy/internal/tee"
)

// FuzzWireRequest throws arbitrary bytes at every wire topic the
// gateway serves — gateway.submit, session.open, session.close — and at
// two it refuses as unknown, so malformed framing, forged session tokens, and
// corrupted certificates can reject requests but never panic the process.
// The gateway runs the full revocation-aware pipeline, so the fuzz input
// crosses the wire decode, the session/token path and envelope sealing. Every submission a gateway accepts is answered with Request.id of
// the frame decoded afresh. On gateway.submit the one request codec is also
// held against itself: a payload the decoder refuses is refused with
// ErrBadFrame, and one it accepts re-encodes to a frame that decodes to the
// same request and from then on to itself — a component that forwards what
// it received cannot lose, invent or die on a field.
func FuzzWireRequest(f *testing.F) {
	ca, err := pki.NewCA("fuzz-ca")
	if err != nil {
		f.Fatal(err)
	}
	key, err := dcrypto.GenerateKey()
	if err != nil {
		f.Fatal(err)
	}
	cert, err := ca.Enroll("alice", key.Public())
	if err != nil {
		f.Fatal(err)
	}
	cfg := Config{
		Stages: []StageConfig{
			{Name: StageSession, Params: map[string]string{"ttl": "1h", "idle": "1h", "revokecheck": "resolve"}},
			{Name: StageAuthn},
			{Name: StageEncrypt, Params: map[string]string{"keyttl": "1h"}},
			{Name: StageAudit},
		},
		// Tracing is on so wire-carried trace IDs cross the sampler and
		// span recording too.
		Trace: "8",
	}
	env := Env{
		CAKey:     ca.PublicKey(),
		Directory: StaticDirectory{"deals": {"alice": key.Public()}},
		Log:       audit.NewLog(),
		Revoker:   ca,
	}
	gw, err := NewGateway("fuzz-gw", cfg, env, ordering.New("op", ordering.VisibilityEnvelope))
	if err != nil {
		f.Fatal(err)
	}
	grant, err := gw.Sessions().Open(mustHello(f, "alice", cert, key))
	if err != nil {
		f.Fatal(err)
	}

	// Seeds: a well-formed MAC'd session submission, which the gateway
	// accepts, the same submission in the layout that carried a signature
	// and a certificate field (refused), near-miss mutations of it, a valid
	// hello, and framing junk — JSON documents, which were a wire format
	// once, among the junk.
	macGood := &Request{Channel: "deals", Principal: "alice", Payload: []byte("trade"), SessionToken: grant.Token}
	MACRequest(macGood, grant.MacKey)
	goodBinary, err := EncodeWireRequest(macGood, "")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(parentLayoutFrame(macGood, nil, nil))
	f.Add(goodBinary)
	// The same submission carrying a trace ID, so the fuzzer mutates the
	// trace uvarint between MAC and meta.
	traced := &Request{Channel: "deals", Principal: "alice", Payload: []byte("trade"),
		SessionToken: grant.Token, TraceID: 0xfeedface}
	MACRequest(traced, grant.MacKey)
	tracedBinary, err := EncodeWireRequest(traced, "")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(tracedBinary)
	f.Add(tracedBinary[:len(tracedBinary)-1])
	// The MAC'd submission with its token as the frame carried it before it
	// carried the key: 64 hex characters, which name no session.
	f.Add(rawRequestFrame(macGood, []byte(grant.Token)))
	f.Add([]byte(`{"channel":"deals","principal":"alice","trace":12345}`))
	tracedHello := mustHello(f, "alice", cert, key)
	tracedHello.TraceID = 1
	tracedHelloSeed, err := json.Marshal(tracedHello)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(tracedHelloSeed)
	helloFrame, err := encodeHelloFrame(&tracedHello)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(helloFrame)
	// Sessionless frames in the layout that carried a signature and a
	// certificate: a signed one with a certificate that names its holder, and
	// two whose certificate field does not — no identity, and not even an
	// object.
	firstContact := &Request{Channel: "deals", Principal: "alice", Payload: []byte("trade")}
	d := firstContact.Digest()
	sig, err := key.Sign(d[:])
	if err != nil {
		f.Fatal(err)
	}
	certBytes, err := cert.AppendBinary(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(parentLayoutFrame(firstContact, sig.Bytes(), certBytes))
	for _, blob := range []string{`{"serial":1}`, `null`} {
		frame := []byte{binaryMagic, binaryKindRequest, 0x01, 'c', 0x01, 'p', 0x00, 0x00, 0x00, 0x00, 0x00}
		f.Add(append(appendLenPrefixed(frame, []byte(blob)), 0x00, 0x00))
	}
	f.Add(goodBinary[:len(goodBinary)/2])
	f.Add(append(append([]byte{}, goodBinary...), 0xff))
	f.Add([]byte{binaryMagic})
	f.Add([]byte{binaryMagic, binaryKindRequest})
	f.Add([]byte{binaryMagic, binaryKindRequest, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{binaryMagic, binaryKindEnvelope, 0x01, 's'})
	// Regression seeds: a frame as large as the edge admits whose meta count
	// used to size an 84 MB map before any session or MAC check.
	for _, frame := range hostileMetaFrames() {
		f.Add(frame)
	}
	f.Add([]byte(`{"channel":"deals","principal":"alice","session":"deadbeef"}`))
	f.Add([]byte(`{"channel":"deals","principal":"alice","cert":{"serial":1},"sig":{}}`))
	f.Add([]byte(`{"session":"` + grant.Token + `"}`))
	helloSeed, err := json.Marshal(mustHello(f, "alice", cert, key))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(helloSeed)
	// Regression seed: a zero-valued cert inside a fresh validity window
	// used to reach ecdsa.Verify with nil signature components and panic
	// (fixed in dcrypto.PublicKey.Verify).
	f.Add([]byte(`{"issuedAt":"` + time.Now().UTC().Format(time.RFC3339) + `","cert":{"notAfter":"2100-01-01T00:00:00Z"}}`))
	// Signatures JSON carries and the binary framing's 64-byte field cannot:
	// a component wider than 256 bits used to panic the encoder, a negative
	// one used to encode as its absolute value.
	f.Add([]byte(`{"channel":"deals","principal":"alice","sig":{"R":1,"S":231584178474632390847141970017375815706539969331281128078915168015826259279872}}`))
	f.Add([]byte(`{"channel":"deals","principal":"alice","sig":{"R":-5,"S":7}}`))
	f.Add([]byte(`{"channel":"deals","principal":"alice","sig":{"R":5},"mac":"AQID"}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	f.Add([]byte("\x00\x01\x02session\xff"))

	// A second gateway runs the declarative privacy chain — anoncred in
	// place of a certificate-rooted session, a range-proof gate, TEE attestation, and
	// the terminal Paillier aggregator — so fuzzed meta blobs cross the
	// proof decoders, the curve-point sanitation, and the aggregand bounds
	// checks without panicking group arithmetic.
	memberAttrs := []string{"role=member"}
	issuer := anoncred.NewIssuer("fuzz-issuer")
	credKey, err := issuer.RegisterAttributeSet(memberAttrs)
	if err != nil {
		f.Fatal(err)
	}
	wallet, err := anoncred.NewWallet()
	if err != nil {
		f.Fatal(err)
	}
	if err := wallet.RequestTokens(issuer, memberAttrs, 4); err != nil {
		f.Fatal(err)
	}
	collector, err := paillier.GenerateKey(512)
	if err != nil {
		f.Fatal(err)
	}
	man, err := tee.NewManufacturer()
	if err != nil {
		f.Fatal(err)
	}
	encl, err := man.Provision()
	if err != nil {
		f.Fatal(err)
	}
	echo := tee.Program{Name: "fuzz-echo", Version: "1", Run: func(input, state []byte) ([]byte, []byte, error) {
		return input, state, nil
	}}
	if err := encl.Load(echo); err != nil {
		f.Fatal(err)
	}
	privCfg := Config{Stages: []StageConfig{
		{Name: StageAnonCred, Params: map[string]string{"mode": "present", "attrs": "role=member", "scope": "fuzz-scope"}},
		{Name: StageZKProof, Params: map[string]string{"mode": "range", "bits": "16"}},
		{Name: StageAttest, Params: map[string]string{"mode": "tee", "bind": "output"}},
		{Name: StageAudit},
		{Name: StageAggregate, Params: map[string]string{"mode": "paillier", "size": "4"}},
	}}
	privEnv := Env{
		AnonCredKey: credKey,
		Attestation: &AttestationPolicy{Manufacturer: man.PublicKey(), Measurement: echo.Measurement()},
		Aggregator:  &collector.PublicKey,
		Log:         audit.NewLog(),
	}
	privGW, err := NewGateway("fuzz-priv-gw", privCfg, privEnv, ordering.New("priv-op", ordering.VisibilityEnvelope))
	if err != nil {
		f.Fatal(err)
	}
	// A fully-attested pseudonymous contribution: the payload is a Paillier
	// aggregand echoed through the enclave, so the anoncred, zkproof,
	// attest, and aggregate decoders all fire on this one seed and on every
	// mutation of it.
	aggPayload, err := EncodeAggregand(&collector.PublicKey, big.NewInt(421))
	if err != nil {
		f.Fatal(err)
	}
	output, att, err := encl.Execute(aggPayload)
	if err != nil {
		f.Fatal(err)
	}
	privReq := &Request{Channel: "deals", Payload: output}
	if _, err := AttachPresentation(privReq, wallet, memberAttrs, "fuzz-scope"); err != nil {
		f.Fatal(err)
	}
	if _, err := AttachRangeProof(privReq, big.NewInt(421), 16); err != nil {
		f.Fatal(err)
	}
	if err := AttachAttestation(privReq, att); err != nil {
		f.Fatal(err)
	}
	privBinary, err := EncodeWireRequest(privReq, "")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(privBinary)
	// Hostile stage params: half-decoded curve points (nil coordinates,
	// zero points, coords past the field prime), truncated presentations,
	// and an aggregand ciphertext sitting exactly on the N² group boundary.
	f.Add([]byte(`{"channel":"deals","principal":"x","meta":{"zkproof":"{\"Comm\":{\"X\":0}}"}}`))
	f.Add([]byte(`{"channel":"deals","principal":"x","meta":{"zkproof":"{\"Comm\":{\"X\":1,\"Y\":1},\"Proof\":{\"Bits\":64}}"}}`))
	f.Add([]byte(`{"channel":"deals","meta":{"anoncred":"{\"Nym\":{\"X\":115792089210356248762697446949407573530086143415290314195533631308867097853951,\"Y\":2}}"}}`))
	f.Add([]byte(`{"channel":"deals","meta":{"anoncred":"{"}}`))
	f.Add([]byte(`{"channel":"deals","meta":{"attestation":"{\"Measurement\":[0]}"}}`))
	f.Add([]byte(`{"channel":"deals","meta":{"attestation":"null"}}`))
	boundary, err := json.Marshal(wireAggregand{Scheme: aggregandScheme, C: collector.PublicKey.N2.Bytes()})
	if err != nil {
		f.Fatal(err)
	}
	boundaryWire, err := EncodeWireRequest(&Request{Channel: "deals", Principal: "x", Payload: boundary, Meta: privReq.Meta}, "")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(boundaryWire)
	f.Add([]byte(`{"channel":"deals","payload":"eyJzY2hlbWUiOiJwYWlsbGllci92MSIsImMiOiIifQ=="}`))

	// Both gateways deliver, so a well-formed submission is accepted.
	for _, g := range []*Gateway{gw, privGW} {
		g.Bind("deals", backendFunc{name: "sink", commit: func(ledger.Block) error { return nil }})
	}
	topics := []string{TopicSubmit, TopicSessionOpen, TopicSessionClose, "revocation.notify", "unknown.topic"}
	const prefix = "frame head|"
	dst := make([]byte, 0, 4096)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, topic := range topics {
			for _, to := range []*Gateway{gw, privGW} {
				// Errors are the expected outcome for junk; the invariant under
				// test is that no input can panic the gateway or wedge a lock.
				// The reply is appended after a prefix, as the edge's frame
				// head, which it must leave as it was.
				reply, err := to.AppendWire(context.Background(), append(dst[:0], prefix...), topic, data, "")
				if !bytes.HasPrefix(reply, []byte(prefix)) || (err != nil && len(reply) != len(prefix)) {
					t.Fatalf("%s on %s: reply %q does not keep the prefix %q alone (err %v)", to.name, topic, reply, prefix, err)
				}
				if topic != TopicSubmit || err != nil {
					continue
				}
				// An accepted submission is answered with the ID of what was
				// submitted, whatever the chain made of the request since.
				var fresh Request
				if err := decodeRequestBinary(data, &fresh, nil); err != nil || string(reply[len(prefix):]) != fresh.id() {
					t.Fatalf("%s accepted a submission with reply %q, want its ID %q (decode: %v)", to.name, reply[len(prefix):], fresh.id(), err)
				}
			}
		}
		var first, second, third Request
		if err := decodeRequestBinary(data, &first, nil); err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("the decoder refused with %v, want ErrBadFrame", err)
			}
			return
		}
		// The token field is a key or names no session: decoded on its own,
		// a key comes back as its token's spelling, and no other field
		// resolves a record on the live gateway or spells a key for the
		// session stage to look up.
		field := requestTokenField(t, data)
		key, keyed := parseSessionKey(first.SessionToken)
		switch {
		case len(field) == sessionTokenBytes:
			if !keyed || !bytes.Equal(key[:], field) {
				t.Fatalf("token field %x decoded as token %q", field, first.SessionToken)
			}
		case len(field) == 0 && first.SessionToken != "",
			len(field) > 0 && first.SessionToken != misnamedSession:
			t.Fatalf("a %d-byte token field decoded as token %q", len(field), first.SessionToken)
		default:
			var live Request
			if err := decodeRequestBinary(data, &live, gw); err != nil || live.session != nil {
				t.Fatalf("a %d-byte token field named a session: %v", len(field), err)
			}
		}
		frame, err := EncodeWireRequest(&first, "")
		if err != nil {
			t.Fatalf("the encoder refuses what the decoder accepted: %v", err)
		}
		if err := decodeRequestBinary(frame, &second, nil); err != nil {
			t.Fatalf("the decoder refuses what the encoder made of a decoded request: %v", err)
		}
		requireSameRequest(t, "decode -> encode -> decode", &first, &second)
		if frame, err = EncodeWireRequest(&second, ""); err != nil {
			t.Fatalf("second encoding: %v", err)
		}
		if err := decodeRequestBinary(frame, &third, nil); err != nil {
			t.Fatalf("second decoding: %v", err)
		}
		requireSameRequest(t, "a second round", &second, &third)
	})
}

// requireSameRequest fails unless two decoded submissions agree on every
// field a frame carries.
func requireSameRequest(t *testing.T, what string, want, got *Request) {
	t.Helper()
	same := want.Channel == got.Channel && want.Principal == got.Principal && want.Backend == got.Backend &&
		want.SessionToken == got.SessionToken && want.TraceID == got.TraceID &&
		bytes.Equal(want.Payload, got.Payload) && bytes.Equal(want.MAC, got.MAC) &&
		maps.Equal(want.Meta, got.Meta)
	if !same {
		t.Fatalf("%s changed the request:\n was %+v\n now %+v", what, want, got)
	}
}

// FuzzEnvelopeFrame throws arbitrary bytes at the envelope decoder a ledger
// reader runs on transaction payloads it did not produce, ParseEnvelope.
// Hostile bytes may be rejected, always with ErrBadFrame, but never panic,
// and a table's declared wrap count is checked against the bytes that
// remain, so no input makes the decoder read or allocate past its own
// length. What does decode has exactly one encoding: whatever parses
// re-encodes to the same bytes, so a ledger payload hash pins one envelope —
// no duplicated or reordered wrap, padded varint, retired scheme or retired
// layout decodes to an envelope some other frame also decodes to.
func FuzzEnvelopeFrame(f *testing.F) {
	envs := fuzzEnvelopes(f)
	// Each frame whole, then with each table that is not the one encoding of
	// what it holds (see nonCanonicalTables).
	for _, env := range envs {
		f.Add(EncodeEnvelope(env))
		for _, table := range nonCanonicalTables(env) {
			f.Add(frameWithTable(env, table.section))
		}
	}
	env, frame := envs[0], EncodeEnvelope(envs[0])
	f.Add(frame[:len(frame)/2])
	f.Add(frame[:len(frame)-1])
	f.Add(append(append([]byte(nil), frame...), 0x00))
	// JSON documents — the debug view of a real envelope among them — are
	// not a ledger format.
	asJSON, err := json.Marshal(env)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(asJSON)
	f.Add([]byte(`{"scheme":"x","wraps":"","ciphertext":null}`))
	// Frames no decoder accepts any more (see retiredFrames).
	for _, retired := range retiredFrames(env) {
		f.Add(retired)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := ParseEnvelope(data)
		if err == nil {
			if back := EncodeEnvelope(env); !bytes.Equal(back, data) {
				t.Fatalf("an envelope frame parsed but re-encodes differently:\n in  %x\n out %x", data, back)
			}
		} else if !errors.Is(err, ErrBadFrame) {
			t.Fatalf("ParseEnvelope rejected with %v, want ErrBadFrame", err)
		}
	})
}

// fuzzEnvelopes seals a two-recipient envelope (epoch 7) and returns it with
// a fixed 33-byte ciphertext, then with a 200-byte one, a group's shape whose
// length takes two bytes: well-formed frames for the decoder's tests to start
// from. The ciphertexts are 0xc7 repeated — nothing here opens them — so a
// table misframed into the ciphertext field is refused however the nonce
// falls: read as a varint, 0xc7… never ends.
func fuzzEnvelopes(tb testing.TB) []Envelope {
	tb.Helper()
	members := make(map[string]dcrypto.PublicKey, 2)
	for _, id := range []string{"alice", "bob"} {
		key, err := dcrypto.GenerateKey()
		if err != nil {
			tb.Fatal(err)
		}
		members[id] = key.Public()
	}
	env, err := SealEnvelope("deals", []byte("trade"), members)
	if err != nil {
		tb.Fatal(err)
	}
	env.Epoch = 7
	env.Ciphertext = bytes.Repeat([]byte{0xc7}, 33)
	long := env
	long.Ciphertext = bytes.Repeat([]byte{0xc7}, 200)
	return []Envelope{env, long}
}

// badTable is a key-table section keyTable must refuse, with the reason.
type badTable struct {
	name    string
	section []byte
}

// nonCanonicalTables builds, from a two-recipient envelope, the key-table
// sections keyTable must refuse: none is the one encoding of a table.
func nonCanonicalTables(env Envelope) []badTable {
	a, b := env.Wraps[:dcrypto.WrappedKeySize], env.Wraps[dcrypto.WrappedKeySize:]
	table := func(ephPub, commit []byte, n uint64, wraps ...[]byte) []byte {
		out := appendLenPrefixed(nil, ephPub)
		out = appendLenPrefixed(out, commit)
		out = binary.AppendUvarint(out, n)
		for _, w := range wraps {
			out = append(out, w...)
		}
		return out
	}
	// The first retired layout: no shared ephemeral key, and per recipient its
	// name, its own 65-byte ephemeral key and a nonce-prefixed 60-byte
	// ciphertext.
	v1 := binary.AppendUvarint(nil, 2)
	// The second: one shared ephemeral key, no commitment, and per recipient
	// its name and the key sealed under AES-GCM, 48 bytes with its tag.
	v2 := binary.AppendUvarint(appendLenPrefixed(nil, env.EphemeralPub), 2)
	for _, id := range []string{"alice", "bob"} {
		v1 = appendLenPrefixed(v1, []byte(id))
		v1 = appendLenPrefixed(v1, env.EphemeralPub)
		v1 = appendLenPrefixed(v1, make([]byte, 60))
		v2 = appendLenPrefixed(v2, []byte(id))
		v2 = appendLenPrefixed(v2, make([]byte, 48))
	}
	offCurve := append([]byte(nil), env.EphemeralPub...)
	offCurve[len(offCurve)-1] ^= 1
	eph, commit := env.EphemeralPub, env.Commit
	return []badTable{
		{"duplicate wrap", table(eph, commit, 2, a, a)},
		{"wraps out of order", table(eph, commit, 2, b, a)},
		{"v1 layout", v1},
		{"v2 layout", v2},
		{"short ephemeral key", table(eph[:64], commit, 2, a, b)},
		{"ephemeral key off the curve", table(offCurve, commit, 2, a, b)},
		{"31-byte commitment", table(eph, commit[:31], 2, a, b)},
		{"33-byte commitment", table(eph, append(bytes.Clone(commit), 0), 2, a, b)},
		{"no commitment", table(eph, nil, 2, a, b)},
		{"wrap region a byte short", table(eph, commit, 2, a, b[:dcrypto.WrappedKeySize-1])},
		{"wrap region a byte long", table(eph, commit, 2, a, b, []byte{0})},
		{"padded wrap count", append(appendLenPrefixed(appendLenPrefixed(nil, eph), commit), 0x80, 0x00)},
		{"wrap count beyond the frame", table(eph, commit, 1<<32-1, a, b)},
	}
}

// retiredFrames lays env's fields out as frames no decoder accepts any more:
// the …/v3 scheme, each wrap behind its recipient's name; the …/v4 scheme,
// whose ciphertext sealed one bare payload under the old associated data; the
// 0x03 group layout, its count ahead of the ciphertext and its table behind;
// and today's frame under the 0x03 kind byte.
func retiredFrames(env Envelope) map[string][]byte {
	v3table := appendLenPrefixed(appendLenPrefixed(nil, env.EphemeralPub), env.Commit)
	v3table = binary.AppendUvarint(v3table, 2)
	for i, id := range []string{"alice", "bob"} {
		v3table = appendLenPrefixed(v3table, []byte(id))
		v3table = appendLenPrefixed(v3table, env.Wraps[i*dcrypto.WrappedKeySize:][:dcrypto.WrappedKeySize])
	}
	table := appendEnvelopeKeys(nil, env.EphemeralPub, env.Commit, env.Wraps)
	v3, v4 := env, env
	v3.Scheme, v4.Scheme = "hybrid-aes256gcm/v3", "hybrid-aes256gcm/v4"
	group := appendLenPrefixed([]byte{binaryMagic, 0x03}, []byte("hybrid-aes256gcm/group/v4"))
	group = appendLenPrefixed(group, []byte(env.Channel))
	group = binary.AppendUvarint(group, env.Epoch)
	group = binary.AppendUvarint(group, 2)
	group = appendLenPrefixed(group, env.Ciphertext)
	return map[string][]byte{
		"v3 frame":            frameWithTable(v3, v3table),
		"v4 frame":            frameWithTable(v4, table),
		"0x03 group frame":    append(group, table...),
		"0x03 kind, v5 frame": append([]byte{binaryMagic, 0x03}, EncodeEnvelope(env)[2:]...),
	}
}

// frameWithTable is env's frame with its key-table section replaced.
func frameWithTable(env Envelope, section []byte) []byte {
	out := []byte{binaryMagic, binaryKindEnvelope}
	out = appendLenPrefixed(out, []byte(env.Scheme))
	out = appendLenPrefixed(out, []byte(env.Channel))
	out = binary.AppendUvarint(out, env.Epoch)
	out = append(out, section...)
	return appendLenPrefixed(out, env.Ciphertext)
}

// TestKeyTableIsCanonical names what FuzzEnvelopeFrame's seeds carry: every
// non-canonical table is ErrBadFrame, so is every retired frame, and the
// frames they were derived from parse and re-encode to themselves.
func TestKeyTableIsCanonical(t *testing.T) {
	envs := fuzzEnvelopes(t)
	for _, env := range envs {
		good := appendEnvelopeKeys(nil, env.EphemeralPub, env.Commit, env.Wraps)
		if b := frameWithTable(env, good); !bytes.Equal(b, EncodeEnvelope(env)) {
			t.Fatal("frameWithTable does not build the canonical frame from the canonical table")
		} else if back, err := ParseEnvelope(b); err != nil || !bytes.Equal(EncodeEnvelope(back), b) {
			t.Fatalf("canonical frame: err=%v", err)
		}
		for _, table := range nonCanonicalTables(env) {
			if got, err := ParseEnvelope(frameWithTable(env, table.section)); !errors.Is(err, ErrBadFrame) {
				t.Errorf("%s, %d-byte ciphertext: err=%v wraps=%d bytes, want ErrBadFrame", table.name, len(env.Ciphertext), err, len(got.Wraps))
			}
		}
	}
	for name, frame := range retiredFrames(envs[0]) {
		if _, err := ParseEnvelope(frame); !errors.Is(err, ErrBadFrame) {
			t.Errorf("a %s: %v, want ErrBadFrame", name, err)
		}
	}
}

// FuzzParseStages throws arbitrary text at the -stages parser and hands
// whatever it accepts to Config.build. The parser is the one place operator
// text becomes configuration, so it may refuse input but never panic, every
// refusal wraps ErrBadConfig (cmd/gateway prints the stage usage on it),
// and what it returns is well-formed: registered stage names only and no
// empty parameter key. A pipeline of distinct names is then ordered, or
// refused, as the reference rulebook orders it (referenceAdmits). build
// over an empty Env must answer with an error or a chain — a stage
// constructor that dereferences a dependency the Env did not bring is a
// crash at start-up.
func FuzzParseStages(f *testing.F) {
	for _, seed := range []string{
		"session(ttl=10m,idle=5m)|encrypt(keyttl=5m)|audit(observer=gateway-op)", // cmd/gateway -stages default
		"session|encrypt(keyttl=5m)|audit=async",
		"session|anoncred(attrs=role=member)|encrypt",
		"session||authn",
		"|",
		"",
		"batch(size=4",
		"batch)size=4(",
		"batch((size=4))",
		"audit(observer=(a,b))",
		"encrypt(keyttl=5m,keyttl=0)",
		"encrypt(=5m)",
		" batch( size = 4 , groupseal=off ) ",
		"authn|session",
		"session|anoncred(attrs=a,scope=s)",
		"anoncred|zkproof|attest|encrypt|audit",
		"batch|aggregate",
		"session|encrypt|aggregate",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		stages, err := ParseStages(in)
		if err != nil {
			if !errors.Is(err, ErrBadConfig) {
				t.Fatalf("ParseStages(%q): %v does not wrap ErrBadConfig", in, err)
			}
			return
		}
		if len(stages) == 0 {
			t.Fatalf("ParseStages(%q) returned no stage and no error", in)
		}
		names := make([]string, len(stages))
		distinct := make(map[string]bool, len(stages))
		for i, sc := range stages {
			if lookupStage(sc.Name) == nil {
				t.Fatalf("ParseStages(%q) returned unregistered stage %q", in, sc.Name)
			}
			if _, ok := sc.Params[""]; ok {
				t.Fatalf("ParseStages(%q): stage %q has an empty parameter key", in, sc.Name)
			}
			names[i] = sc.Name
			distinct[sc.Name] = true
		}
		if len(distinct) == len(names) {
			if walk, ref := walkAdmits(names), referenceAdmits(names); walk != ref {
				t.Fatalf("ParseStages(%q): validate admits %v, the reference rulebook %v", in, walk, ref)
			}
		}
		// A parsed pipeline builds or is refused; it never panics.
		Config{Stages: stages}.build(Env{}, func(context.Context, *Request) error { return nil })
	})
}

func mustHello(f *testing.F, principal string, cert pki.Certificate, key *dcrypto.PrivateKey) SessionHello {
	f.Helper()
	hello, err := newSessionHelloAt(principal, cert, key, time.Now())
	if err != nil {
		f.Fatal(err)
	}
	return hello
}

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
	"dltprivacy/internal/transport"
)

// FuzzWireRequest throws arbitrary bytes at every transport topic the
// gateway serves — gateway.submit, session.open, session.close,
// revocation.notify — so malformed framing, forged session tokens, and
// corrupted certificates can reject requests but never panic the process.
// The gateway runs the full revocation-aware pipeline, so the fuzz input
// crosses the wire decode, the session/token path, authn, and envelope
// sealing. Every submission a gateway accepts is answered with Request.ID of
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
			{Name: StageSession, Params: map[string]string{"ttl": "1h", "idle": "1h", "revokecheck": "resolve", "reqauth": "mac"}},
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
	net := transport.New()
	if err := gw.AttachTransport(context.Background(), net, "gateway"); err != nil {
		f.Fatal(err)
	}
	grant, err := gw.Sessions().Open(mustHello(f, "alice", cert, key))
	if err != nil {
		f.Fatal(err)
	}

	// Seeds: a well-formed session submission, near-miss mutations of it,
	// a valid hello, and framing junk — JSON documents, which were a wire
	// format once, among the junk.
	good := &Request{Channel: "deals", Principal: "alice", Payload: []byte("trade"), SessionToken: grant.Token}
	if err := SignRequest(good, key); err != nil {
		f.Fatal(err)
	}
	goodSigned, err := EncodeWireRequest(good, "")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(goodSigned)
	// The same submission with a MAC instead of a signature, plus mutations
	// of the frame structure.
	macGood := &Request{Channel: "deals", Principal: "alice", Payload: []byte("trade"), SessionToken: grant.Token}
	MACRequest(macGood, grant.MacKey)
	goodBinary, err := EncodeWireRequest(macGood, "")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(goodBinary)
	// The same submission carrying a trace ID, so the fuzzer mutates the
	// trace uvarint between cert and meta.
	traced := &Request{Channel: "deals", Principal: "alice", Payload: []byte("trade"),
		SessionToken: grant.Token, TraceID: 0xfeedface}
	MACRequest(traced, grant.MacKey)
	tracedBinary, err := EncodeWireRequest(traced, "")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(tracedBinary)
	f.Add(tracedBinary[:len(tracedBinary)-1])
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
	// First-contact frames: a certificate that names its holder, and the two
	// the encoder would not have sent — no identity, and not even an object —
	// which the decoder keeps as the frame's certificate all the same.
	firstContact := &Request{Channel: "deals", Principal: "alice", Payload: []byte("trade"), Cert: cert}
	if err := SignRequest(firstContact, key); err != nil {
		f.Fatal(err)
	}
	withCert, err := EncodeWireRequest(firstContact, "")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(withCert)
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
	// place of certificate authn, a range-proof gate, TEE attestation, and
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
	if err := privGW.AttachTransport(context.Background(), net, "privgateway"); err != nil {
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
	topics := []string{TopicSubmit, TopicSessionOpen, TopicSessionClose, TopicRevocationNotify, "unknown.topic"}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, topic := range topics {
			for _, to := range []string{"gateway", "privgateway"} {
				// Errors are the expected outcome for junk; the invariant under
				// test is that no input can panic the gateway or wedge a lock.
				reply, err := net.Send(transport.Message{From: "fuzzer", To: to, Topic: topic, Payload: data})
				if topic != TopicSubmit || err != nil {
					continue
				}
				// An accepted submission is answered with the ID of what was
				// submitted, whatever the chain made of the request since.
				var fresh Request
				if err := decodeRequestBinary(data, &fresh, nil); err != nil || string(reply) != fresh.ID() {
					t.Fatalf("%s accepted a submission with reply %q, want its ID %q (decode: %v)", to, reply, fresh.ID(), err)
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
		frame, err := EncodeWireRequest(&first, "")
		if err != nil {
			// The 64-byte field admits a zero component, which no verifier
			// accepts and the encoder does not emit.
			if first.Sig.WellFormed() || !errors.Is(err, dcrypto.ErrInvalidSignature) {
				t.Fatalf("the encoder refuses what the decoder accepted: %v", err)
			}
			return
		}
		if err := decodeRequestBinary(frame, &second, nil); err != nil {
			t.Fatalf("the decoder refuses what the encoder made of a decoded request: %v", err)
		}
		// The encoder does not send a certificate that names nobody; the
		// decoder kept whatever certificate the frame carried.
		want := first
		if want.Cert.Identity == "" {
			want.Cert = pki.Certificate{}
		}
		requireSameRequest(t, "decode -> encode -> decode", &want, &second)
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
// field a frame carries. Certificates compare as the JSON they nest as.
func requireSameRequest(t *testing.T, what string, want, got *Request) {
	t.Helper()
	wantCert, err := json.Marshal(want.Cert)
	if err != nil {
		t.Fatalf("marshal certificate: %v", err)
	}
	gotCert, err := json.Marshal(got.Cert)
	if err != nil {
		t.Fatalf("marshal certificate: %v", err)
	}
	same := want.Channel == got.Channel && want.Principal == got.Principal && want.Backend == got.Backend &&
		want.SessionToken == got.SessionToken && want.TraceID == got.TraceID &&
		bytes.Equal(want.Payload, got.Payload) && bytes.Equal(want.MAC, got.MAC) &&
		want.Sig.WellFormed() == got.Sig.WellFormed() && bytes.Equal(wantCert, gotCert) &&
		maps.Equal(want.Meta, got.Meta)
	if same && want.Sig.WellFormed() {
		same = bytes.Equal(want.Sig.Bytes(), got.Sig.Bytes())
	}
	if !same {
		t.Fatalf("%s changed the request:\n was %+v\n now %+v", what, want, got)
	}
}

// FuzzEnvelopeFrame throws arbitrary bytes at the two envelope decoders a
// ledger reader runs on transaction payloads it did not produce —
// ParseEnvelope and ParseGroupEnvelope. Hostile bytes may be rejected, always
// with ErrBadFrame, but never panic, and a table's declared key count is
// checked against the bytes that remain before the map is sized, so no
// input makes a decoder allocate beyond a multiple of its own length. What
// does decode has exactly one encoding: whatever parses re-encodes to the
// same bytes, so a ledger payload hash pins one envelope — no duplicated or
// reordered recipient, padded varint or second table layout decodes to an
// envelope some other frame also decodes to.
func FuzzEnvelopeFrame(f *testing.F) {
	env, genv := envelopePair(f)
	single, group := EncodeEnvelope(env), EncodeGroupEnvelope(genv)
	f.Add(single)
	f.Add(group)
	f.Add(single[:len(single)/2])
	f.Add(group[:len(group)-1])
	f.Add(append(append([]byte(nil), single...), 0x00))
	// Each kind under the other's kind byte: the field orders differ.
	f.Add(append([]byte{binaryMagic, binaryKindGroupEnvelope}, single[2:]...))
	f.Add(append([]byte{binaryMagic, binaryKindEnvelope}, group[2:]...))
	// A key count the remaining bytes cannot hold, in both frame kinds.
	f.Add([]byte{binaryMagic, binaryKindEnvelope, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{binaryMagic, binaryKindGroupEnvelope, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff, 0x0f})
	// JSON documents — the debug view of a real envelope among them — are
	// not a ledger format.
	asJSON, err := json.Marshal(env)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(asJSON)
	f.Add([]byte(`{"scheme":"x","keys":{"a":{}},"ciphertext":null}`))
	// Tables that are not the one encoding of what they hold (see
	// nonCanonicalTables), under each kind byte.
	for _, table := range nonCanonicalTables(env) {
		f.Add(singleFrameWithTable(env, table.section))
		f.Add(groupFrameWithTable(genv, table.section))
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
		genv, gerr := ParseGroupEnvelope(data)
		if gerr == nil {
			if back := EncodeGroupEnvelope(genv); !bytes.Equal(back, data) {
				t.Fatalf("a group envelope frame parsed but re-encodes differently:\n in  %x\n out %x", data, back)
			}
		} else if !errors.Is(gerr, ErrBadFrame) {
			t.Fatalf("ParseGroupEnvelope rejected with %v, want ErrBadFrame", gerr)
		}
		if (len(data) < 2 || data[0] != binaryMagic) && (err == nil || gerr == nil) {
			t.Fatalf("a payload without the frame magic decoded as an envelope")
		}
	})
}

// envelopePair seals a two-recipient envelope (epoch 7) and dresses the same
// ciphertext and key table as a group envelope: well-formed frames of both
// kinds for the decoders' tests to start from.
func envelopePair(tb testing.TB) (Envelope, GroupEnvelope) {
	tb.Helper()
	key, err := dcrypto.GenerateKey()
	if err != nil {
		tb.Fatal(err)
	}
	env, err := SealEnvelope("deals", []byte("trade"), map[string]dcrypto.PublicKey{"alice": key.Public(), "bob": key.Public()})
	if err != nil {
		tb.Fatal(err)
	}
	env.Epoch = 7
	return env, GroupEnvelope{Scheme: GroupEnvelopeScheme, Channel: "deals", Epoch: 7, Count: 2,
		Ciphertext: env.Ciphertext, EphemeralPub: env.EphemeralPub, Commit: env.Commit, Keys: env.Keys}
}

// badTable is a key-table section keyTable must refuse, with the reason.
type badTable struct {
	name    string
	section []byte
}

// nonCanonicalTables builds, from a two-recipient envelope, the key-table
// sections keyTable must refuse: each decodes field by field but is not the
// one encoding of the table it holds.
func nonCanonicalTables(env Envelope) []badTable {
	ids := sortedKeyIDs(env.Keys)
	first, second := ids[0], ids[1]
	table := func(ephPub, commit []byte, n uint64, pairs ...[]byte) []byte {
		out := appendLenPrefixed(nil, ephPub)
		out = appendLenPrefixed(out, commit)
		out = binary.AppendUvarint(out, n)
		for _, p := range pairs {
			out = appendLenPrefixed(out, p)
		}
		return out
	}
	// The first retired layout: no shared ephemeral key, and per recipient its
	// own 65-byte ephemeral key and a nonce-prefixed 60-byte ciphertext.
	v1 := binary.AppendUvarint(nil, 2)
	// The second: one shared ephemeral key, no commitment, and per recipient
	// the key sealed under AES-GCM, 48 bytes with its tag.
	v2 := binary.AppendUvarint(appendLenPrefixed(nil, env.EphemeralPub), 2)
	for _, id := range ids {
		v1 = appendLenPrefixed(v1, []byte(id))
		v1 = appendLenPrefixed(v1, env.EphemeralPub)
		v1 = appendLenPrefixed(v1, make([]byte, 60))
		v2 = appendLenPrefixed(v2, []byte(id))
		v2 = appendLenPrefixed(v2, make([]byte, 48))
	}
	offCurve := append([]byte(nil), env.EphemeralPub...)
	offCurve[len(offCurve)-1] ^= 1
	eph, commit, a, b := env.EphemeralPub, env.Commit, env.Keys[first], env.Keys[second]
	return []badTable{
		{"duplicate id", table(eph, commit, 2, []byte(first), a, []byte(first), a)},
		{"ids out of order", table(eph, commit, 2, []byte(second), b, []byte(first), a)},
		{"v1 layout", v1},
		{"v2 layout", v2},
		{"short ephemeral key", table(eph[:64], commit, 2, []byte(first), a, []byte(second), b)},
		{"ephemeral key off the curve", table(offCurve, commit, 2, []byte(first), a, []byte(second), b)},
		{"31-byte commitment", table(eph, commit[:31], 2, []byte(first), a, []byte(second), b)},
		{"33-byte commitment", table(eph, append(bytes.Clone(commit), 0), 2, []byte(first), a, []byte(second), b)},
		{"no commitment", table(eph, nil, 2, []byte(first), a, []byte(second), b)},
		{"31-byte wrap", table(eph, commit, 2, []byte(first), a[:31], []byte(second), b)},
		{"48-byte wrap", table(eph, commit, 2, []byte(first), append(bytes.Clone(a), make([]byte, 16)...), []byte(second), b)},
		{"padded key count", append(appendLenPrefixed(appendLenPrefixed(nil, eph), commit), 0x80, 0x00)},
	}
}

// singleFrameWithTable is env's single-envelope frame with its key-table
// section replaced.
func singleFrameWithTable(env Envelope, section []byte) []byte {
	out := []byte{binaryMagic, binaryKindEnvelope}
	out = appendLenPrefixed(out, []byte(env.Scheme))
	out = appendLenPrefixed(out, []byte(env.Channel))
	out = binary.AppendUvarint(out, env.Epoch)
	out = append(out, section...)
	return appendLenPrefixed(out, env.Ciphertext)
}

// groupFrameWithTable is genv's group-envelope frame with its key-table
// section replaced.
func groupFrameWithTable(genv GroupEnvelope, section []byte) []byte {
	out := []byte{binaryMagic, binaryKindGroupEnvelope}
	out = appendLenPrefixed(out, []byte(genv.Scheme))
	out = appendLenPrefixed(out, []byte(genv.Channel))
	out = binary.AppendUvarint(out, genv.Epoch)
	out = binary.AppendUvarint(out, genv.Count)
	out = appendLenPrefixed(out, genv.Ciphertext)
	return append(out, section...)
}

// TestKeyTableIsCanonical names what FuzzEnvelopeFrame's seeds carry: every
// non-canonical table is ErrBadFrame under both kind bytes, and the frames
// they were derived from parse and re-encode to themselves. At the parent of
// the PR that added it the duplicate-id table parsed, as a one-key envelope.
func TestKeyTableIsCanonical(t *testing.T) {
	env, genv := envelopePair(t)
	good := appendEnvelopeKeys(nil, env.EphemeralPub, env.Commit, env.Keys, sortedKeyIDs(env.Keys))
	if b := singleFrameWithTable(env, good); !bytes.Equal(b, EncodeEnvelope(env)) {
		t.Fatal("singleFrameWithTable does not build the canonical frame from the canonical table")
	} else if back, err := ParseEnvelope(b); err != nil || !bytes.Equal(EncodeEnvelope(back), b) {
		t.Fatalf("canonical single frame: err=%v", err)
	}
	if b := groupFrameWithTable(genv, good); !bytes.Equal(b, EncodeGroupEnvelope(genv)) {
		t.Fatal("groupFrameWithTable does not build the canonical frame from the canonical table")
	} else if back, err := ParseGroupEnvelope(b); err != nil || !bytes.Equal(EncodeGroupEnvelope(back), b) {
		t.Fatalf("canonical group frame: err=%v", err)
	}
	for _, table := range nonCanonicalTables(env) {
		if got, err := ParseEnvelope(singleFrameWithTable(env, table.section)); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s, single: err=%v keys=%d, want ErrBadFrame", table.name, err, len(got.Keys))
		}
		if got, err := ParseGroupEnvelope(groupFrameWithTable(genv, table.section)); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s, group: err=%v keys=%d, want ErrBadFrame", table.name, err, len(got.Keys))
		}
	}
}

// FuzzParseStages throws arbitrary text at the -stages parser and hands
// whatever it accepts to Config.Build. The parser is the one place operator
// text becomes configuration, so it may refuse input but never panic, every
// refusal wraps ErrBadConfig (cmd/gateway prints the stage usage on it),
// and what it returns is well-formed: registered stage names only and no
// empty parameter key. Build over an empty Env must then answer with an
// error or a chain — a stage constructor that dereferences a dependency
// the Env did not bring is a crash at start-up.
func FuzzParseStages(f *testing.F) {
	for _, seed := range []string{
		"session(reqauth=mac)|authn|encrypt|audit(auditasync=256)|batch(size=4,groupseal=on)", // docs/OPERATIONS.md
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
		" ratelimit( rate = 1 , burst=2 ) ",
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
		for _, sc := range stages {
			if lookupStage(sc.Name) == nil {
				t.Fatalf("ParseStages(%q) returned unregistered stage %q", in, sc.Name)
			}
			if _, ok := sc.Params[""]; ok {
				t.Fatalf("ParseStages(%q): stage %q has an empty parameter key", in, sc.Name)
			}
		}
		chain, err := Config{Stages: stages}.Build(Env{}, func(context.Context, *Request) error { return nil })
		if err != nil {
			return
		}
		// An async audit stage owns a drain goroutine.
		for _, s := range chain.stages {
			if c, ok := s.(stageCloser); ok {
				c.Close()
			}
		}
	})
}

func mustHello(f *testing.F, principal string, cert pki.Certificate, key *dcrypto.PrivateKey) SessionHello {
	f.Helper()
	hello, err := NewSessionHelloAt(principal, cert, key, time.Now())
	if err != nil {
		f.Fatal(err)
	}
	return hello
}

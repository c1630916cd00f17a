package middleware

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"dltprivacy/internal/dcrypto"
)

// TestEnvelopeFrameSize pins what a member costs on the ledger, at the
// benchmark's shape: 50 members org-00…org-49 on deals-0, a 96-byte trade.
// The frame must stay inside the allocator's 2,304-byte size class (the next
// is 2,688, then 3,072): a layout change that crosses it costs every sealed
// envelope its copy, zero-fill and garbage, and fails here without the
// benchmark. The head is the sizing rule of docs/OPERATIONS.md, exactly.
func TestEnvelopeFrameSize(t *testing.T) {
	const channel = "deals-0"
	members := make(map[string]dcrypto.PublicKey, 50)
	perMember := 0
	for i := 0; i < 50; i++ {
		key, err := dcrypto.GenerateKey()
		if err != nil {
			t.Fatal(err)
		}
		id := fmt.Sprintf("org-%02d", i)
		members[id] = key.Public()
		perMember += len(id) + 34 // id and wrap, a length byte each, and the 32-byte wrap
	}
	ck, err := newChannelKey(channel, 1, members, envelopeAD(channel))
	if err != nil {
		t.Fatal(err)
	}
	// magic, kind, scheme, channel, epoch and the key count.
	fixed := 2 + lenPrefixedSize(len(EnvelopeScheme)) + lenPrefixedSize(len(channel)) + 1 + 1
	if got, want := len(ck.frameHead), fixed+66+33+perMember; got != want {
		t.Fatalf("frame head is %d bytes, want %d = %d fixed + 66 for the ephemeral key + 33 for the key commitment + %d for the members", got, want, fixed, perMember)
	}
	frame, _, err := ck.sealFrame(make([]byte, 96))
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) > 2304 {
		t.Fatalf("frame is %d bytes, over the 2,304-byte size class", len(frame))
	}
	if want := 153 + len(channel) + 96 + perMember; len(frame) != want {
		t.Fatalf("frame is %d bytes, the sizing rule says %d", len(frame), want)
	}
}

// sealCached runs one authenticated submission through a cached encrypt
// stage and returns the envelope it emitted.
func sealCached(t *testing.T, enc *Encrypt, payload string) Envelope {
	t.Helper()
	req := &Request{Channel: "deals", Principal: "alice", Payload: []byte(payload), authenticated: true}
	if err := enc.Handle(context.Background(), req, func(context.Context, *Request) error { return nil }); err != nil {
		t.Fatalf("seal: %v", err)
	}
	env, err := ParseEnvelope(req.Payload)
	if err != nil {
		t.Fatalf("ParseEnvelope: %v", err)
	}
	return env
}

// TestRevocationRotatesEphemeralKey: a revocation forces a fresh epoch, and a
// fresh epoch is a fresh data key under a fresh ephemeral key with no entry
// for the revoked member — who keeps what it could already read and gains
// nothing after, not even by filing a survivor's wrap under its own name.
func TestRevocationRotatesEphemeralKey(t *testing.T) {
	_, ps := enroll(t, "alice", "bob", "carol")
	members := make(map[string]dcrypto.PublicKey, len(ps))
	for id, p := range ps {
		members[id] = p.key.Public()
	}
	enc, err := NewCachedEncrypt(StaticDirectory{"deals": members}, time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := []Envelope{sealCached(t, enc, "old-0"), sealCached(t, enc, "old-1")}
	enc.RevokeMember("bob")
	after := []Envelope{sealCached(t, enc, "new-0"), sealCached(t, enc, "new-1")}

	if before[0].Epoch != 1 || after[0].Epoch != 2 {
		t.Fatalf("epochs = %d then %d, want 1 then 2", before[0].Epoch, after[0].Epoch)
	}
	if bytes.Equal(before[0].EphemeralPub, after[0].EphemeralPub) {
		t.Fatal("the epoch installed after the revocation reuses the old ephemeral key")
	}
	for i, env := range before {
		got, err := OpenEnvelope(env, "bob", ps["bob"].key)
		if err != nil || string(got) != fmt.Sprintf("old-%d", i) {
			t.Fatalf("revoked member lost an envelope it could read before: %q, %v", got, err)
		}
	}
	for i, env := range after {
		if _, ok := env.Keys["bob"]; ok || len(env.Keys) != 2 {
			t.Fatalf("new-epoch table has %d entries (bob present: %v), want alice and carol only", len(env.Keys), ok)
		}
		if _, err := OpenEnvelope(env, "bob", ps["bob"].key); !errors.Is(err, ErrNotRecipient) {
			t.Fatalf("revoked member opening new envelope %d: %v, want ErrNotRecipient", i, err)
		}
		forged := env
		forged.Keys = map[string][]byte{"bob": env.Keys["alice"]}
		if _, err := OpenEnvelope(forged, "bob", ps["bob"].key); !errors.Is(err, dcrypto.ErrDecrypt) {
			t.Fatalf("revoked member opening with alice's wrap under its own name: %v, want ErrDecrypt", err)
		}
		for _, id := range []string{"alice", "carol"} {
			if got, err := OpenEnvelope(env, id, ps[id].key); err != nil || string(got) != fmt.Sprintf("new-%d", i) {
				t.Fatalf("%s opening new envelope %d: %q, %v", id, i, got, err)
			}
		}
	}
}

// TestGroupEnvelopeSplicesEpochKeySection: a batch(groupseal=on) release and
// a single envelope of the same epoch carry the same key table, byte for
// byte — the table is wrapped once per epoch and spliced, never re-encoded —
// and the group opens for every member.
func TestGroupEnvelopeSplicesEpochKeySection(t *testing.T) {
	ca, ps := enroll(t, "alice", "bob", "carol")
	members := make(map[string]dcrypto.PublicKey, len(ps))
	for id, p := range ps {
		members[id] = p.key.Public()
	}
	sink := &accept{}
	chain, err := groupCfg(2).Build(Env{CAKey: ca.PublicKey(), Directory: StaticDirectory{"deals": members}}, sink.handler)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"trade-0", "trade-1"} {
		if err := chain.Execute(context.Background(), signedRequest(t, ps["alice"], "deals", []byte(p))); err != nil {
			t.Fatal(err)
		}
	}
	if sink.count() != 1 {
		t.Fatalf("terminal saw %d requests, want 1 group release", sink.count())
	}
	group := sink.seen[0].Payload

	var enc *Encrypt
	for _, s := range chain.stages {
		if e, ok := s.(*Encrypt); ok {
			enc = e
		}
	}
	ck, err := enc.channelKeyFor(&Request{}, "deals", 0)
	if err != nil {
		t.Fatal(err)
	}
	single, _, err := ck.sealFrame([]byte("trade-2"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(group, ck.keySection) {
		t.Fatal("the group frame does not end with the epoch's key section")
	}
	if !bytes.HasSuffix(single[:len(ck.frameHead)], ck.keySection) {
		t.Fatal("the single frame's head does not end with the epoch's key section")
	}
	genv, err := ParseGroupEnvelope(group)
	if err != nil {
		t.Fatal(err)
	}
	senv, err := ParseEnvelope(single)
	if err != nil {
		t.Fatal(err)
	}
	if genv.Epoch != senv.Epoch {
		t.Fatalf("group epoch %d, single epoch %d: not the same key", genv.Epoch, senv.Epoch)
	}
	if !bytes.Equal(EncodeGroupEnvelope(genv), group) {
		t.Fatal("the spliced group frame is not the canonical encoding of what it parses to")
	}
	for id, p := range ps {
		segs, err := OpenGroupEnvelope(genv, id, p.key)
		if err != nil || len(segs) != 2 || string(segs[0]) != "trade-0" || string(segs[1]) != "trade-1" {
			t.Fatalf("%s opening the group: %q, %v", id, segs, err)
		}
		if got, err := OpenEnvelope(senv, id, p.key); err != nil || string(got) != "trade-2" {
			t.Fatalf("%s opening the single envelope: %q, %v", id, got, err)
		}
	}
}

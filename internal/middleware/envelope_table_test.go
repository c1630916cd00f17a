package middleware

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"dltprivacy/internal/dcrypto"
)

// benchMembers is the benchmark's channel shape: n members org-00, org-01, …
// with fresh keys, and their private keys by name.
func benchMembers(tb testing.TB, n int) (map[string]dcrypto.PublicKey, map[string]*dcrypto.PrivateKey) {
	tb.Helper()
	members := make(map[string]dcrypto.PublicKey, n)
	keys := make(map[string]*dcrypto.PrivateKey, n)
	for i := 0; i < n; i++ {
		key, err := dcrypto.GenerateKey()
		if err != nil {
			tb.Fatal(err)
		}
		id := fmt.Sprintf("org-%02d", i)
		members[id], keys[id] = key.Public(), key
	}
	return members, keys
}

// framesPerSlab is how many frames of size the slab that one of them opens in
// c holds: the nominal size's worth rounded up, grown to the allocator's size
// class (slabCarver.carve), and 1 for a frame carved on its own.
func framesPerSlab(c *slabCarver, size int) int {
	if size >= c.slab {
		return 1
	}
	return cap(slices.Grow([]byte(nil), (c.slab+size-1)/size*size)) / size
}

// TestEnvelopeFrameSize pins what a member costs on the ledger, at the
// benchmark's shape: 50 members org-00…org-49 on deals-0, a 96-byte trade.
// The frame must go five to a slab of the sealed carver's: a layout change
// that moves it costs every sealed envelope a share of a slab, and fails
// here without the benchmark. The head and the frame are the sizing rules of
// docs/OPERATIONS.md, exactly: a member costs its 32-byte wrap and nothing
// else, whatever its name. A batch_groupseal group, 64 such trades, must
// stay under the carver's 8,192-byte nominal slab, so it is carved two to a
// slab and not allocated on its own.
func TestEnvelopeFrameSize(t *testing.T) {
	const channel = "deals-0"
	members, _ := benchMembers(t, 50)
	ck, err := newChannelKey(channel, 1, members, envelopeAD(channel))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(ck.frameHead), 124+len(channel)+32*len(members); got != want {
		t.Fatalf("frame head is %d bytes, the sizing rule says %d = 124 + len(channel) + 32 × members", got, want)
	}
	frame, _, err := ck.seal([][]byte{make([]byte, 96)})
	if err != nil {
		t.Fatal(err)
	}
	if got := framesPerSlab(sealedFrames, len(frame)); got != 5 {
		t.Fatalf("frame is %d bytes, %d to a sealed slab, want 5", len(frame), got)
	}
	if want := 155 + len(channel) + 96 + 32*len(members); len(frame) != want {
		t.Fatalf("frame is %d bytes, the sizing rule says %d = 155 + len(channel) + payload + 32 × members", len(frame), want)
	}
	group := make([][]byte, 64)
	for i := range group {
		group[i] = make([]byte, 96)
	}
	if frame, _, err = ck.seal(group); err != nil {
		t.Fatal(err)
	}
	if got := framesPerSlab(sealedFrames, len(frame)); len(frame) >= sealedFrames.slab || got != 2 {
		t.Fatalf("a group of 64 is %d bytes, %d to a sealed slab, want 2 under the %d-byte nominal slab", len(frame), got, sealedFrames.slab)
	}
}

// TestSealRoundTrips: a frame of N payloads parses and opens back to its
// payloads byte for byte, re-encodes to itself, and comes with its SHA-256;
// OpenEnvelope opens a frame of one and refuses a group. A ciphertext sealed
// under the …/v4 associated data and spliced under this head does not open.
func TestSealRoundTrips(t *testing.T) {
	_, ps := enroll(t, "alice", "bob")
	members := map[string]dcrypto.PublicKey{"alice": ps["alice"].key.Public(), "bob": ps["bob"].key.Public()}
	ck, err := newChannelKey("deals", 3, members, envelopeAD("deals"))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 64} {
		payloads := make([][]byte, n)
		for i := range payloads {
			payloads[i] = []byte(fmt.Sprintf("trade-%d of %d", i, n))
		}
		frame, sum, err := ck.seal(payloads)
		if err != nil {
			t.Fatal(err)
		}
		if sum != sha256.Sum256(frame) {
			t.Fatalf("n=%d: the sum returned is not SHA-256 of the frame", n)
		}
		env, err := ParseEnvelope(frame)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !bytes.Equal(EncodeEnvelope(env), frame) {
			t.Fatalf("n=%d: the frame does not re-encode to itself", n)
		}
		for id, p := range ps {
			got, err := OpenGroupEnvelope(env, id, p.key)
			if err != nil || len(got) != n {
				t.Fatalf("n=%d: %s opened %d payloads, %v", n, id, len(got), err)
			}
			for i := range got {
				if !bytes.Equal(got[i], payloads[i]) {
					t.Fatalf("n=%d: payload %d opened to %q, sealed %q", n, i, got[i], payloads[i])
				}
			}
			one, err := OpenEnvelope(env, id, p.key)
			switch {
			case n == 1 && (err != nil || !bytes.Equal(one, payloads[0])):
				t.Fatalf("n=1: OpenEnvelope = %q, %v", one, err)
			case n > 1 && !errors.Is(err, ErrBadFrame):
				t.Fatalf("n=%d: OpenEnvelope = %v, want ErrBadFrame", n, err)
			}
		}
	}
	old, err := dcrypto.EncryptWithAEAD(ck.aead, []byte("trade"), []byte("middleware/envelope/v1/deals"))
	if err != nil {
		t.Fatal(err)
	}
	env, err := ParseEnvelope(appendLenPrefixed(bytes.Clone(ck.frameHead), old))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenGroupEnvelope(env, "alice", ps["alice"].key); !errors.Is(err, dcrypto.ErrDecrypt) {
		t.Fatalf("a v4 ciphertext under a v5 head: %v, want ErrDecrypt", err)
	}
}

// TestSealedFramesNameNobody: an operator holding every sealed frame of a
// 50-member channel — single envelopes and a group — finds no member's name
// in any of them, and every frame opens for every member.
func TestSealedFramesNameNobody(t *testing.T) {
	const channel = "deals-0"
	members, keys := benchMembers(t, 50)
	ck, err := newChannelKey(channel, 1, members, envelopeAD(channel))
	if err != nil {
		t.Fatal(err)
	}
	single, _, err := ck.seal([][]byte{[]byte("10 tons of steel")})
	if err != nil {
		t.Fatal(err)
	}
	group, _, err := ck.seal([][]byte{[]byte("trade-0"), []byte("trade-1")})
	if err != nil {
		t.Fatal(err)
	}
	uncached, err := SealEnvelope(channel, []byte("4 tons of copper"), members)
	if err != nil {
		t.Fatal(err)
	}
	frames := map[string][]byte{"single": single, "group": group, "uncached": EncodeEnvelope(uncached)}
	for kind, frame := range frames {
		for id := range members {
			if bytes.Contains(frame, []byte(id)) {
				t.Fatalf("the %s frame names member %s", kind, id)
			}
		}
	}
	senv, err := ParseEnvelope(single)
	if err != nil {
		t.Fatal(err)
	}
	genv, err := ParseEnvelope(group)
	if err != nil {
		t.Fatal(err)
	}
	if len(senv.Wraps) != 32*len(members) || !bytes.Equal(senv.Wraps, genv.Wraps) {
		t.Fatalf("single table %d bytes, group table %d: want the same %d wraps", len(senv.Wraps), len(genv.Wraps), len(members))
	}
	for id, key := range keys {
		if got, err := OpenEnvelope(senv, id, key); err != nil || string(got) != "10 tons of steel" {
			t.Fatalf("%s opening the single envelope: %q, %v", id, got, err)
		}
		if segs, err := OpenGroupEnvelope(genv, id, key); err != nil || len(segs) != 2 {
			t.Fatalf("%s opening the group: %q, %v", id, segs, err)
		}
		if _, err := OpenEnvelope(uncached, id, key); err != nil {
			t.Fatalf("%s opening the uncached envelope: %v", id, err)
		}
	}
}

// TestEnvelopeSameKeyUnderTwoNames: a key enrolled under two names is one
// wrap in the table — two would be a duplicate the parser refuses, so the
// sealer could not parse its own frame — and it opens under either name.
func TestEnvelopeSameKeyUnderTwoNames(t *testing.T) {
	_, ps := enroll(t, "alice", "bob")
	env, err := SealEnvelope("deals", []byte("trade"), map[string]dcrypto.PublicKey{
		"alice": ps["alice"].key.Public(), "alice-desk-2": ps["alice"].key.Public(), "bob": ps["bob"].key.Public(),
	})
	if err != nil {
		t.Fatalf("SealEnvelope: %v", err)
	}
	if len(env.Wraps) != 2*dcrypto.WrappedKeySize {
		t.Fatalf("three names on two keys made %d bytes of wraps, want two wraps", len(env.Wraps))
	}
	for _, name := range []string{"alice", "alice-desk-2"} {
		if got, err := OpenEnvelope(env, name, ps["alice"].key); err != nil || string(got) != "trade" {
			t.Fatalf("opening as %s: %q, %v", name, got, err)
		}
	}
}

// TestTamperedEnvelope: with no names in the table a reader cannot tell a
// flipped table bit from not being a recipient, so both are ErrNotRecipient —
// for every reader when the flip is in the ephemeral key or the commitment,
// for the one reader whose wrap it hit when it is in a wrap. A flipped
// ciphertext bit is still the AEAD's refusal.
func TestTamperedEnvelope(t *testing.T) {
	_, ps := enroll(t, "alice", "bob")
	env, err := SealEnvelope("deals", []byte("trade"), map[string]dcrypto.PublicKey{
		"alice": ps["alice"].key.Public(), "bob": ps["bob"].key.Public(),
	})
	if err != nil {
		t.Fatal(err)
	}
	flip := func(b []byte, i int) []byte {
		b = bytes.Clone(b)
		b[i] ^= 0x01
		return b
	}
	refusals := func(bad Envelope) int {
		n := 0
		for _, id := range []string{"alice", "bob"} {
			_, err := OpenEnvelope(bad, id, ps[id].key)
			switch {
			case errors.Is(err, ErrNotRecipient):
				n++
			case err != nil:
				t.Fatalf("%s: %v, want ErrNotRecipient or the payload", id, err)
			}
		}
		return n
	}
	for i := range env.EphemeralPub {
		bad := env
		bad.EphemeralPub = flip(env.EphemeralPub, i)
		if n := refusals(bad); n != 2 {
			t.Fatalf("ephemeral key byte %d flipped: %d readers refused, want 2", i, n)
		}
	}
	for i := range env.Commit {
		bad := env
		bad.Commit = flip(env.Commit, i)
		if n := refusals(bad); n != 2 {
			t.Fatalf("commitment byte %d flipped: %d readers refused, want 2", i, n)
		}
	}
	for i := range env.Wraps {
		bad := env
		bad.Wraps = flip(env.Wraps, i)
		if n := refusals(bad); n != 1 {
			t.Fatalf("wrap byte %d flipped: %d readers refused, want the wrap's holder alone", i, n)
		}
	}
	bad := env
	bad.Ciphertext = flip(env.Ciphertext, len(env.Ciphertext)-1)
	if _, err := OpenEnvelope(bad, "alice", ps["alice"].key); !errors.Is(err, dcrypto.ErrDecrypt) || errors.Is(err, ErrNotRecipient) {
		t.Fatalf("flipped ciphertext: %v, want the AEAD's ErrDecrypt", err)
	}
}

// sealCached runs one authenticated submission through a cached encrypt
// stage and returns the envelope it emitted.
func sealCached(t *testing.T, enc *encryptStage, payload string) Envelope {
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
// fresh epoch is a fresh data key under a fresh ephemeral key with no wrap
// for the revoked member — who keeps what it could already read and gains
// nothing after: it is refused exactly as an outsider is.
func TestRevocationRotatesEphemeralKey(t *testing.T) {
	_, ps := enroll(t, "alice", "bob", "carol", "dave")
	members := make(map[string]dcrypto.PublicKey, len(ps))
	for _, id := range []string{"alice", "bob", "carol"} {
		members[id] = ps[id].key.Public()
	}
	enc, err := newCachedEncrypt(StaticDirectory{"deals": members}, time.Hour, nil)
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
		if len(env.Wraps) != 2*dcrypto.WrappedKeySize {
			t.Fatalf("new-epoch table holds %d bytes of wraps, want alice's and carol's only", len(env.Wraps))
		}
		// The revoked member and an outsider get the same answer, under
		// their own names or a survivor's: the key, not the name, finds a wrap.
		for _, opener := range [][2]string{{"bob", "bob"}, {"alice", "bob"}, {"dave", "dave"}, {"alice", "dave"}} {
			if _, err := OpenEnvelope(env, opener[0], ps[opener[1]].key); !errors.Is(err, ErrNotRecipient) {
				t.Fatalf("%s's key opening new envelope %d as %s: %v, want ErrNotRecipient", opener[1], i, opener[0], err)
			}
		}
		for _, id := range []string{"alice", "carol"} {
			if got, err := OpenEnvelope(env, id, ps[id].key); err != nil || string(got) != fmt.Sprintf("new-%d", i) {
				t.Fatalf("%s opening new envelope %d: %q, %v", id, i, got, err)
			}
		}
	}
}

// TestEveryFrameOfAnEpochStartsWithItsHead: a batch(groupseal=on) release and
// a single envelope of the same epoch both start with the epoch's frame head,
// byte for byte — the table is wrapped once per epoch and copied, never
// re-encoded — the release carries its frame's sum for the ledger, and the
// group opens for every member.
func TestEveryFrameOfAnEpochStartsWithItsHead(t *testing.T) {
	ca, ps := enroll(t, "alice", "bob", "carol")
	members := make(map[string]dcrypto.PublicKey, len(ps))
	for id, p := range ps {
		members[id] = p.key.Public()
	}
	sink := &accept{}
	chain, err := groupCfg(2).build(Env{CAKey: ca.PublicKey(), Directory: StaticDirectory{"deals": members}}, sink.handler)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"trade-0", "trade-1"} {
		if err := chain.execute(context.Background(), chainRequest(t, chain, ps["alice"], "deals", []byte(p))); err != nil {
			t.Fatal(err)
		}
	}
	if sink.count() != 1 {
		t.Fatalf("terminal saw %d requests, want 1 group release", sink.count())
	}
	greq := sink.seen[0]
	group := greq.Payload
	if greq.sumOf != &group[0] || greq.sumLen != len(group) || greq.sum != sha256.Sum256(group) {
		t.Fatal("the group release does not carry its frame's SHA-256")
	}

	var enc *encryptStage
	for _, s := range chain.stages {
		if e, ok := s.(*encryptStage); ok {
			enc = e
		}
	}
	ck, err := enc.channelKeyFor(&Request{}, "deals", 0)
	if err != nil {
		t.Fatal(err)
	}
	single, _, err := ck.seal([][]byte{[]byte("trade-2")})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(group, ck.frameHead) || !bytes.HasPrefix(single, ck.frameHead) {
		t.Fatal("a frame of the epoch does not start with the epoch's head")
	}
	genv, err := ParseEnvelope(group)
	if err != nil {
		t.Fatal(err)
	}
	senv, err := ParseEnvelope(single)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(EncodeEnvelope(genv), group) {
		t.Fatal("the group frame is not the canonical encoding of what it parses to")
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

// BenchmarkOpenEnvelope is what a table that names nobody costs its reader:
// one ECDH, then a commitment checked against every wrap, so a recipient and
// an outsider pay the same whatever the name they open under.
//
//	go test -run '^$' -bench BenchmarkOpenEnvelope -count 5 ./internal/middleware/
func BenchmarkOpenEnvelope(b *testing.B) {
	outsider, err := dcrypto.GenerateKey()
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{50, 1000} {
		members, keys := benchMembers(b, n)
		env, err := SealEnvelope("deals-0", make([]byte, 96), members)
		if err != nil {
			b.Fatal(err)
		}
		for _, opener := range []struct {
			name string
			key  *dcrypto.PrivateKey
			want error
		}{{"recipient", keys["org-00"], nil}, {"outsider", outsider, ErrNotRecipient}} {
			b.Run(fmt.Sprintf("members=%d/%s", n, opener.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := OpenEnvelope(env, "org-00", opener.key); !errors.Is(err, opener.want) {
						b.Fatalf("open: %v, want %v", err, opener.want)
					}
				}
			})
		}
	}
}

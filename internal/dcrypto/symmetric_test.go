package dcrypto

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestSymmetricRoundTrip(t *testing.T) {
	key, err := NewSymmetricKey()
	if err != nil {
		t.Fatalf("NewSymmetricKey: %v", err)
	}
	pt := []byte("trade secret: unit price 4.20")
	ad := []byte("tx-1")
	ct, err := EncryptSymmetric(key, pt, ad)
	if err != nil {
		t.Fatalf("EncryptSymmetric: %v", err)
	}
	got, err := DecryptSymmetric(key, ct, ad)
	if err != nil {
		t.Fatalf("DecryptSymmetric: %v", err)
	}
	if !bytes.Equal(got, pt) {
		t.Fatalf("round trip = %q, want %q", got, pt)
	}
}

func TestSymmetricWrongKeyFails(t *testing.T) {
	k1, _ := NewSymmetricKey()
	k2, _ := NewSymmetricKey()
	ct, err := EncryptSymmetric(k1, []byte("secret"), nil)
	if err != nil {
		t.Fatalf("EncryptSymmetric: %v", err)
	}
	if _, err := DecryptSymmetric(k2, ct, nil); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("decrypt with wrong key = %v, want ErrDecrypt", err)
	}
}

func TestSymmetricWrongAADFails(t *testing.T) {
	key, _ := NewSymmetricKey()
	ct, err := EncryptSymmetric(key, []byte("secret"), []byte("tx-1"))
	if err != nil {
		t.Fatalf("EncryptSymmetric: %v", err)
	}
	if _, err := DecryptSymmetric(key, ct, []byte("tx-2")); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("decrypt with wrong aad = %v, want ErrDecrypt", err)
	}
}

func TestSymmetricTamperedCiphertextFails(t *testing.T) {
	key, _ := NewSymmetricKey()
	ct, err := EncryptSymmetric(key, []byte("secret"), nil)
	if err != nil {
		t.Fatalf("EncryptSymmetric: %v", err)
	}
	ct[len(ct)-1] ^= 0x01
	if _, err := DecryptSymmetric(key, ct, nil); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("decrypt tampered = %v, want ErrDecrypt", err)
	}
}

func TestSymmetricBadKeySize(t *testing.T) {
	if _, err := EncryptSymmetric([]byte("short"), []byte("x"), nil); !errors.Is(err, ErrBadKeySize) {
		t.Fatalf("short key = %v, want ErrBadKeySize", err)
	}
}

func TestSymmetricTruncatedCiphertext(t *testing.T) {
	key, _ := NewSymmetricKey()
	if _, err := DecryptSymmetric(key, []byte{1, 2, 3}, nil); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("truncated ciphertext = %v, want ErrDecrypt", err)
	}
}

func TestSegmentsRoundTrip(t *testing.T) {
	key, _ := NewSymmetricKey()
	aead, err := NewAEAD(key)
	if err != nil {
		t.Fatalf("NewAEAD: %v", err)
	}
	segments := [][]byte{
		[]byte("trade 1: 100 @ 4.20"),
		{}, // empty segment survives the frame
		[]byte("trade 3"),
		bytes.Repeat([]byte{0xAB}, 300), // length needs a 2-byte uvarint
	}
	ad := []byte("channel-A/epoch-7")
	ct, err := EncryptSegmentsWithAEAD(aead, segments, ad)
	if err != nil {
		t.Fatalf("EncryptSegmentsWithAEAD: %v", err)
	}
	got, err := DecryptSegmentsWithAEAD(aead, ct, ad)
	if err != nil {
		t.Fatalf("DecryptSegmentsWithAEAD: %v", err)
	}
	if len(got) != len(segments) {
		t.Fatalf("decrypted %d segments, want %d", len(got), len(segments))
	}
	for i := range segments {
		if !bytes.Equal(got[i], segments[i]) {
			t.Fatalf("segment %d = %q, want %q", i, got[i], segments[i])
		}
	}
	got2, err := DecryptSegments(key, ct, ad)
	if err != nil {
		t.Fatalf("DecryptSegments: %v", err)
	}
	if len(got2) != len(segments) || !bytes.Equal(got2[3], segments[3]) {
		t.Fatal("DecryptSegments mismatch with DecryptSegmentsWithAEAD")
	}
}

func TestSegmentsEmptyGroup(t *testing.T) {
	key, _ := NewSymmetricKey()
	aead, _ := NewAEAD(key)
	ct, err := EncryptSegmentsWithAEAD(aead, nil, nil)
	if err != nil {
		t.Fatalf("EncryptSegmentsWithAEAD(nil): %v", err)
	}
	got, err := DecryptSegmentsWithAEAD(aead, ct, nil)
	if err != nil {
		t.Fatalf("DecryptSegmentsWithAEAD: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("empty group decrypted to %d segments", len(got))
	}
}

func TestSegmentsTamperAndWrongAADFail(t *testing.T) {
	key, _ := NewSymmetricKey()
	aead, _ := NewAEAD(key)
	ct, err := EncryptSegmentsWithAEAD(aead, [][]byte{[]byte("a"), []byte("b")}, []byte("ad-1"))
	if err != nil {
		t.Fatalf("EncryptSegmentsWithAEAD: %v", err)
	}
	if _, err := DecryptSegmentsWithAEAD(aead, ct, []byte("ad-2")); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("wrong aad = %v, want ErrDecrypt", err)
	}
	tampered := bytes.Clone(ct)
	tampered[len(tampered)-1] ^= 0x01
	if _, err := DecryptSegmentsWithAEAD(aead, tampered, []byte("ad-1")); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("tampered = %v, want ErrDecrypt", err)
	}
	if _, err := DecryptSegmentsWithAEAD(aead, ct[:4], []byte("ad-1")); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("truncated = %v, want ErrDecrypt", err)
	}
}

func TestSegmentsSingleAllocation(t *testing.T) {
	key, _ := NewSymmetricKey()
	aead, _ := NewAEAD(key)
	segments := [][]byte{
		bytes.Repeat([]byte{1}, 64),
		bytes.Repeat([]byte{2}, 64),
		bytes.Repeat([]byte{3}, 64),
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := EncryptSegmentsWithAEAD(aead, segments, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("EncryptSegmentsWithAEAD allocates %.0f times per op, want 1", allocs)
	}
}

func TestSplitSegmentsMalformed(t *testing.T) {
	cases := map[string][]byte{
		"empty frame":           {},
		"count without body":    {0x02},
		"length past end":       {0x01, 0x7F, 0x01},
		"trailing junk":         {0x01, 0x01, 0xAA, 0xBB},
		"huge count":            {0xFF, 0xFF, 0xFF, 0xFF, 0x0F},
		"truncated uvarint len": {0x01, 0x80},
	}
	for name, frame := range cases {
		if _, err := splitSegments(frame); err == nil {
			t.Errorf("%s: splitSegments accepted malformed frame %x", name, frame)
		}
	}
}

func TestHybridRoundTrip(t *testing.T) {
	recipient, err := GenerateKey()
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	pt := []byte("shared symmetric key material")
	ct, err := EncryptHybrid(recipient.Public(), pt, []byte("channel-A"))
	if err != nil {
		t.Fatalf("EncryptHybrid: %v", err)
	}
	got, err := DecryptHybrid(recipient, ct, []byte("channel-A"))
	if err != nil {
		t.Fatalf("DecryptHybrid: %v", err)
	}
	if !bytes.Equal(got, pt) {
		t.Fatal("hybrid round trip mismatch")
	}
}

func TestHybridWrongRecipientFails(t *testing.T) {
	alice, _ := GenerateKey()
	eve, _ := GenerateKey()
	ct, err := EncryptHybrid(alice.Public(), []byte("secret"), nil)
	if err != nil {
		t.Fatalf("EncryptHybrid: %v", err)
	}
	if _, err := DecryptHybrid(eve, ct, nil); err == nil {
		t.Fatal("decryption by non-recipient must fail")
	}
}

func TestHybridPropertyRoundTrip(t *testing.T) {
	recipient, err := GenerateKey()
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	f := func(pt []byte) bool {
		ct, err := EncryptHybrid(recipient.Public(), pt, nil)
		if err != nil {
			return false
		}
		got, err := DecryptHybrid(recipient, ct, nil)
		return err == nil && bytes.Equal(got, pt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// wrapSet is a fresh 32-byte secret wrapped to alice and bob under "channel-A".
type wrapSet struct {
	alice, bob             *PrivateKey
	secret, ephPub, commit []byte
	wraps                  map[string][]byte
}

var wrapAD = []byte("channel-A")

func wrapFixture(t testing.TB) wrapSet {
	t.Helper()
	var w wrapSet
	var err error
	if w.alice, err = GenerateKey(); err != nil {
		t.Fatal(err)
	}
	if w.bob, err = GenerateKey(); err != nil {
		t.Fatal(err)
	}
	if w.secret, err = NewSymmetricKey(); err != nil {
		t.Fatal(err)
	}
	w.ephPub, w.commit, w.wraps, err = WrapToRecipients(map[string]PublicKey{"alice": w.alice.Public(), "bob": w.bob.Public()}, w.secret, wrapAD)
	if err != nil {
		t.Fatalf("WrapToRecipients: %v", err)
	}
	return w
}

// key is the private key of a fixture recipient.
func (w wrapSet) key(id string) *PrivateKey {
	if id == "alice" {
		return w.alice
	}
	return w.bob
}

func TestWrapRoundTripEveryRecipient(t *testing.T) {
	w := wrapFixture(t)
	if len(w.ephPub) != 65 {
		t.Fatalf("ephemeral key is %d bytes, want an uncompressed P-256 point's 65", len(w.ephPub))
	}
	if len(w.commit) != KeyCommitmentSize {
		t.Fatalf("commitment is %d bytes, want %d", len(w.commit), KeyCommitmentSize)
	}
	for _, id := range []string{"alice", "bob"} {
		if len(w.wraps[id]) != WrappedKeySize {
			t.Fatalf("%s's wrap is %d bytes, want %d", id, len(w.wraps[id]), WrappedKeySize)
		}
		got, err := Unwrap(w.key(id), w.ephPub, w.commit, w.wraps[id], wrapAD)
		if err != nil || !bytes.Equal(got, w.secret) {
			t.Fatalf("Unwrap as %s: %x, %v", id, got, err)
		}
	}
	if bytes.Equal(w.wraps["alice"], w.wraps["bob"]) {
		t.Fatal("two recipients hold the same wrap: the key-encryption key does not depend on the recipient")
	}
}

// TestWrapFreshEphemeralKeyPerCall is the rule the pad rests on: an
// ephemeral key, hence a key-encryption key, is never used for two calls.
func TestWrapFreshEphemeralKeyPerCall(t *testing.T) {
	alice, _ := GenerateKey()
	recipients := map[string]PublicKey{"alice": alice.Public()}
	secret := bytes.Repeat([]byte{7}, SymmetricKeySize)
	eph1, _, wraps1, err := WrapToRecipients(recipients, secret, nil)
	if err != nil {
		t.Fatal(err)
	}
	eph2, _, wraps2, err := WrapToRecipients(recipients, secret, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(eph1, eph2) {
		t.Fatal("two calls with identical inputs returned the same ephemeral key")
	}
	if bytes.Equal(wraps1["alice"], wraps2["alice"]) {
		t.Fatal("two calls with identical inputs returned the same wrap")
	}
}

// TestWrapRejectsSecretOfWrongSize: the pad is exactly one key-encryption
// key long, so any other secret is refused, not truncated or overrun.
func TestWrapRejectsSecretOfWrongSize(t *testing.T) {
	alice, _ := GenerateKey()
	for _, n := range []int{0, 1, 16, SymmetricKeySize - 1, SymmetricKeySize + 1, 64} {
		if _, _, _, err := WrapToRecipients(map[string]PublicKey{"alice": alice.Public()}, make([]byte, n), nil); !errors.Is(err, ErrBadKeySize) {
			t.Errorf("wrapping a %d-byte secret: %v, want ErrBadKeySize", n, err)
		}
	}
}

func TestUnwrapNonRecipientFails(t *testing.T) {
	w := wrapFixture(t)
	eve, _ := GenerateKey()
	for id, wrap := range w.wraps {
		if _, err := Unwrap(eve, w.ephPub, w.commit, wrap, wrapAD); !errors.Is(err, ErrDecrypt) {
			t.Fatalf("a non-recipient unwrapping %s's wrap: %v, want ErrDecrypt", id, err)
		}
	}
}

func TestUnwrapWrongAssociatedDataFails(t *testing.T) {
	w := wrapFixture(t)
	if _, err := Unwrap(w.alice, w.ephPub, w.commit, w.wraps["alice"], []byte("channel-B")); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("Unwrap under other associated data: %v, want ErrDecrypt", err)
	}
}

// TestUnwrapMovedWrapFails: the key-encryption key binds the recipient's
// public key, so a wrap filed under another recipient's name is useless to
// that recipient.
func TestUnwrapMovedWrapFails(t *testing.T) {
	w := wrapFixture(t)
	for _, move := range [][2]string{{"alice", "bob"}, {"bob", "alice"}} {
		if _, err := Unwrap(w.key(move[1]), w.ephPub, w.commit, w.wraps[move[0]], wrapAD); !errors.Is(err, ErrDecrypt) {
			t.Fatalf("%s unwrapping %s's wrap: %v, want ErrDecrypt", move[1], move[0], err)
		}
	}
}

// TestUnwrapFlippedBitFails flips every bit of every input in turn — the
// ephemeral key, the commitment, each recipient's wrap and the associated
// data — and requires each flip to yield no key.
func TestUnwrapFlippedBitFails(t *testing.T) {
	w := wrapFixture(t)
	for _, id := range []string{"alice", "bob"} {
		fields := []struct {
			name string
			b    []byte
		}{{"ephPub", w.ephPub}, {"commit", w.commit}, {"wrap", w.wraps[id]}, {"ad", wrapAD}}
		for f, field := range fields {
			for i := 0; i < len(field.b)*8; i++ {
				in := [][]byte{w.ephPub, w.commit, w.wraps[id], wrapAD}
				bad := bytes.Clone(field.b)
				bad[i/8] ^= 1 << (i % 8)
				in[f] = bad
				if _, err := Unwrap(w.key(id), in[0], in[1], in[2], in[3]); !errors.Is(err, ErrDecrypt) {
					t.Fatalf("%s: %s bit %d flipped: %v, want ErrDecrypt", id, field.name, i, err)
				}
			}
		}
	}
}

// TestUnwrapRefusesASecondKey hand-builds what a dishonest sealer would: one
// table whose commitment names alice's key while bob's wrap decodes to
// another. Per-recipient tags would have let each open its own key; the
// commitment refuses bob and still opens for alice.
func TestUnwrapRefusesASecondKey(t *testing.T) {
	w := wrapFixture(t)
	other, err := NewSymmetricKey()
	if err != nil {
		t.Fatal(err)
	}
	// wrap ⊕ secret is bob's key-encryption key; re-pad it over the other key.
	forged := make([]byte, WrappedKeySize)
	for i := range forged {
		forged[i] = w.wraps["bob"][i] ^ w.secret[i] ^ other[i]
	}
	if _, err := Unwrap(w.bob, w.ephPub, w.commit, forged, wrapAD); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("bob unwrapping a wrap of a key the commitment does not name: %v, want ErrDecrypt", err)
	}
	if got, err := Unwrap(w.alice, w.ephPub, w.commit, w.wraps["alice"], wrapAD); err != nil || !bytes.Equal(got, w.secret) {
		t.Fatalf("alice beside the forged entry: %x, %v", got, err)
	}
}

// TestWrapSameKeyUnderTwoNames: names are the caller's labels; one public
// key enrolled under two of them unwraps for both.
func TestWrapSameKeyUnderTwoNames(t *testing.T) {
	alice, _ := GenerateKey()
	secret := bytes.Repeat([]byte{9}, SymmetricKeySize)
	ephPub, commit, wraps, err := WrapToRecipients(map[string]PublicKey{"alice": alice.Public(), "alice-desk-2": alice.Public()}, secret, nil)
	if err != nil {
		t.Fatal(err)
	}
	for id, wrap := range wraps {
		got, err := Unwrap(alice, ephPub, commit, wrap, nil)
		if err != nil || !bytes.Equal(got, secret) {
			t.Fatalf("Unwrap of the wrap filed under %s: %x, %v", id, got, err)
		}
	}
}

func TestWrapRejectsInvalidRecipientKey(t *testing.T) {
	if _, _, _, err := WrapToRecipients(map[string]PublicKey{"ghost": {}}, make([]byte, SymmetricKeySize), nil); !errors.Is(err, ErrInvalidPublicKey) {
		t.Fatalf("wrapping to a zero public key: %v, want ErrInvalidPublicKey", err)
	}
}

// FuzzUnwrap hands Unwrap hostile ephemeral keys, commitments, wraps and
// associated data: it may only refuse (ErrDecrypt), never panic, and whatever
// it does return is exactly the sealed key — never another. The genuine tuple,
// which the mutator can reproduce from the seed, must unwrap.
func FuzzUnwrap(f *testing.F) {
	w := wrapFixture(f)
	ephPub, commit, wrap := w.ephPub, w.commit, w.wraps["alice"]
	f.Add(ephPub, commit, wrap, wrapAD)
	f.Add(ephPub, commit, w.wraps["bob"], wrapAD)
	f.Add(ephPub[:64], commit, wrap, wrapAD)
	f.Add(ephPub, commit, wrap[:31], wrapAD)
	f.Add([]byte{}, []byte{}, []byte{}, []byte{})
	f.Add(append([]byte{0x02}, ephPub[1:33]...), commit, wrap, wrapAD)     // compressed form
	f.Add(make([]byte, 65), commit, wrap, wrapAD)                          // not a point
	f.Add(append([]byte{0x04}, make([]byte, 64)...), commit, wrap, wrapAD) // (0,0): off the curve
	f.Add([]byte{0x00}, commit, wrap, wrapAD)                              // the point at infinity's encoding
	f.Add(ephPub, commit[:31], wrap, wrapAD)
	f.Add(ephPub, commit, append(bytes.Clone(wrap), make([]byte, 16)...), wrapAD) // a v2-sized, 48-byte wrap
	f.Add(ephPub, commit, wrap, []byte("channel-B"))
	f.Fuzz(func(t *testing.T, eph, commit, wrap, ad []byte) {
		got, err := Unwrap(w.alice, eph, commit, wrap, ad)
		genuine := bytes.Equal(eph, w.ephPub) && bytes.Equal(commit, w.commit) &&
			bytes.Equal(wrap, w.wraps["alice"]) && bytes.Equal(ad, wrapAD)
		switch {
		case genuine && (err != nil || !bytes.Equal(got, w.secret)):
			t.Fatalf("the genuine tuple did not unwrap: %x, %v", got, err)
		case err == nil && !bytes.Equal(got, w.secret):
			t.Fatalf("Unwrap(%x, %x, %x, %q) returned %x, a key that was never sealed", eph, commit, wrap, ad, got)
		case err != nil && (!errors.Is(err, ErrDecrypt) || got != nil):
			t.Fatalf("Unwrap(%x, %x, %x, %q) = %x, %v; want nil, ErrDecrypt", eph, commit, wrap, ad, got, err)
		}
	})
}

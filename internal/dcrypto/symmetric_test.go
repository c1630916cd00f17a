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

// wrapFixture wraps a fresh 32-byte secret to alice and bob.
func wrapFixture(t testing.TB) (alice, bob *PrivateKey, secret, ephPub []byte, wraps map[string][]byte) {
	t.Helper()
	alice, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	bob, err = GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	secret, err = NewSymmetricKey()
	if err != nil {
		t.Fatal(err)
	}
	ephPub, wraps, err = WrapToRecipients(map[string]PublicKey{"alice": alice.Public(), "bob": bob.Public()}, secret, []byte("channel-A"))
	if err != nil {
		t.Fatalf("WrapToRecipients: %v", err)
	}
	return alice, bob, secret, ephPub, wraps
}

func TestWrapRoundTripEveryRecipient(t *testing.T) {
	alice, bob, secret, ephPub, wraps := wrapFixture(t)
	if len(ephPub) != 65 {
		t.Fatalf("ephemeral key is %d bytes, want an uncompressed P-256 point's 65", len(ephPub))
	}
	for id, key := range map[string]*PrivateKey{"alice": alice, "bob": bob} {
		if len(wraps[id]) != WrappedKeySize {
			t.Fatalf("%s's wrap is %d bytes, want %d", id, len(wraps[id]), WrappedKeySize)
		}
		got, err := Unwrap(key, ephPub, wraps[id], []byte("channel-A"))
		if err != nil || !bytes.Equal(got, secret) {
			t.Fatalf("Unwrap as %s: %x, %v", id, got, err)
		}
	}
	if bytes.Equal(wraps["alice"], wraps["bob"]) {
		t.Fatal("two recipients hold the same wrap: the key-encryption key does not depend on the recipient")
	}
}

// TestWrapFreshEphemeralKeyPerCall is the rule the fixed nonce rests on: an
// ephemeral key, hence a key-encryption key, is never used for two calls.
func TestWrapFreshEphemeralKeyPerCall(t *testing.T) {
	alice, _ := GenerateKey()
	recipients := map[string]PublicKey{"alice": alice.Public()}
	secret := bytes.Repeat([]byte{7}, SymmetricKeySize)
	eph1, wraps1, err := WrapToRecipients(recipients, secret, nil)
	if err != nil {
		t.Fatal(err)
	}
	eph2, wraps2, err := WrapToRecipients(recipients, secret, nil)
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

func TestUnwrapNonRecipientFails(t *testing.T) {
	_, _, _, ephPub, wraps := wrapFixture(t)
	eve, _ := GenerateKey()
	for id, wrap := range wraps {
		if _, err := Unwrap(eve, ephPub, wrap, []byte("channel-A")); !errors.Is(err, ErrDecrypt) {
			t.Fatalf("a non-recipient unwrapping %s's wrap: %v, want ErrDecrypt", id, err)
		}
	}
}

func TestUnwrapWrongAssociatedDataFails(t *testing.T) {
	alice, _, _, ephPub, wraps := wrapFixture(t)
	if _, err := Unwrap(alice, ephPub, wraps["alice"], []byte("channel-B")); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("Unwrap under other associated data: %v, want ErrDecrypt", err)
	}
}

// TestUnwrapMovedWrapFails: the key-encryption key binds the recipient's
// public key, so a wrap filed under another recipient's name is useless to
// that recipient.
func TestUnwrapMovedWrapFails(t *testing.T) {
	_, bob, _, ephPub, wraps := wrapFixture(t)
	if _, err := Unwrap(bob, ephPub, wraps["alice"], []byte("channel-A")); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("bob unwrapping alice's wrap: %v, want ErrDecrypt", err)
	}
}

func TestUnwrapFlippedBitFails(t *testing.T) {
	alice, _, _, ephPub, wraps := wrapFixture(t)
	for i := 0; i < len(ephPub)*8; i++ {
		bad := append([]byte(nil), ephPub...)
		bad[i/8] ^= 1 << (i % 8)
		if _, err := Unwrap(alice, bad, wraps["alice"], []byte("channel-A")); !errors.Is(err, ErrDecrypt) {
			t.Fatalf("ephPub bit %d flipped: %v, want ErrDecrypt", i, err)
		}
	}
	for i := 0; i < WrappedKeySize*8; i++ {
		bad := append([]byte(nil), wraps["alice"]...)
		bad[i/8] ^= 1 << (i % 8)
		if _, err := Unwrap(alice, ephPub, bad, []byte("channel-A")); !errors.Is(err, ErrDecrypt) {
			t.Fatalf("wrap bit %d flipped: %v, want ErrDecrypt", i, err)
		}
	}
}

// TestWrapSameKeyUnderTwoNames: names are the caller's labels; one public
// key enrolled under two of them unwraps for both.
func TestWrapSameKeyUnderTwoNames(t *testing.T) {
	alice, _ := GenerateKey()
	secret := bytes.Repeat([]byte{9}, SymmetricKeySize)
	ephPub, wraps, err := WrapToRecipients(map[string]PublicKey{"alice": alice.Public(), "alice-desk-2": alice.Public()}, secret, nil)
	if err != nil {
		t.Fatal(err)
	}
	for id, wrap := range wraps {
		got, err := Unwrap(alice, ephPub, wrap, nil)
		if err != nil || !bytes.Equal(got, secret) {
			t.Fatalf("Unwrap of the wrap filed under %s: %x, %v", id, got, err)
		}
	}
}

func TestWrapRejectsInvalidRecipientKey(t *testing.T) {
	if _, _, err := WrapToRecipients(map[string]PublicKey{"ghost": {}}, make([]byte, SymmetricKeySize), nil); !errors.Is(err, ErrInvalidPublicKey) {
		t.Fatalf("wrapping to a zero public key: %v, want ErrInvalidPublicKey", err)
	}
}

// FuzzUnwrap hands Unwrap hostile ephemeral keys and wraps: it may only
// refuse (ErrDecrypt), never panic and never return a key — except for the
// genuine pair, which the mutator can reproduce from the seed.
func FuzzUnwrap(f *testing.F) {
	alice, _, secret, ephPub, wraps := wrapFixture(f)
	ad := []byte("channel-A")
	f.Add(ephPub, wraps["alice"])
	f.Add(ephPub, wraps["bob"])
	f.Add(ephPub[:64], wraps["alice"])
	f.Add(ephPub, wraps["alice"][:47])
	f.Add([]byte{}, []byte{})
	f.Add(append([]byte{0x02}, ephPub[1:33]...), wraps["alice"])     // compressed form
	f.Add(make([]byte, 65), wraps["alice"])                          // not a point
	f.Add(append([]byte{0x04}, make([]byte, 64)...), wraps["alice"]) // (0,0): off the curve
	f.Add([]byte{0x00}, wraps["alice"])                              // the point at infinity's encoding
	f.Fuzz(func(t *testing.T, eph, wrap []byte) {
		got, err := Unwrap(alice, eph, wrap, ad)
		if bytes.Equal(eph, ephPub) && bytes.Equal(wrap, wraps["alice"]) {
			if err != nil || !bytes.Equal(got, secret) {
				t.Fatalf("the genuine pair did not unwrap: %v", err)
			}
			return
		}
		if !errors.Is(err, ErrDecrypt) || got != nil {
			t.Fatalf("Unwrap(%x, %x) = %x, %v; want nil, ErrDecrypt", eph, wrap, got, err)
		}
	})
}

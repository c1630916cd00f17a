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
	alice, bob                    *PrivateKey
	secret, ephPub, commit, wraps []byte
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

// wrap returns the i-th wrap of the fixture's table.
func (w wrapSet) wrap(i int) []byte {
	return w.wraps[i*WrappedKeySize : (i+1)*WrappedKeySize]
}

// own returns the index of the one wrap in the fixture's table that opens
// alone for key, failing the test unless there is exactly one.
func (w wrapSet) own(t testing.TB, key *PrivateKey) int {
	t.Helper()
	found := -1
	for i := 0; i < len(w.wraps)/WrappedKeySize; i++ {
		if _, err := Unwrap(key, w.ephPub, w.commit, w.wrap(i), wrapAD); err == nil {
			if found >= 0 {
				t.Fatalf("wraps %d and %d both open for one key", found, i)
			}
			found = i
		}
	}
	if found < 0 {
		t.Fatal("no wrap of the table opens alone for the key")
	}
	return found
}

func TestWrapRoundTripEveryRecipient(t *testing.T) {
	w := wrapFixture(t)
	if len(w.ephPub) != 65 {
		t.Fatalf("ephemeral key is %d bytes, want an uncompressed P-256 point's 65", len(w.ephPub))
	}
	if len(w.commit) != KeyCommitmentSize {
		t.Fatalf("commitment is %d bytes, want %d", len(w.commit), KeyCommitmentSize)
	}
	if len(w.wraps) != 2*WrappedKeySize {
		t.Fatalf("table is %d bytes, want two %d-byte wraps", len(w.wraps), WrappedKeySize)
	}
	if bytes.Compare(w.wrap(0), w.wrap(1)) >= 0 {
		t.Fatal("the table's wraps are not strictly ascending: two recipients hold the same wrap, or the order is not the bytes'")
	}
	for _, key := range []*PrivateKey{w.alice, w.bob} {
		got, err := Unwrap(key, w.ephPub, w.commit, w.wraps, wrapAD)
		if err != nil || !bytes.Equal(got, w.secret) {
			t.Fatalf("Unwrap: %x, %v", got, err)
		}
	}
	if w.own(t, w.alice) == w.own(t, w.bob) {
		t.Fatal("alice and bob open the same wrap: the key-encryption key does not depend on the recipient")
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
	if bytes.Equal(wraps1, wraps2) {
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
	if got, err := Unwrap(eve, w.ephPub, w.commit, w.wraps, wrapAD); !errors.Is(err, ErrDecrypt) || got != nil {
		t.Fatalf("a non-recipient unwrapping the table: %x, %v, want ErrDecrypt", got, err)
	}
}

func TestUnwrapWrongAssociatedDataFails(t *testing.T) {
	w := wrapFixture(t)
	if _, err := Unwrap(w.alice, w.ephPub, w.commit, w.wraps, []byte("channel-B")); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("Unwrap under other associated data: %v, want ErrDecrypt", err)
	}
}

// TestUnwrapMovedWrapFails: the key-encryption key binds the recipient's
// public key, so a wrap moved into a table of its own opens for its holder
// only — to anyone else a table of someone else's wrap is useless.
func TestUnwrapMovedWrapFails(t *testing.T) {
	w := wrapFixture(t)
	a, b := w.own(t, w.alice), w.own(t, w.bob)
	if _, err := Unwrap(w.alice, w.ephPub, w.commit, w.wrap(b), wrapAD); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("alice unwrapping a table of bob's wrap alone: %v, want ErrDecrypt", err)
	}
	if _, err := Unwrap(w.bob, w.ephPub, w.commit, w.wrap(a), wrapAD); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("bob unwrapping a table of alice's wrap alone: %v, want ErrDecrypt", err)
	}
}

// TestUnwrapRefusesMalformedTable: a table is whole wraps, at least one.
func TestUnwrapRefusesMalformedTable(t *testing.T) {
	w := wrapFixture(t)
	for _, table := range [][]byte{nil, {}, w.wraps[:1], w.wraps[:WrappedKeySize-1], w.wraps[:WrappedKeySize+1], w.wraps[1:], append(bytes.Clone(w.wraps), 0)} {
		if got, err := Unwrap(w.alice, w.ephPub, w.commit, table, wrapAD); !errors.Is(err, ErrDecrypt) || got != nil {
			t.Errorf("a %d-byte table: %x, %v, want ErrDecrypt", len(table), got, err)
		}
	}
}

// TestUnwrapFlippedBitFails flips every bit of every input in turn — the
// ephemeral key, the commitment, the table and the associated data. A flip
// anywhere but the table yields no key for anyone; a flip in a wrap yields
// none for that wrap's holder and leaves the other's untouched.
func TestUnwrapFlippedBitFails(t *testing.T) {
	w := wrapFixture(t)
	owner := map[int]*PrivateKey{w.own(t, w.alice): w.alice, w.own(t, w.bob): w.bob}
	fields := []struct {
		name string
		b    []byte
	}{{"ephPub", w.ephPub}, {"commit", w.commit}, {"table", w.wraps}, {"ad", wrapAD}}
	for f, field := range fields {
		for i := 0; i < len(field.b)*8; i++ {
			in := [][]byte{w.ephPub, w.commit, w.wraps, wrapAD}
			bad := bytes.Clone(field.b)
			bad[i/8] ^= 1 << (i % 8)
			in[f] = bad
			for _, key := range []*PrivateKey{w.alice, w.bob} {
				got, err := Unwrap(key, in[0], in[1], in[2], in[3])
				hit := field.name != "table" || owner[i/8/WrappedKeySize] == key
				switch {
				case hit && !errors.Is(err, ErrDecrypt):
					t.Fatalf("%s bit %d flipped: %x, %v, want ErrDecrypt", field.name, i, got, err)
				case !hit && (err != nil || !bytes.Equal(got, w.secret)):
					t.Fatalf("table bit %d flipped in the other recipient's wrap: %x, %v, want the secret", i, got, err)
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
	forged := bytes.Clone(w.wraps)
	bobs := forged[w.own(t, w.bob)*WrappedKeySize:][:WrappedKeySize]
	for i := range bobs {
		bobs[i] ^= w.secret[i] ^ other[i]
	}
	if _, err := Unwrap(w.bob, w.ephPub, w.commit, forged, wrapAD); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("bob unwrapping a wrap of a key the commitment does not name: %v, want ErrDecrypt", err)
	}
	if got, err := Unwrap(w.alice, w.ephPub, w.commit, forged, wrapAD); err != nil || !bytes.Equal(got, w.secret) {
		t.Fatalf("alice beside the forged wrap: %x, %v", got, err)
	}
}

// TestWrapSameKeyUnderTwoNames: names are the caller's labels and never reach
// the table. One public key enrolled under two of them has one
// key-encryption key, hence one wrap, and the table holds it once — twice
// would be a duplicate no canonical table may carry.
func TestWrapSameKeyUnderTwoNames(t *testing.T) {
	alice, _ := GenerateKey()
	bob, _ := GenerateKey()
	secret := bytes.Repeat([]byte{9}, SymmetricKeySize)
	ephPub, commit, wraps, err := WrapToRecipients(map[string]PublicKey{
		"alice": alice.Public(), "alice-desk-2": alice.Public(), "bob": bob.Public(),
	}, secret, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(wraps) != 2*WrappedKeySize {
		t.Fatalf("three names on two keys made a %d-byte table, want two wraps", len(wraps))
	}
	for _, key := range []*PrivateKey{alice, bob} {
		if got, err := Unwrap(key, ephPub, commit, wraps, nil); err != nil || !bytes.Equal(got, secret) {
			t.Fatalf("Unwrap: %x, %v", got, err)
		}
	}
}

func TestWrapRejectsInvalidRecipientKey(t *testing.T) {
	if _, _, _, err := WrapToRecipients(map[string]PublicKey{"ghost": {}}, make([]byte, SymmetricKeySize), nil); !errors.Is(err, ErrInvalidPublicKey) {
		t.Fatalf("wrapping to a zero public key: %v, want ErrInvalidPublicKey", err)
	}
}

// FuzzUnwrap hands Unwrap hostile ephemeral keys, commitments, tables and
// associated data: it may only refuse (ErrDecrypt), never panic, and whatever
// it does return is exactly the sealed key — never another. Any table of whole
// wraps that holds alice's, beside the genuine ephemeral key, commitment and
// associated data, must unwrap; the mutator can reach such tables from the
// seeds.
func FuzzUnwrap(f *testing.F) {
	w := wrapFixture(f)
	ephPub, commit, table := w.ephPub, w.commit, w.wraps
	reversed := append(bytes.Clone(w.wrap(1)), w.wrap(0)...)
	f.Add(ephPub, commit, table, wrapAD)
	f.Add(ephPub, commit, w.wrap(0), wrapAD)
	f.Add(ephPub, commit, w.wrap(1), wrapAD)
	f.Add(ephPub, commit, reversed, wrapAD)
	f.Add(ephPub, commit, append(bytes.Clone(table), table...), wrapAD) // every wrap twice
	f.Add(ephPub[:64], commit, table, wrapAD)
	f.Add(ephPub, commit, table[:31], wrapAD)
	f.Add(ephPub, commit, table[:63], wrapAD)
	f.Add([]byte{}, []byte{}, []byte{}, []byte{})
	f.Add(append([]byte{0x02}, ephPub[1:33]...), commit, table, wrapAD)     // compressed form
	f.Add(make([]byte, 65), commit, table, wrapAD)                          // not a point
	f.Add(append([]byte{0x04}, make([]byte, 64)...), commit, table, wrapAD) // (0,0): off the curve
	f.Add([]byte{0x00}, commit, table, wrapAD)                              // the point at infinity's encoding
	f.Add(ephPub, commit[:31], table, wrapAD)
	f.Add(ephPub, commit, append(bytes.Clone(w.wrap(0)), make([]byte, 16)...), wrapAD) // a v2-sized, 48-byte wrap
	f.Add(ephPub, commit, table, []byte("channel-B"))
	alices := bytes.Clone(w.wrap(w.own(f, w.alice)))
	f.Fuzz(func(t *testing.T, eph, commit, wraps, ad []byte) {
		got, err := Unwrap(w.alice, eph, commit, wraps, ad)
		genuine := bytes.Equal(eph, w.ephPub) && bytes.Equal(commit, w.commit) && bytes.Equal(ad, wrapAD) &&
			len(wraps)%WrappedKeySize == 0 && holds(wraps, alices)
		switch {
		case genuine && (err != nil || !bytes.Equal(got, w.secret)):
			t.Fatalf("a table holding alice's wrap did not unwrap: %x, %v", got, err)
		case err == nil && !bytes.Equal(got, w.secret):
			t.Fatalf("Unwrap(%x, %x, %x, %q) returned %x, a key that was never sealed", eph, commit, wraps, ad, got)
		case err != nil && (!errors.Is(err, ErrDecrypt) || got != nil):
			t.Fatalf("Unwrap(%x, %x, %x, %q) = %x, %v; want nil, ErrDecrypt", eph, commit, wraps, ad, got, err)
		}
	})
}

// holds reports whether the table of whole wraps holds wrap at a wrap
// boundary.
func holds(table, wrap []byte) bool {
	for at := 0; at+WrappedKeySize <= len(table); at += WrappedKeySize {
		if bytes.Equal(table[at:at+WrappedKeySize], wrap) {
			return true
		}
	}
	return false
}

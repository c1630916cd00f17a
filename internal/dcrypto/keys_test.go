package dcrypto

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestSignVerify(t *testing.T) {
	key, err := GenerateKey()
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	msg := []byte("letter of credit #42")
	sig, err := key.Sign(msg)
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	if err := key.Public().Verify(msg, sig); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestVerifyRejectsTamperedMessage(t *testing.T) {
	key, err := GenerateKey()
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	sig, err := key.Sign([]byte("original"))
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	if err := key.Public().Verify([]byte("tampered"), sig); !errors.Is(err, ErrInvalidSignature) {
		t.Fatalf("Verify tampered = %v, want ErrInvalidSignature", err)
	}
}

func TestVerifyRejectsWrongKey(t *testing.T) {
	k1, _ := GenerateKey()
	k2, _ := GenerateKey()
	msg := []byte("msg")
	sig, err := k1.Sign(msg)
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	if err := k2.Public().Verify(msg, sig); !errors.Is(err, ErrInvalidSignature) {
		t.Fatalf("Verify with wrong key = %v, want ErrInvalidSignature", err)
	}
}

func TestDeriveKeyDeterministic(t *testing.T) {
	seed := []byte("0123456789abcdef")
	k1, err := DeriveKey(seed, "ctx")
	if err != nil {
		t.Fatalf("DeriveKey: %v", err)
	}
	k2, err := DeriveKey(seed, "ctx")
	if err != nil {
		t.Fatalf("DeriveKey: %v", err)
	}
	if !k1.Public().Equal(k2.Public()) {
		t.Fatal("same seed+context must derive the same key")
	}
	k3, err := DeriveKey(seed, "other")
	if err != nil {
		t.Fatalf("DeriveKey: %v", err)
	}
	if k1.Public().Equal(k3.Public()) {
		t.Fatal("different contexts must derive different keys")
	}
}

func TestDeriveKeyEmptySeed(t *testing.T) {
	if _, err := DeriveKey(nil, "ctx"); err == nil {
		t.Fatal("DeriveKey with empty seed must fail")
	}
}

func TestPublicKeyRoundTrip(t *testing.T) {
	key, _ := GenerateKey()
	pub := key.Public()
	parsed, err := ParsePublicKey(pub.Bytes())
	if err != nil {
		t.Fatalf("ParsePublicKey: %v", err)
	}
	if !parsed.Equal(pub) {
		t.Fatal("public key round trip mismatch")
	}
}

func TestParsePublicKeyRejectsGarbage(t *testing.T) {
	cases := [][]byte{nil, {0x04}, make([]byte, 65), bytes.Repeat([]byte{0xff}, 65)}
	for _, c := range cases {
		if _, err := ParsePublicKey(c); !errors.Is(err, ErrInvalidPublicKey) {
			t.Errorf("ParsePublicKey(%d bytes) = %v, want ErrInvalidPublicKey", len(c), err)
		}
	}
}

func TestSignatureRoundTrip(t *testing.T) {
	key, _ := GenerateKey()
	sig, err := key.Sign([]byte("x"))
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	parsed, err := ParseSignature(sig.Bytes())
	if err != nil {
		t.Fatalf("ParseSignature: %v", err)
	}
	if parsed.R.Cmp(sig.R) != 0 || parsed.S.Cmp(sig.S) != 0 {
		t.Fatal("signature round trip mismatch")
	}
}

func TestParseSignatureWrongLength(t *testing.T) {
	if _, err := ParseSignature(make([]byte, 63)); err == nil {
		t.Fatal("ParseSignature must reject wrong lengths")
	}
}

func TestAddressStableAndShort(t *testing.T) {
	key, _ := GenerateKey()
	a1 := key.Public().Address()
	a2 := key.Public().Address()
	if a1 != a2 {
		t.Fatal("address must be deterministic")
	}
	if len(a1) != 40 {
		t.Fatalf("address length = %d, want 40 hex chars", len(a1))
	}
}

func TestHashConcatUnambiguous(t *testing.T) {
	// ("ab","c") and ("a","bc") must hash differently thanks to length
	// prefixes.
	h1 := HashConcat([]byte("ab"), []byte("c"))
	h2 := HashConcat([]byte("a"), []byte("bc"))
	if h1 == h2 {
		t.Fatal("HashConcat must be injective across split points")
	}
}

func TestHashConcatProperty(t *testing.T) {
	f := func(a, b []byte) bool {
		return HashConcat(a, b) == HashConcat(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSignVerifyProperty(t *testing.T) {
	key, err := GenerateKey()
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	pub := key.Public()
	f := func(msg []byte) bool {
		sig, err := key.Sign(msg)
		if err != nil {
			return false
		}
		return pub.Verify(msg, sig) == nil
	}
	cfg := &quick.Config{MaxCount: 20}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRejectsNilSignatureComponents(t *testing.T) {
	key, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("payload")
	good, err := key.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	// The zero Signature and half-nil forms model what a hostile wire
	// message JSON-decodes to; they must be invalid, never a panic.
	for _, sig := range []Signature{
		{},
		{R: good.R},
		{S: good.S},
	} {
		if err := key.Public().Verify(msg, sig); !errors.Is(err, ErrInvalidSignature) {
			t.Fatalf("Verify(nil-component sig) = %v, want ErrInvalidSignature", err)
		}
	}
}

// TestConcatHasherPartSum pins PartSum's encoding — the part's 8-byte
// length, then its SHA-256 — and that it feeds the sum without allocating.
func TestConcatHasherPartSum(t *testing.T) {
	part := []byte("a payload committed to by hash")
	sum := Hash(part)
	h := NewConcatHasher()
	h.PartString("domain")
	h.PartSum(len(part), sum)
	var length [8]byte
	putUint64(length[:], uint64(len(part)))
	ref := NewConcatHasher()
	ref.PartString("domain")
	ref.Raw(length[:])
	ref.Raw(sum[:])
	if got, want := h.Sum(), ref.Sum(); got != want {
		t.Fatalf("PartSum digest %x, want %x", got, want)
	}
	if n := testing.AllocsPerRun(100, func() {
		h := NewConcatHasher()
		h.PartSum(len(part), sum)
		h.Sum()
	}); n != 0 {
		t.Fatalf("PartSum allocates %.0f times, want 0", n)
	}
}

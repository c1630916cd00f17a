package dcrypto

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestMACMatchesStdlib pins the hand-rolled pooled HMAC to crypto/hmac
// across key lengths, including keys longer than the block size.
func TestMACMatchesStdlib(t *testing.T) {
	msgs := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("payload"), 100)}
	keys := [][]byte{
		[]byte("k"),
		bytes.Repeat([]byte{0xaa}, 32),
		bytes.Repeat([]byte{0xbb}, 64),
		bytes.Repeat([]byte{0xcc}, 200), // > block size: hashed down first
	}
	for _, key := range keys {
		for _, msg := range msgs {
			ref := hmac.New(sha256.New, key)
			ref.Write(msg)
			want := ref.Sum(nil)
			got := MAC(key, msg)
			if !bytes.Equal(got[:], want) {
				t.Fatalf("MAC(key len %d, msg len %d) = %x, stdlib %x", len(key), len(msg), got, want)
			}
		}
	}
}

// TestMACParts checks that variadic parts concatenate, matching a single
// contiguous message.
func TestMACParts(t *testing.T) {
	key := []byte("session-key")
	whole := MAC(key, []byte("abcdef"))
	split := MAC(key, []byte("ab"), []byte("cd"), []byte("ef"))
	if whole != split {
		t.Fatalf("split parts MAC differs from contiguous MAC")
	}
}

func TestVerifyMAC(t *testing.T) {
	key := []byte("session-key")
	msg := []byte("request digest")
	tag := MAC(key, msg)
	if err := VerifyMAC(key, msg, tag[:]); err != nil {
		t.Fatalf("valid tag rejected: %v", err)
	}
	bad := append([]byte(nil), tag[:]...)
	bad[0] ^= 1
	if err := VerifyMAC(key, msg, bad); err != ErrInvalidMAC {
		t.Fatalf("flipped tag: got %v, want ErrInvalidMAC", err)
	}
	if err := VerifyMAC(key, msg, tag[:16]); err != ErrInvalidMAC {
		t.Fatalf("truncated tag: got %v, want ErrInvalidMAC", err)
	}
	if err := VerifyMAC(key, msg, nil); err != ErrInvalidMAC {
		t.Fatalf("nil tag: got %v, want ErrInvalidMAC", err)
	}
	if err := VerifyMAC([]byte("other-key"), msg, tag[:]); err != ErrInvalidMAC {
		t.Fatalf("wrong key: got %v, want ErrInvalidMAC", err)
	}
}

// hkdfN is HKDF into a fresh n-byte slice.
func hkdfN(secret, salt, info []byte, n int) ([]byte, error) {
	out := make([]byte, n)
	return out, HKDF(out, secret, salt, info)
}

// TestHKDFVectorRFC5869 pins the implementation to RFC 5869 appendix A.1
// (SHA-256, basic test case).
func TestHKDFVectorRFC5869(t *testing.T) {
	ikm, _ := hex.DecodeString("0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b")
	salt, _ := hex.DecodeString("000102030405060708090a0b0c")
	info, _ := hex.DecodeString("f0f1f2f3f4f5f6f7f8f9")
	want, _ := hex.DecodeString("3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865")
	got, err := hkdfN(ikm, salt, info, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("HKDF = %x, want %x", got, want)
	}
}

func TestHKDFProperties(t *testing.T) {
	secret := []byte("handshake secret")
	a, err := hkdfN(secret, []byte("salt"), []byte("info"), 32)
	if err != nil {
		t.Fatal(err)
	}
	b, err := hkdfN(secret, []byte("salt"), []byte("info"), 32)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("HKDF is not deterministic")
	}
	c, _ := hkdfN(secret, []byte("salt"), []byte("other info"), 32)
	if bytes.Equal(a, c) {
		t.Fatal("HKDF output does not separate by info")
	}
	d, _ := hkdfN(secret, []byte("other salt"), []byte("info"), 32)
	if bytes.Equal(a, d) {
		t.Fatal("HKDF output does not separate by salt")
	}
	long, err := hkdfN(secret, nil, nil, 100)
	if err != nil || len(long) != 100 {
		t.Fatalf("multi-block HKDF: len %d err %v", len(long), err)
	}
	if _, err := hkdfN(nil, nil, nil, 32); err == nil {
		t.Fatal("empty secret accepted")
	}
	if _, err := hkdfN(secret, nil, nil, 0); err == nil {
		t.Fatal("zero length accepted")
	}
	if _, err := hkdfN(secret, nil, nil, 255*32+1); err == nil {
		t.Fatal("over-long output accepted")
	}
}

// refHKDF is RFC 5869 written out over crypto/hmac, the reference FuzzHKDF
// holds HKDF to.
func refHKDF(secret, salt, info []byte, n int) []byte {
	ext := hmac.New(sha256.New, salt)
	ext.Write(secret)
	prk := ext.Sum(nil)
	var out, t []byte
	for i := byte(1); len(out) < n; i++ {
		exp := hmac.New(sha256.New, prk)
		exp.Write(t)
		exp.Write(info)
		exp.Write([]byte{i})
		t = exp.Sum(nil)
		out = append(out, t...)
	}
	return out[:n]
}

// FuzzHKDF holds HKDF to the crypto/hmac reference for any secret, salt,
// info and output length, salts and infos past a block included.
func FuzzHKDF(f *testing.F) {
	f.Add([]byte("handshake secret"), []byte("salt"), []byte("info"), uint16(32))
	f.Add([]byte{0x0b}, []byte(nil), []byte(nil), uint16(1))
	f.Add(bytes.Repeat([]byte{1}, 200), bytes.Repeat([]byte{2}, 65), bytes.Repeat([]byte{3}, 130), uint16(255*32))
	f.Add([]byte("s"), bytes.Repeat([]byte{2}, 64), []byte("middleware/session/mac/v1/"), uint16(33))
	f.Fuzz(func(t *testing.T, secret, salt, info []byte, n uint16) {
		out := make([]byte, n)
		err := HKDF(out, secret, salt, info)
		if len(secret) == 0 || n == 0 || int(n) > 255*MACSize {
			if err == nil {
				t.Fatalf("HKDF accepted secret of %d bytes, output of %d", len(secret), n)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if want := refHKDF(secret, salt, info, int(n)); !bytes.Equal(out, want) {
			t.Fatalf("HKDF = %x\nreference %x", out, want)
		}
	})
}

// TestMACKeyMatchesMAC pins the precomputed-state tags to MAC across key
// lengths, the block size and past it included.
func TestMACKeyMatchesMAC(t *testing.T) {
	for _, n := range []int{0, 1, 32, 63, 64, 65, 200} {
		key := bytes.Repeat([]byte{0x5a}, n)
		k := NewMACKey(key)
		for _, msg := range [][]byte{nil, []byte("x"), bytes.Repeat([]byte("payload"), 100)} {
			if got, want := k.Sum(msg), MAC(key, msg); got != want {
				t.Fatalf("key of %d bytes, message of %d: MACKey %x, MAC %x", n, len(msg), got, want)
			}
		}
	}
}

// TestMACKeyGolden pins two MACKey tags to what they were when the states
// were marshaled slices (captured before the change): a 32-byte key and one
// longer than a block.
func TestMACKeyGolden(t *testing.T) {
	key, _ := hex.DecodeString("ed38b776df545fd7f34dc5fb8f19eb6d9b9f0a3e2d562c3498fe135903fff946")
	for _, c := range []struct {
		key, msg []byte
		want     string
	}{
		{key, []byte("a request digest"), "a9648d7dd985a14df8d6c00374b36de3428546ca9c82b28d6403221bb972b0f3"},
		{bytes.Repeat([]byte{0x17}, 100), bytes.Repeat([]byte{0x99}, 200), "401ed591c6fe7c3ab5ac3fc1d0402288105d97e01d2908671acba62211e09e1f"},
	} {
		tag := NewMACKey(c.key).Sum(c.msg)
		if got := hex.EncodeToString(tag[:]); got != c.want {
			t.Fatalf("key of %d bytes: tag %s, want %s", len(c.key), got, c.want)
		}
	}
}

// TestEncryptWithAEAD checks the reusable-AEAD seal path interoperates with
// the one-shot helpers.
func TestEncryptWithAEAD(t *testing.T) {
	key, err := NewSymmetricKey()
	if err != nil {
		t.Fatal(err)
	}
	aead, err := NewAEAD(key)
	if err != nil {
		t.Fatal(err)
	}
	pt := []byte("hello envelope")
	ad := []byte("channel-ad")
	ct, err := EncryptWithAEAD(aead, pt, ad)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecryptSymmetric(key, ct, ad)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pt) {
		t.Fatalf("roundtrip = %q, want %q", got, pt)
	}
	if _, err := DecryptSymmetric(key, ct, []byte("wrong-ad")); err == nil {
		t.Fatal("wrong AD accepted")
	}
	if _, err := NewAEAD([]byte("short")); err == nil {
		t.Fatal("short key accepted")
	}
}

func BenchmarkMAC(b *testing.B) {
	key := bytes.Repeat([]byte{0xaa}, 32)
	msg := bytes.Repeat([]byte{0xbb}, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MAC(key, msg)
	}
}

// TestHashPrefixMatchesSHA256 pins the resumed-state hash to a plain
// SHA-256 of the concatenation for every split of an input spanning several
// blocks — empty prefix, empty suffix and every non-block-aligned split
// included — and holds Sum to zero allocations.
func TestHashPrefixMatchesSHA256(t *testing.T) {
	input := make([]byte, 300)
	for i := range input {
		input[i] = byte(i*7 + 1)
	}
	want := sha256.Sum256(input)
	for split := 0; split <= len(input); split++ {
		if got := NewHashPrefix(input[:split]).Sum(input[split:]); got != want {
			t.Fatalf("split at %d: resumed hash %x, want %x", split, got, want)
		}
	}
	p := NewHashPrefix(input[:171])
	if n := testing.AllocsPerRun(100, func() { p.Sum(input[171:]) }); n != 0 {
		t.Fatalf("HashPrefix.Sum allocates %.0f times, want 0", n)
	}
}

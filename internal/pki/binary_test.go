package pki

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"math/big"
	"testing"
	"time"

	"dltprivacy/internal/dcrypto"
)

// issuedForEncoding issues the certificates whose signed bytes are easiest
// for an encoding to lose: a CA clock in UTC, in zones east and west of it
// (one with a seconds offset), and one that runs late enough that NotAfter
// lies past 2262, where UnixNano overflows; and a certificate of a nil
// public key beside one of an empty key.
func issuedForEncoding(t testing.TB) (*CA, []Certificate) {
	t.Helper()
	var clock time.Time
	ca, err := NewCA("enc-ca", WithClock(func() time.Time { return clock }))
	if err != nil {
		t.Fatal(err)
	}
	key, err := dcrypto.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	var certs []Certificate
	for i, at := range []time.Time{
		time.Date(2026, 3, 14, 15, 9, 26, 535897932, time.UTC),
		time.Date(2026, 3, 14, 15, 9, 26, 0, time.FixedZone("", 5*3600+1800)),
		time.Date(2026, 3, 14, 15, 9, 26, 1, time.FixedZone("", -7*3600-17)),
		time.Date(2262, 6, 1, 0, 0, 0, 999999999, time.FixedZone("", 3600)),
		time.Now(), // the local zone, and a monotonic reading
	} {
		clock = at
		cert, err := ca.Enroll(string(rune('a'+i))+"-org", key.Public())
		if err != nil {
			t.Fatal(err)
		}
		certs = append(certs, cert)
	}
	noKey, err := ca.IssueOneTime("a-org", dcrypto.PublicKey{})
	if err != nil {
		t.Fatal(err)
	}
	if noKey.PublicKey != nil {
		t.Fatal("a zero public key was certified as non-nil bytes")
	}
	return ca, append(certs, noKey)
}

// FuzzCertificateBinary holds the certificate's binary encoding to what it
// replaces on the wire and in the verifier's fingerprint. A certificate the
// CA issued comes back from its encoding signing the same bytes — nil and
// empty keys, zones and the far future included — so its signature still
// verifies. Any input either decodes to a certificate that encodes back to
// exactly the input, whose fingerprint is the SHA-256 of the input and
// whose signed payload survives a second round trip, or is refused with
// ErrBadEncoding; it never panics.
func FuzzCertificateBinary(f *testing.F) {
	ca, certs := issuedForEncoding(f)
	emptyKey := certs[0]
	emptyKey.PublicKey = []byte{}
	for i, c := range append(certs, emptyKey) {
		enc, err := c.AppendBinary(nil)
		if err != nil {
			f.Fatal(err)
		}
		var back Certificate
		if err := back.UnmarshalBinary(enc); err != nil {
			f.Fatalf("%s: %v", c.Identity, err)
		}
		if !bytes.Equal(back.payload(), c.payload()) || back.payload() == nil {
			f.Fatalf("%s: decoded payload\n %s\nwant\n %s", c.Identity, back.payload(), c.payload())
		}
		if (back.PublicKey == nil) != (c.PublicKey == nil) {
			f.Fatalf("%s: public key nil = %v, want %v", c.Identity, back.PublicKey == nil, c.PublicKey == nil)
		}
		if i < len(certs) { // issued by the CA, not edited after
			if err := VerifyCertificate(back, ca.PublicKey(), c.NotBefore); err != nil {
				f.Fatalf("%s: the decoded certificate does not verify: %v", c.Identity, err)
			}
		}
		f.Add(enc)
		f.Add(enc[:len(enc)-1])
		f.Add(append(bytes.Clone(enc), 0))
	}
	if !certs[3].NotAfter.After(time.Unix(0, 1<<63-1)) {
		f.Fatal("no certificate's NotAfter lies past 2262")
	}
	// A signature the encoding cannot carry is not encoded.
	for _, sig := range []dcrypto.Signature{
		{},
		{R: big.NewInt(0), S: big.NewInt(1)},
		{R: big.NewInt(-1), S: big.NewInt(1)},
		{R: new(big.Int).Lsh(big.NewInt(1), 256), S: big.NewInt(1)},
	} {
		c := certs[0]
		c.Sig = sig
		if _, err := c.AppendBinary(nil); !errors.Is(err, ErrBadEncoding) {
			f.Fatalf("encoding signature %v: %v, want ErrBadEncoding", sig, err)
		}
	}
	// Nor a time the signed payload cannot hold.
	for _, at := range []time.Time{
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2026, 1, 1, 0, 0, 0, 0, time.FixedZone("", 24*3600)),
	} {
		c := certs[0]
		c.NotAfter = at
		if _, err := c.AppendBinary(nil); !errors.Is(err, ErrBadEncoding) {
			f.Fatalf("encoding NotAfter %v: %v, want ErrBadEncoding", at, err)
		}
	}
	f.Add([]byte{})
	f.Add(make([]byte, 8+8+4+1+4+2*16+sigBytes)) // every field zero: a signature of zeros

	f.Fuzz(func(t *testing.T, data []byte) {
		var c Certificate
		if err := c.UnmarshalBinary(data); err != nil {
			if !errors.Is(err, ErrBadEncoding) {
				t.Fatalf("refused with %v, want ErrBadEncoding", err)
			}
			return
		}
		enc, err := c.AppendBinary(nil)
		if err != nil || !bytes.Equal(enc, data) {
			t.Fatalf("accepted %x, which encodes back to %x (%v)", data, enc, err)
		}
		if fp, ok := fingerprint(&c); !ok || fp != sha256.Sum256(data) {
			t.Fatalf("fingerprint %x (%v), want the SHA-256 of the encoding", fp, ok)
		}
		var back Certificate
		if err := back.UnmarshalBinary(enc); err != nil || !bytes.Equal(back.payload(), c.payload()) {
			t.Fatalf("second round trip: %v\n %s\nwant\n %s", err, back.payload(), c.payload())
		}
	})
}

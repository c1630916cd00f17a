package pki

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"reflect"
	"sync"
	"testing"
	"time"

	"dltprivacy/internal/dcrypto"
)

// verdict folds an error onto what callers branch on, so two checks agree
// when their verdicts are equal.
func verdict(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrExpired):
		return "expired"
	case errors.Is(err, ErrBadCertificate):
		return "bad"
	default:
		return "other: " + err.Error()
	}
}

func (v *Verifier) size() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.cur) + len(v.old)
}

// enrolled issues n certificates for distinct identities over one key pair:
// the verifier never looks at the certified key, and key generation would
// dominate the large tests.
func enrolled(t testing.TB, ca *CA, n int) []Certificate {
	t.Helper()
	key, err := dcrypto.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	certs := make([]Certificate, n)
	for i := range certs {
		if certs[i], err = ca.Enroll(fmt.Sprintf("org-%d", i), key.Public()); err != nil {
			t.Fatal(err)
		}
	}
	return certs
}

func TestVerifierVerifiesOnce(t *testing.T) {
	ca := newTestCA(t)
	cert := enrolled(t, ca, 1)[0]
	v := NewVerifier(ca.PublicKey())
	for i := 0; i < 5; i++ {
		if err := v.Verify(cert, time.Now()); err != nil {
			t.Fatalf("Verify %d: %v", i, err)
		}
	}
	if v.Verifications() != 1 || v.Hits() != 4 || v.size() != 1 {
		t.Fatalf("verifications = %d, hits = %d, size = %d; want 1, 4, 1", v.Verifications(), v.Hits(), v.size())
	}
}

// TestVerifierPoisoning primes the verifier with a valid certificate and
// then presents every one-field departure from it. The full check refuses
// each; the primed verifier must refuse it the same way, learn nothing from
// it, and still know the original.
func TestVerifierPoisoning(t *testing.T) {
	ca := newTestCA(t)
	good := enrolled(t, ca, 1)[0]
	other, err := dcrypto.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	at := good.NotBefore.Add(time.Hour)
	wide := new(big.Int).Lsh(big.NewInt(1), 256)

	mutations := map[string]func(c *Certificate){
		"Serial":            func(c *Certificate) { c.Serial++ },
		"Kind":              func(c *Certificate) { c.Kind = KindOneTime },
		"Identity":          func(c *Certificate) { c.Identity = "mallory" },
		"Identity empty":    func(c *Certificate) { c.Identity = "" },
		"PublicKey":         func(c *Certificate) { c.PublicKey = other.Public().Bytes() },
		"PublicKey bit":     func(c *Certificate) { c.PublicKey = append([]byte(nil), c.PublicKey...); c.PublicKey[40] ^= 1 },
		"PublicKey nil":     func(c *Certificate) { c.PublicKey = nil },
		"PublicKey empty":   func(c *Certificate) { c.PublicKey = []byte{} },
		"Issuer":            func(c *Certificate) { c.Issuer = "OtherCA" },
		"NotBefore earlier": func(c *Certificate) { c.NotBefore = c.NotBefore.Add(-time.Hour) },
		"NotBefore future":  func(c *Certificate) { c.NotBefore = at.Add(time.Hour) },
		"NotAfter later":    func(c *Certificate) { c.NotAfter = c.NotAfter.Add(time.Hour) },
		"NotAfter past":     func(c *Certificate) { c.NotAfter = at.Add(-time.Minute) },
		// The same instant in another zone marshals differently, so the CA
		// did not sign it.
		"NotAfter rezoned":  func(c *Certificate) { c.NotAfter = c.NotAfter.In(time.FixedZone("", 3600)) },
		"NotBefore rezoned": func(c *Certificate) { c.NotBefore = c.NotBefore.In(time.FixedZone("", -90*60)) },
		"Sig.R off by one":  func(c *Certificate) { c.Sig.R = new(big.Int).Add(c.Sig.R, big.NewInt(1)) },
		"Sig.R negated":     func(c *Certificate) { c.Sig.R = new(big.Int).Neg(c.Sig.R) },
		"Sig.R widened":     func(c *Certificate) { c.Sig.R = new(big.Int).Add(c.Sig.R, wide) },
		"Sig.R zero":        func(c *Certificate) { c.Sig.R = new(big.Int) },
		"Sig.R nil":         func(c *Certificate) { c.Sig.R = nil },
		"Sig.S off by one":  func(c *Certificate) { c.Sig.S = new(big.Int).Add(c.Sig.S, big.NewInt(1)) },
		"Sig.S negated":     func(c *Certificate) { c.Sig.S = new(big.Int).Neg(c.Sig.S) },
		"Sig.S widened":     func(c *Certificate) { c.Sig.S = new(big.Int).Add(c.Sig.S, wide) },
		"Sig.S zero":        func(c *Certificate) { c.Sig.S = new(big.Int) },
		"Sig.S nil":         func(c *Certificate) { c.Sig.S = nil },
		"Sig swapped":       func(c *Certificate) { c.Sig.R, c.Sig.S = c.Sig.S, c.Sig.R },
		"Sig zero value":    func(c *Certificate) { c.Sig = dcrypto.Signature{} },
	}

	v := NewVerifier(ca.PublicKey())
	if err := v.Verify(good, at); err != nil {
		t.Fatalf("prime: %v", err)
	}
	for name, mutate := range mutations {
		bad := good
		bad.Sig = dcrypto.Signature{R: new(big.Int).Set(good.Sig.R), S: new(big.Int).Set(good.Sig.S)}
		mutate(&bad)
		want := verdict(VerifyCertificate(bad, ca.PublicKey(), at))
		if want == "ok" {
			t.Fatalf("%s: the full check accepts the mutation; the table is wrong", name)
		}
		hits := v.Hits()
		if got := verdict(v.Verify(bad, at)); got != want {
			t.Errorf("%s: primed verifier says %q, full check %q", name, got, want)
		}
		if v.Hits() != hits || v.size() != 1 {
			t.Errorf("%s: hits %d -> %d, size %d; a rejected certificate must neither hit nor enter the set", name, hits, v.Hits(), v.size())
		}
	}
	verifications := v.Verifications()
	if err := v.Verify(good, at); err != nil || v.Verifications() != verifications {
		t.Fatalf("original after the table: err %v, verifications %d -> %d; want a hit", err, verifications, v.Verifications())
	}
}

// TestFingerprintCoversCertificate pins the field list fingerprint hashes.
// A field added to Certificate is signed automatically (payload marshals
// the struct) but fingerprinted only if somebody adds it there: until then
// two certificates differing in it alone would share a cache entry.
func TestFingerprintCoversCertificate(t *testing.T) {
	want := []string{"Serial", "Kind", "Identity", "PublicKey", "Issuer", "NotBefore", "NotAfter", "Sig"}
	typ := reflect.TypeOf(Certificate{})
	var got []string
	for i := 0; i < typ.NumField(); i++ {
		got = append(got, typ.Field(i).Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Certificate fields are %v; fingerprint hashes %v — extend it (and the poisoning table) first", got, want)
	}
}

// TestVerifierKeepsWhatJSONDistinguishes: the signed bytes tell a nil public
// key from an empty one and one zone from another at the same instant, so
// the fingerprint must too — here with the unusual form as the cached one.
func TestVerifierKeepsWhatJSONDistinguishes(t *testing.T) {
	zone := time.FixedZone("", 2*3600)
	ca := newTestCA(t, WithClock(func() time.Time { return time.Now().In(zone) }))
	good, err := ca.Enroll("keyless", dcrypto.PublicKey{}) // certifies a nil key: "publicKey":null
	if err != nil {
		t.Fatal(err)
	}
	if good.PublicKey != nil {
		t.Fatalf("fixture: PublicKey = %v, want nil", good.PublicKey)
	}
	at := good.NotBefore.Add(time.Hour)
	v := NewVerifier(ca.PublicKey())
	if err := v.Verify(good, at); err != nil {
		t.Fatalf("prime: %v", err)
	}
	for name, mutate := range map[string]func(c *Certificate){
		"empty for nil key": func(c *Certificate) { c.PublicKey = []byte{} },
		"NotBefore in UTC":  func(c *Certificate) { c.NotBefore = c.NotBefore.UTC() },
		"NotAfter in UTC":   func(c *Certificate) { c.NotAfter = c.NotAfter.UTC() },
	} {
		bad := good
		mutate(&bad)
		want := verdict(VerifyCertificate(bad, ca.PublicKey(), at))
		if got := verdict(v.Verify(bad, at)); want != "bad" || got != want {
			t.Errorf("%s: primed verifier says %q, full check %q; want both bad", name, got, want)
		}
	}
	if v.size() != 1 || v.Hits() != 0 {
		t.Fatalf("size %d, hits %d; want 1, 0", v.size(), v.Hits())
	}
}

// TestVerifierWindowOnHit: the validity window is the caller's clock against
// the certificate, so it is checked on a hit too.
func TestVerifierWindowOnHit(t *testing.T) {
	ca := newTestCA(t)
	cert := enrolled(t, ca, 1)[0]
	v := NewVerifier(ca.PublicKey())
	if err := v.Verify(cert, cert.NotBefore.Add(time.Hour)); err != nil {
		t.Fatalf("prime: %v", err)
	}
	if err := v.Verify(cert, cert.NotAfter.Add(time.Second)); !errors.Is(err, ErrExpired) {
		t.Fatalf("cached certificate past NotAfter = %v, want ErrExpired", err)
	}
	if err := v.Verify(cert, cert.NotBefore.Add(-time.Second)); !errors.Is(err, ErrExpired) {
		t.Fatalf("cached certificate before NotBefore = %v, want ErrExpired", err)
	}
	if v.Hits() != 0 || v.Verifications() != 1 {
		t.Fatalf("hits = %d, verifications = %d; a call outside the window reaches neither", v.Hits(), v.Verifications())
	}
	if err := v.Verify(cert, cert.NotAfter); err != nil || v.Hits() != 1 {
		t.Fatalf("back inside the window: err %v, hits %d", err, v.Hits())
	}
}

// TestVerifierPinnedToItsCA: what one verifier learned says nothing to a
// verifier pinned to another key.
func TestVerifierPinnedToItsCA(t *testing.T) {
	ca1, ca2 := newTestCA(t), newTestCA(t)
	cert := enrolled(t, ca1, 1)[0]
	v1, v2 := NewVerifier(ca1.PublicKey()), NewVerifier(ca2.PublicKey())
	if err := v1.Verify(cert, time.Now()); err != nil {
		t.Fatalf("issuing CA's verifier: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := v2.Verify(cert, time.Now()); !errors.Is(err, ErrBadCertificate) {
			t.Fatalf("other CA's verifier = %v, want ErrBadCertificate", err)
		}
	}
	if v2.size() != 0 || v2.Hits() != 0 || v2.Verifications() != 2 {
		t.Fatalf("other CA's verifier: size %d, hits %d, verifications %d; want 0, 0, 2", v2.size(), v2.Hits(), v2.Verifications())
	}
}

// TestVerifierForgedNeverCached: a peer without CA-signed certificates can
// make the verifier work, but cannot make it remember.
func TestVerifierForgedNeverCached(t *testing.T) {
	ca := newTestCA(t)
	cert := enrolled(t, ca, 1)[0]
	v := NewVerifier(ca.PublicKey())
	const forged = 10_000
	for i := 0; i < forged; i++ {
		cert.Serial = uint64(1000 + i)
		if err := v.Verify(cert, time.Now()); !errors.Is(err, ErrBadCertificate) {
			t.Fatalf("forged %d = %v, want ErrBadCertificate", i, err)
		}
	}
	if v.size() != 0 || v.Verifications() != forged || v.Hits() != 0 {
		t.Fatalf("size %d, verifications %d, hits %d; want 0, %d, 0", v.size(), v.Verifications(), v.Hits(), forged)
	}
}

// TestVerifierBounded: three generations' worth of valid, distinct
// certificates leave at most two in the set, a certificate in use all along
// survives every rotation, and one last seen two generations ago is
// verified again.
func TestVerifierBounded(t *testing.T) {
	ca := newTestCA(t)
	certs := enrolled(t, ca, 3*verifierGeneration)
	v := NewVerifier(ca.PublicKey())
	now := time.Now()
	hot, cold := certs[0], certs[1]
	for i, cert := range certs {
		if err := v.Verify(cert, now); err != nil {
			t.Fatalf("certificate %d: %v", i, err)
		}
		if i%1000 == 999 {
			if err := v.Verify(hot, now); err != nil {
				t.Fatal(err)
			}
		}
		if n := v.size(); n > 2*verifierGeneration {
			t.Fatalf("after %d certificates the set holds %d, over the bound of %d", i+1, n, 2*verifierGeneration)
		}
	}
	if v.Verifications() != uint64(len(certs)) {
		t.Fatalf("verifications = %d, want one per distinct certificate (%d)", v.Verifications(), len(certs))
	}
	hits := v.Hits()
	for _, cert := range []Certificate{hot, certs[len(certs)-1], certs[len(certs)-verifierGeneration]} {
		if err := v.Verify(cert, now); err != nil {
			t.Fatal(err)
		}
	}
	if v.Hits() != hits+3 {
		t.Fatalf("the certificate in use and the two recent ones scored %d hits, want 3", v.Hits()-hits)
	}
	if err := v.Verify(cold, now); err != nil || v.Verifications() != uint64(len(certs))+1 {
		t.Fatalf("forgotten certificate: err %v, verifications %d; want it verified again", err, v.Verifications())
	}
}

// TestVerifierConcurrent drives hits, misses, failures and window rejections
// from eight goroutines at once; run under -race.
func TestVerifierConcurrent(t *testing.T) {
	ca := newTestCA(t)
	certs := enrolled(t, ca, 16)
	v := NewVerifier(ca.PublicKey())
	now := time.Now()
	const workers, rounds = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				cert := certs[(w+i)%len(certs)]
				if err := v.Verify(cert, now); err != nil {
					t.Errorf("valid certificate: %v", err)
				}
				if err := v.Verify(cert, cert.NotAfter.Add(time.Hour)); !errors.Is(err, ErrExpired) {
					t.Errorf("expired = %v, want ErrExpired", err)
				}
				cert.Identity = "mallory"
				if err := v.Verify(cert, now); !errors.Is(err, ErrBadCertificate) {
					t.Errorf("forged = %v, want ErrBadCertificate", err)
				}
			}
		}(w)
	}
	wg.Wait()
	if v.size() != len(certs) {
		t.Fatalf("set holds %d fingerprints, want the %d valid certificates", v.size(), len(certs))
	}
	if got, want := v.Hits()+v.Verifications(), uint64(2*workers*rounds); got != want {
		t.Fatalf("hits + verifications = %d, want %d (every call inside its window is one or the other)", got, want)
	}
}

// FuzzVerifierAgrees decodes the input as a certificate and asks three
// checkers about it: the stateless full check, a verifier that has seen
// nothing, and a verifier that has seen the valid certificate the seeds
// were cut from (and whatever else earlier inputs taught it). They must
// reach the same verdict, and a verifier must remember exactly the
// certificates the full check accepts.
func FuzzVerifierAgrees(f *testing.F) {
	ca, err := NewCA("fuzz-ca")
	if err != nil {
		f.Fatal(err)
	}
	good := enrolled(f, ca, 1)[0]
	at := good.NotBefore.Add(time.Hour)
	primed := NewVerifier(ca.PublicKey())
	if err := primed.Verify(good, at); err != nil {
		f.Fatal(err)
	}

	seed := func(mutate func(c *Certificate)) {
		c := good
		c.Sig = dcrypto.Signature{R: new(big.Int).Set(good.Sig.R), S: new(big.Int).Set(good.Sig.S)}
		mutate(&c)
		b, err := json.Marshal(c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	wide := new(big.Int).Lsh(big.NewInt(1), 256)
	order, _ := new(big.Int).SetString("ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551", 16)
	seed(func(c *Certificate) {})
	seed(func(c *Certificate) { c.Identity = "mallory" })
	seed(func(c *Certificate) { c.Serial++ })
	seed(func(c *Certificate) { c.PublicKey = nil })
	seed(func(c *Certificate) { c.PublicKey = []byte{} })
	seed(func(c *Certificate) { c.NotAfter = c.NotAfter.In(time.FixedZone("", -7*3600)) })
	seed(func(c *Certificate) { c.NotBefore = c.NotBefore.In(time.FixedZone("", 5*3600+1800)) })
	seed(func(c *Certificate) { c.NotAfter = at.Add(-time.Minute) })
	seed(func(c *Certificate) { c.Sig.R.Neg(c.Sig.R) })
	seed(func(c *Certificate) { c.Sig.S.Neg(c.Sig.S) })
	seed(func(c *Certificate) { c.Sig.R.Add(c.Sig.R, wide) })
	seed(func(c *Certificate) { c.Sig.S.Lsh(c.Sig.S, 64) })
	seed(func(c *Certificate) { c.Sig.R = nil })
	seed(func(c *Certificate) { c.Sig.S.SetInt64(0) })
	// ECDSA's other root: (r, n-s) verifies wherever (r, s) does. The full
	// check accepts it, so the verifiers must too — as a separate entry.
	seed(func(c *Certificate) { c.Sig.S.Sub(order, c.Sig.S) })
	f.Add([]byte(`{"notAfter":"9999-12-31T23:59:59Z","sig":{"R":1,"S":1}}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var cert Certificate
		if json.Unmarshal(data, &cert) != nil {
			return
		}
		want := verdict(VerifyCertificate(cert, ca.PublicKey(), at))
		cold := NewVerifier(ca.PublicKey())
		if got := verdict(cold.Verify(cert, at)); got != want {
			t.Fatalf("cold verifier says %q, full check %q", got, want)
		}
		if remembered := cold.size() == 1; remembered != (want == "ok") {
			t.Fatalf("cold verifier remembered = %v after verdict %q", remembered, want)
		}
		// Twice: the second call takes the hit path when the first inserted.
		for i := 0; i < 2; i++ {
			if got := verdict(primed.Verify(cert, at)); got != want {
				t.Fatalf("primed verifier (call %d) says %q, full check %q", i+1, got, want)
			}
		}
	})
}

func BenchmarkVerifier(b *testing.B) {
	ca, err := NewCA("bench-ca")
	if err != nil {
		b.Fatal(err)
	}
	cert := enrolled(b, ca, 1)[0]
	now := time.Now()
	b.Run("hit", func(b *testing.B) {
		v := NewVerifier(ca.PublicKey())
		if err := v.Verify(cert, now); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := v.Verify(cert, now); err != nil {
				b.Fatal(err)
			}
		}
	})
	// A miss on a verifier that has seen nothing: the full check plus the
	// insert (the empty verifier itself is two small allocations).
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := NewVerifier(ca.PublicKey()).Verify(cert, now); err != nil {
				b.Fatal(err)
			}
		}
	})
}

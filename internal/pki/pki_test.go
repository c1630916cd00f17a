package pki

import (
	"errors"
	"sync"
	"testing"
	"time"

	"dltprivacy/internal/dcrypto"
)

func newTestCA(t *testing.T, opts ...Option) *CA {
	t.Helper()
	ca, err := NewCA("TestCA", opts...)
	if err != nil {
		t.Fatalf("NewCA: %v", err)
	}
	return ca
}

func TestEnrollAndVerify(t *testing.T) {
	ca := newTestCA(t)
	key, _ := dcrypto.GenerateKey()
	cert, err := ca.Enroll("BankA", key.Public())
	if err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	if err := ca.Verify(cert); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if cert.Identity != "BankA" || cert.Kind != KindIdentity {
		t.Fatalf("unexpected cert fields: %+v", cert)
	}
}

func TestEnrollEmptyIdentity(t *testing.T) {
	ca := newTestCA(t)
	key, _ := dcrypto.GenerateKey()
	if _, err := ca.Enroll("", key.Public()); err == nil {
		t.Fatal("empty identity must be rejected")
	}
}

func TestVerifyRejectsForgedCert(t *testing.T) {
	ca := newTestCA(t)
	key, _ := dcrypto.GenerateKey()
	cert, err := ca.Enroll("BankA", key.Public())
	if err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	cert.Identity = "Mallory" // tamper
	if err := ca.Verify(cert); !errors.Is(err, ErrBadCertificate) {
		t.Fatalf("Verify tampered = %v, want ErrBadCertificate", err)
	}
}

func TestVerifyRejectsOtherCA(t *testing.T) {
	ca1 := newTestCA(t)
	ca2 := newTestCA(t)
	key, _ := dcrypto.GenerateKey()
	cert, err := ca1.Enroll("BankA", key.Public())
	if err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	if err := ca2.Verify(cert); !errors.Is(err, ErrBadCertificate) {
		t.Fatalf("Verify against other CA = %v, want ErrBadCertificate", err)
	}
}

func TestRevocation(t *testing.T) {
	ca := newTestCA(t)
	key, _ := dcrypto.GenerateKey()
	cert, err := ca.Enroll("BankA", key.Public())
	if err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	ca.Revoke(cert.Serial)
	if err := ca.Verify(cert); !errors.Is(err, ErrRevoked) {
		t.Fatalf("Verify revoked = %v, want ErrRevoked", err)
	}
}

func TestExpiry(t *testing.T) {
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	ca := newTestCA(t, WithClock(clock))
	key, _ := dcrypto.GenerateKey()
	cert, err := ca.Enroll("BankA", key.Public())
	if err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	now = now.Add(2 * 365 * 24 * time.Hour)
	if err := ca.Verify(cert); !errors.Is(err, ErrExpired) {
		t.Fatalf("Verify expired = %v, want ErrExpired", err)
	}
}

func TestOneTimeCertRequiresEnrollment(t *testing.T) {
	ca := newTestCA(t)
	key, _ := dcrypto.GenerateKey()
	if _, err := ca.IssueOneTime("Ghost", key.Public()); !errors.Is(err, ErrUnknownIdentity) {
		t.Fatalf("IssueOneTime unenrolled = %v, want ErrUnknownIdentity", err)
	}
}

func TestOneTimeCertLinksPseudonym(t *testing.T) {
	ca := newTestCA(t)
	idKey, _ := dcrypto.GenerateKey()
	if _, err := ca.Enroll("SellerCo", idKey.Public()); err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	chain, _ := dcrypto.NewOneTimeKeyChain([]byte("seller-seed-0123456789"))
	oneTime, _ := chain.Next()
	cert, err := ca.IssueOneTime("SellerCo", oneTime)
	if err != nil {
		t.Fatalf("IssueOneTime: %v", err)
	}
	if cert.Kind != KindOneTime || cert.Identity != "SellerCo" {
		t.Fatalf("unexpected one-time cert: %+v", cert)
	}
	if err := ca.Verify(cert); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	certKey, err := cert.Key()
	if err != nil {
		t.Fatalf("Key: %v", err)
	}
	if certKey.X.Cmp(oneTime.X) != 0 || certKey.Y.Cmp(oneTime.Y) != 0 {
		t.Fatal("certificate must carry the pseudonymous key")
	}
}

func TestMembershipListHiddenByDefault(t *testing.T) {
	ca := newTestCA(t)
	key, _ := dcrypto.GenerateKey()
	if _, err := ca.Enroll("BankA", key.Public()); err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	if _, err := ca.Members(); !errors.Is(err, ErrMembershipHidden) {
		t.Fatalf("Members = %v, want ErrMembershipHidden", err)
	}
}

func TestMembershipListExposedWhenOpted(t *testing.T) {
	ca := newTestCA(t, WithMembershipList())
	key, _ := dcrypto.GenerateKey()
	if _, err := ca.Enroll("BankA", key.Public()); err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	members, err := ca.Members()
	if err != nil {
		t.Fatalf("Members: %v", err)
	}
	if len(members) != 1 || members[0] != "BankA" {
		t.Fatalf("Members = %v, want [BankA]", members)
	}
}

func TestCertificateOf(t *testing.T) {
	ca := newTestCA(t)
	key, _ := dcrypto.GenerateKey()
	want, err := ca.Enroll("BankA", key.Public())
	if err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	got, err := ca.CertificateOf("BankA")
	if err != nil {
		t.Fatalf("CertificateOf: %v", err)
	}
	if got.Serial != want.Serial {
		t.Fatalf("CertificateOf serial = %d, want %d", got.Serial, want.Serial)
	}
	if _, err := ca.CertificateOf("Nobody"); !errors.Is(err, ErrUnknownIdentity) {
		t.Fatalf("CertificateOf unknown = %v, want ErrUnknownIdentity", err)
	}
}

func TestVerifyCertificatePinnedKey(t *testing.T) {
	ca := newTestCA(t)
	key, _ := dcrypto.GenerateKey()
	cert, err := ca.Enroll("BankA", key.Public())
	if err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	if err := VerifyCertificate(cert, ca.PublicKey(), time.Now()); err != nil {
		t.Fatalf("VerifyCertificate: %v", err)
	}
}

func TestRevocationPlaneEpochsAndDeltas(t *testing.T) {
	ca := newTestCA(t)
	certs := make([]Certificate, 3)
	for i, id := range []string{"BankA", "BankB", "BankC"} {
		key, _ := dcrypto.GenerateKey()
		cert, err := ca.Enroll(id, key.Public())
		if err != nil {
			t.Fatalf("Enroll %s: %v", id, err)
		}
		certs[i] = cert
	}
	if v := ca.RevocationVersion(); v != 0 {
		t.Fatalf("fresh CA revocation version = %d, want 0", v)
	}
	if revs, v := ca.RevokedSince(0); len(revs) != 0 || v != 0 {
		t.Fatalf("fresh CA RevokedSince(0) = %v, %d", revs, v)
	}

	ca.Revoke(certs[0].Serial)
	ca.Revoke(certs[1].Serial)
	if v := ca.RevocationVersion(); v != 2 {
		t.Fatalf("version after two revocations = %d, want 2", v)
	}
	if !ca.IsRevoked(certs[0].Serial) || ca.IsRevoked(certs[2].Serial) {
		t.Fatal("IsRevoked does not reflect the revocation set")
	}

	// Full read from epoch 0, ordered, with identities and epochs filled.
	revs, v := ca.RevokedSince(0)
	if v != 2 || len(revs) != 2 {
		t.Fatalf("RevokedSince(0) = %v, %d", revs, v)
	}
	if revs[0].Identity != "BankA" || revs[0].Epoch != 1 || revs[0].Kind != KindIdentity {
		t.Fatalf("first revocation entry = %+v", revs[0])
	}
	if revs[1].Identity != "BankB" || revs[1].Epoch != 2 {
		t.Fatalf("second revocation entry = %+v", revs[1])
	}

	// Delta read: a caller at epoch 1 sees only the second revocation.
	revs, v = ca.RevokedSince(1)
	if v != 2 || len(revs) != 1 || revs[0].Serial != certs[1].Serial {
		t.Fatalf("RevokedSince(1) = %v, %d", revs, v)
	}
	// A caller already at the current version sees an empty delta.
	if revs, v := ca.RevokedSince(2); len(revs) != 0 || v != 2 {
		t.Fatalf("RevokedSince(current) = %v, %d", revs, v)
	}
}

func TestRevokeIdempotent(t *testing.T) {
	ca := newTestCA(t)
	key, _ := dcrypto.GenerateKey()
	cert, err := ca.Enroll("BankA", key.Public())
	if err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	ca.Revoke(cert.Serial)
	ca.Revoke(cert.Serial) // second revocation must not bump the epoch
	if v := ca.RevocationVersion(); v != 1 {
		t.Fatalf("version after double revoke = %d, want 1", v)
	}
	if revs, _ := ca.RevokedSince(0); len(revs) != 1 {
		t.Fatalf("log after double revoke = %v, want one entry", revs)
	}
}

func TestOnRevokeNotifiesAfterUnlock(t *testing.T) {
	ca := newTestCA(t)
	key, _ := dcrypto.GenerateKey()
	cert, err := ca.Enroll("BankA", key.Public())
	if err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	var got []Revocation
	// The subscriber calls back into the CA: it must not deadlock, and the
	// delta it reads must already include the revocation it was notified of.
	ca.OnRevoke(func(r Revocation) {
		revs, v := ca.RevokedSince(0)
		if v != r.Epoch || len(revs) == 0 {
			t.Errorf("subscriber read version %d, want %d", v, r.Epoch)
		}
		got = append(got, r)
	})
	ca.Revoke(cert.Serial)
	if len(got) != 1 || got[0].Identity != "BankA" || got[0].Serial != cert.Serial {
		t.Fatalf("subscriber saw %+v", got)
	}
	ca.Revoke(cert.Serial) // idempotent revoke must not re-notify
	if len(got) != 1 {
		t.Fatalf("subscriber re-notified on idempotent revoke: %+v", got)
	}
}

func TestRevocationOfOneTimeCertCarriesKind(t *testing.T) {
	ca := newTestCA(t)
	idKey, _ := dcrypto.GenerateKey()
	if _, err := ca.Enroll("SellerCo", idKey.Public()); err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	otKey, _ := dcrypto.GenerateKey()
	cert, err := ca.IssueOneTime("SellerCo", otKey.Public())
	if err != nil {
		t.Fatalf("IssueOneTime: %v", err)
	}
	ca.Revoke(cert.Serial)
	revs, _ := ca.RevokedSince(0)
	if len(revs) != 1 || revs[0].Kind != KindOneTime || revs[0].Identity != "SellerCo" {
		t.Fatalf("one-time revocation entry = %+v", revs)
	}
}

func TestOnRevokeCancelDetaches(t *testing.T) {
	ca := newTestCA(t)
	key, _ := dcrypto.GenerateKey()
	c1, err := ca.Enroll("BankA", key.Public())
	if err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	c2, err := ca.Enroll("BankB", key.Public())
	if err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	var notified int
	cancel := ca.OnRevoke(func(Revocation) { notified++ })
	ca.Revoke(c1.Serial)
	cancel()
	cancel() // idempotent
	ca.Revoke(c2.Serial)
	if notified != 1 {
		t.Fatalf("subscriber notified %d times, want 1 (cancel must detach)", notified)
	}
}

// TestEnrollmentIsFirstCome: of eight concurrent enrollments of one name
// under eight keys exactly one wins, and the rest are ErrAlreadyEnrolled; the
// winner's key enrolls again.
func TestEnrollmentIsFirstCome(t *testing.T) {
	ca := newTestCA(t)
	keys := make([]*dcrypto.PrivateKey, 8)
	for i := range keys {
		var err error
		if keys[i], err = dcrypto.GenerateKey(); err != nil {
			t.Fatal(err)
		}
	}
	errs := make([]error, len(keys))
	var wg sync.WaitGroup
	for i, key := range keys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = ca.Enroll("BankA", key.Public())
		}()
	}
	wg.Wait()
	winner := -1
	for i, err := range errs {
		switch {
		case err == nil && winner >= 0:
			t.Fatalf("keys %d and %d both enrolled BankA", winner, i)
		case err == nil:
			winner = i
		case !errors.Is(err, ErrAlreadyEnrolled):
			t.Fatalf("key %d: %v, want ErrAlreadyEnrolled", i, err)
		}
	}
	if winner < 0 {
		t.Fatal("no key enrolled BankA")
	}
	if _, err := ca.Enroll("BankA", keys[winner].Public()); err != nil {
		t.Fatalf("re-enrolling the winner's key: %v", err)
	}
	if _, err := ca.Enroll("BankA", keys[(winner+1)%len(keys)].Public()); !errors.Is(err, ErrAlreadyEnrolled) {
		t.Fatalf("another key after the renewal: %v, want ErrAlreadyEnrolled", err)
	}
}

func TestRevocationMarksSupersededCerts(t *testing.T) {
	ca := newTestCA(t)
	key, _ := dcrypto.GenerateKey()
	old, err := ca.Enroll("BankA", key.Public())
	if err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	renewed, err := ca.Enroll("BankA", key.Public())
	if err != nil {
		t.Fatalf("re-Enroll: %v", err)
	}
	// Rotation flow: the old serial is revoked after its replacement is
	// enrolled — the log entry records the identity's standing survives.
	ca.Revoke(old.Serial)
	revs, _ := ca.RevokedSince(0)
	if len(revs) != 1 || !revs[0].Superseded {
		t.Fatalf("superseded revocation entry = %+v, want Superseded", revs)
	}
	// Revoking the identity's current certificate is an outright
	// withdrawal.
	ca.Revoke(renewed.Serial)
	revs, _ = ca.RevokedSince(1)
	if len(revs) != 1 || revs[0].Superseded {
		t.Fatalf("outright revocation entry = %+v, want !Superseded", revs)
	}
}

// TestRenewalsKeepTwoRecords: 2,000 renewals of one name under one key leave
// the CA two issuance records, the current serial and the one it superseded,
// and the first serial, whose record went long ago, is still revoked by
// serial.
func TestRenewalsKeepTwoRecords(t *testing.T) {
	ca := newTestCA(t)
	key, err := dcrypto.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	first, err := ca.Enroll("BankA", key.Public())
	if err != nil {
		t.Fatal(err)
	}
	var prev, cur Certificate
	cur = first
	for range 1999 {
		prev = cur
		if cur, err = ca.Enroll("BankA", key.Public()); err != nil {
			t.Fatal(err)
		}
	}
	ca.mu.Lock()
	records := len(ca.issued)
	_, hasCur := ca.issued[cur.Serial]
	_, hasPrev := ca.issued[prev.Serial]
	ca.mu.Unlock()
	if records > 2 || !hasCur || !hasPrev {
		t.Fatalf("after 2,000 enrollments the CA holds %d issuance records (current %v, superseded %v), want the current serial and the one it superseded", records, hasCur, hasPrev)
	}
	ca.Revoke(prev.Serial)
	ca.Revoke(first.Serial)
	if !ca.IsRevoked(first.Serial) {
		t.Fatalf("serial %d, whose record was dropped, is not revoked", first.Serial)
	}
	revs, _ := ca.RevokedSince(0)
	if len(revs) != 2 || !revs[0].Superseded || revs[1].Serial != first.Serial || !revs[1].Superseded || revs[1].Kind != KindIdentity {
		t.Fatalf("revocation log = %+v, want the superseded serial marked, then serial %d marked too", revs, first.Serial)
	}
	if ca.IsRevoked(cur.Serial) {
		t.Fatal("the current certificate was revoked with its predecessors")
	}
}

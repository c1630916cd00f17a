package offchain

import (
	"bytes"
	"errors"
	"testing"

	"dltprivacy/internal/audit"
)

func TestPutGetRoundTrip(t *testing.T) {
	s := NewStore("peer1", []string{"BankA"})
	anchor, err := s.Put("doc-1", []byte("invoice details"))
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err := s.Get("doc-1", "BankA")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(got, []byte("invoice details")) {
		t.Fatalf("Get = %q", got)
	}
	if err := VerifyAnchor(got, anchor); err != nil {
		t.Fatalf("VerifyAnchor: %v", err)
	}
}

func TestPutEmptyKey(t *testing.T) {
	s := NewStore("peer1", nil)
	if _, err := s.Put("", []byte("x")); err == nil {
		t.Fatal("empty key must be rejected")
	}
}

func TestUnauthorizedGet(t *testing.T) {
	s := NewStore("peer1", []string{"BankA"})
	if _, err := s.Put("doc-1", []byte("secret")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, err := s.Get("doc-1", "Outsider"); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("unauthorized Get = %v, want ErrUnauthorized", err)
	}
}

func TestHostAlwaysAuthorized(t *testing.T) {
	s := NewStore("peer1", nil)
	if _, err := s.Put("doc", []byte("x")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, err := s.Get("doc", "peer1"); err != nil {
		t.Fatalf("host Get: %v", err)
	}
}

func TestGetMissing(t *testing.T) {
	s := NewStore("peer1", nil)
	if _, err := s.Get("nope", "peer1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get missing = %v, want ErrNotFound", err)
	}
}

func TestGDPRDeletion(t *testing.T) {
	s := NewStore("peer1", []string{"BankA"})
	anchor, err := s.Put("pii-1", []byte("passport M1234567"))
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Delete("pii-1"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := s.Get("pii-1", "BankA"); !errors.Is(err, ErrDeleted) {
		t.Fatalf("Get deleted = %v, want ErrDeleted", err)
	}
	// The anchor tombstone survives deletion: evidence without content.
	got, err := s.AnchorOf("pii-1")
	if err != nil {
		t.Fatalf("AnchorOf: %v", err)
	}
	if got != anchor {
		t.Fatal("anchor must survive deletion")
	}
	if !s.Deleted("pii-1") || s.Deleted("other") {
		t.Fatal("Deleted flag wrong")
	}
}

func TestDeleteMissing(t *testing.T) {
	s := NewStore("peer1", nil)
	if err := s.Delete("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Delete missing = %v, want ErrNotFound", err)
	}
}

func TestAnchorMismatch(t *testing.T) {
	a := ComputeAnchor([]byte("original"))
	if err := VerifyAnchor([]byte("tampered"), a); !errors.Is(err, ErrAnchorMismatch) {
		t.Fatalf("VerifyAnchor tampered = %v, want ErrAnchorMismatch", err)
	}
}

func TestLeakageAccounting(t *testing.T) {
	log := audit.NewHistory()
	s := NewStore("peer1", []string{"BankA"}, WithAuditLog(log), WithDataClass(audit.ClassPII))
	if _, err := s.Put("pii-1", []byte("ssn")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, err := s.Get("pii-1", "BankA"); err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !log.Saw("peer1", audit.ClassPII, "pii-1") {
		t.Fatal("host observation missing")
	}
	if !log.Saw("BankA", audit.ClassPII, "pii-1") {
		t.Fatal("reader observation missing")
	}
	// Unauthorized attempts leave no observation.
	_, _ = s.Get("pii-1", "Eve")
	if log.SawAny("Eve", audit.ClassPII) {
		t.Fatal("failed access must not record an observation")
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := NewStore("peer1", nil)
	if _, err := s.Put("k", []byte("abc")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, _ := s.Get("k", "peer1")
	got[0] = 'X'
	again, _ := s.Get("k", "peer1")
	if string(again) != "abc" {
		t.Fatal("Get must return a defensive copy")
	}
}

func TestLen(t *testing.T) {
	s := NewStore("peer1", nil)
	_, _ = s.Put("a", []byte("1"))
	_, _ = s.Put("b", []byte("2"))
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	_ = s.Delete("a")
	if s.Len() != 1 {
		t.Fatalf("Len after delete = %d, want 1", s.Len())
	}
}

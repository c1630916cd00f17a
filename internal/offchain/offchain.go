// Package offchain implements the paper's off-chain data mechanism (§2.2,
// "Off-chain data"): confidential payloads live in a database hosted by a
// peer ("peer off-chain") or separate from the DLT layer entirely, while
// transactions on the ledger carry only a hash of the data as authoritative
// evidence. Off-chain storage is what makes deletion possible — the GDPR
// "right to be forgotten" branch of Figure 1 — at the documented cost of
// weakening the immutable-audit promise for the deleted values.
package offchain

import (
	"errors"
	"fmt"
	"sync"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/dcrypto"
)

// Errors returned by store operations.
var (
	// ErrNotFound is returned for unknown or deleted keys.
	ErrNotFound = errors.New("offchain: not found")
	// ErrDeleted is returned when data was removed under a deletion
	// request; the anchor survives as tombstone evidence.
	ErrDeleted = errors.New("offchain: data deleted on request")
	// ErrAnchorMismatch is returned when data fails provenance
	// verification against its on-chain anchor.
	ErrAnchorMismatch = errors.New("offchain: anchor mismatch")
	// ErrUnauthorized is returned when a requester outside the
	// authorized set asks for data.
	ErrUnauthorized = errors.New("offchain: requester not authorized")
)

// Anchor is the on-chain commitment to an off-chain value.
type Anchor [32]byte

// ComputeAnchor hashes a value for on-ledger reference.
func ComputeAnchor(value []byte) Anchor {
	return Anchor(dcrypto.Hash(value))
}

// VerifyAnchor checks value against its anchor — the "audit trail for
// involved parties to verify the provenance of private data".
func VerifyAnchor(value []byte, a Anchor) error {
	if ComputeAnchor(value) != a {
		return ErrAnchorMismatch
	}
	return nil
}

// entry is one stored value with its anchor and tombstone flag.
type entry struct {
	value   []byte
	anchor  Anchor
	deleted bool
}

// Store is an off-chain database hosted by a named principal with an
// authorized reader set. The host inherently observes everything it stores;
// the audit log records that, which is how experiments distinguish
// peer-hosted from externally hosted deployments.
type Store struct {
	host       string
	authorized map[string]bool
	log        *audit.Log
	class      audit.DataClass

	mu   sync.Mutex
	data map[string]*entry
}

// Option configures a store.
type Option func(*Store)

// WithAuditLog attaches leakage accounting.
func WithAuditLog(log *audit.Log) Option {
	return func(s *Store) { s.log = log }
}

// WithDataClass sets the audit class recorded for stored values (default
// ClassTxData; PII stores use ClassPII).
func WithDataClass(c audit.DataClass) Option {
	return func(s *Store) { s.class = c }
}

// NewStore creates a store hosted by host, readable by the authorized
// parties (the host is always authorized).
func NewStore(host string, authorized []string, opts ...Option) *Store {
	auth := make(map[string]bool, len(authorized)+1)
	auth[host] = true
	for _, a := range authorized {
		auth[a] = true
	}
	s := &Store{
		host:       host,
		authorized: auth,
		class:      audit.ClassTxData,
		data:       make(map[string]*entry),
	}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Put stores a value and returns its anchor for on-chain reference. The
// host observes the value.
func (s *Store) Put(key string, value []byte) (Anchor, error) {
	if key == "" {
		return Anchor{}, errors.New("offchain: empty key")
	}
	a := ComputeAnchor(value)
	s.mu.Lock()
	s.data[key] = &entry{value: append([]byte(nil), value...), anchor: a}
	s.mu.Unlock()
	s.log.Record(s.host, s.class, key)
	return a, nil
}

// Get returns the value for an authorized requester, recording the
// observation.
func (s *Store) Get(key, requester string) ([]byte, error) {
	if !s.authorized[requester] {
		return nil, fmt.Errorf("%q: %w", requester, ErrUnauthorized)
	}
	s.mu.Lock()
	e, ok := s.data[key]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("key %q: %w", key, ErrNotFound)
	}
	if e.deleted {
		return nil, fmt.Errorf("key %q: %w", key, ErrDeleted)
	}
	s.log.Record(requester, s.class, key)
	return append([]byte(nil), e.value...), nil
}

// AnchorOf returns the anchor for a key, even after deletion (the tombstone
// proves the datum existed without retaining it).
func (s *Store) AnchorOf(key string) (Anchor, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.data[key]
	if !ok {
		return Anchor{}, fmt.Errorf("key %q: %w", key, ErrNotFound)
	}
	return e.anchor, nil
}

// Delete removes the value under a legal deletion request (§3, GDPR),
// leaving the anchor tombstone.
func (s *Store) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.data[key]
	if !ok {
		return fmt.Errorf("key %q: %w", key, ErrNotFound)
	}
	e.value = nil
	e.deleted = true
	return nil
}

// Deleted reports whether a key was deleted.
func (s *Store) Deleted(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.data[key]
	return ok && e.deleted
}

// Len returns the number of live (undeleted) values.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, e := range s.data {
		if !e.deleted {
			n++
		}
	}
	return n
}

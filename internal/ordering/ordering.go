// Package ordering implements the transaction-ordering service the paper
// singles out as a privacy-critical component (§3.4, "Ordering
// transactions"): for Fabric-style platforms the service "has visibility of
// all DLT events, including parties to transactions and transaction
// details". The orderer here makes that visibility explicit: every
// submission is recorded against the operating principal in the audit log,
// so experiments can show exactly what a third-party operator learns — and
// what a party-run ("private sequencing") deployment avoids leaking.
package ordering

import (
	"errors"
	"fmt"
	"sync"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/ledger"
)

// Errors returned by the ordering service.
var (
	// ErrUnknownChannel is returned when flushing a channel that has no
	// pending transactions and no history.
	ErrUnknownChannel = errors.New("ordering: unknown channel")
	// ErrNoSubscribers is returned when a block is cut for a channel with
	// no delivery targets.
	ErrNoSubscribers = errors.New("ordering: no subscribers for channel")
)

// Visibility controls how much of a submitted transaction the ordering
// service inspects, and therefore leaks to its operator.
type Visibility int

// Visibility levels.
const (
	// VisibilityFull models Fabric/Corda ordering and notary services:
	// the operator sees parties and transaction content.
	VisibilityFull Visibility = iota + 1
	// VisibilityEnvelope models an orderer fed opaque payloads: the
	// operator sees only channel, transaction id, and size.
	VisibilityEnvelope
)

// DeliverFunc receives a cut block for a channel. Delivery runs with the
// channel's delivery lock held (blocks reach subscribers in height
// order), so a DeliverFunc must not call Submit or Flush for the same
// channel on the same service — that self-deadlocks. Re-submitting into a
// different service (as the middleware gateway's platform adapters do) is
// fine.
type DeliverFunc func(b ledger.Block) error

// chainState tracks the orderer-side view of one channel chain.
type chainState struct {
	height   uint64
	lastHash [32]byte
	pending  []ledger.Transaction
	subs     []DeliverFunc
	// deliver serializes block cut + delivery so subscribers receive
	// blocks in height order even under concurrent submitters (the
	// middleware gateway drives this path from many goroutines).
	deliver sync.Mutex
}

// Service is a single-node ("solo") ordering service. The paper notes
// parties can "run their own service to mitigate leaks"; Operator names the
// principal that learns whatever the visibility level exposes.
type Service struct {
	operator   string
	visibility Visibility
	batchSize  int
	log        *audit.Log

	mu     sync.Mutex
	chains map[string]*chainState
}

// Option configures the service.
type Option func(*Service)

// WithBatchSize sets the number of transactions per block (default 1).
func WithBatchSize(n int) Option {
	return func(s *Service) {
		if n > 0 {
			s.batchSize = n
		}
	}
}

// WithAuditLog attaches leakage accounting.
func WithAuditLog(log *audit.Log) Option {
	return func(s *Service) { s.log = log }
}

// New creates an ordering service operated by the named principal.
func New(operator string, visibility Visibility, opts ...Option) *Service {
	s := &Service{
		operator:   operator,
		visibility: visibility,
		batchSize:  1,
		chains:     make(map[string]*chainState),
	}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Operator returns the principal operating the service.
func (s *Service) Operator() string { return s.operator }

// Operators implements Backend for the solo service.
func (s *Service) Operators() []string { return []string{s.operator} }

// Compile-time check.
var _ Backend = (*Service)(nil)

// Subscribe registers a block consumer for a channel.
func (s *Service) Subscribe(channel string, deliver DeliverFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.chain(channel).subs = append(s.chain(channel).subs, deliver)
}

func (s *Service) chain(channel string) *chainState {
	c, ok := s.chains[channel]
	if !ok {
		c = &chainState{}
		s.chains[channel] = c
	}
	return c
}

// Submit queues a transaction for ordering, recording what the operator
// observed. Blocks are cut automatically when the batch size is reached.
func (s *Service) Submit(tx ledger.Transaction) error {
	if err := tx.Validate(); err != nil {
		return fmt.Errorf("ordering submit: %w", err)
	}
	// The digest is needed twice from here — the observation ID below and
	// the block data hash at cut time — and each unprimed use hashes the
	// whole payload. Prime it once at intake; a no-op for a transaction the
	// gateway already primed from the sum its chain carried.
	tx.PrimeDigest()
	s.observe(tx)
	s.mu.Lock()
	c := s.chain(tx.Channel)
	c.pending = append(c.pending, tx)
	ready := len(c.pending) >= s.batchSize
	s.mu.Unlock()
	if ready {
		return s.Flush(tx.Channel)
	}
	return nil
}

// observe records the operator's view of the submission.
func (s *Service) observe(tx ledger.Transaction) {
	hexID := tx.HexID()
	id := string(hexID[:]) // the log copies it: no heap string
	// Envelope metadata is visible at any level.
	s.log.Record(s.operator, audit.ClassTxMetadata, id)
	if s.visibility != VisibilityFull {
		return
	}
	// Full visibility: the operator learns the parties to the transaction
	// and its content (§3.4).
	s.log.Record(s.operator, audit.ClassTxData, id)
	s.log.Record(s.operator, audit.ClassIdentity, tx.Creator)
	for _, e := range tx.Endorsements {
		s.log.Record(s.operator, audit.ClassIdentity, e.Party)
		s.log.Record(s.operator, audit.ClassRelationship, tx.Creator+"<->"+e.Party)
	}
}

// Flush cuts a block from pending transactions and delivers it.
func (s *Service) Flush(channel string) error {
	s.mu.Lock()
	c, ok := s.chains[channel]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownChannel, channel)
	}
	// Hold the channel delivery lock across cut and delivery: blocks
	// reach subscribers in height order even when Flush races.
	c.deliver.Lock()
	defer c.deliver.Unlock()

	s.mu.Lock()
	if len(c.pending) == 0 {
		s.mu.Unlock()
		return nil
	}
	if len(c.subs) == 0 {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNoSubscribers, channel)
	}
	txs := c.pending
	c.pending = nil
	block := ledger.NewBlock(c.height, c.lastHash, txs)
	c.height++
	c.lastHash = block.Hash()
	subs := append([]DeliverFunc(nil), c.subs...)
	s.mu.Unlock()

	for _, deliver := range subs {
		if err := deliver(block); err != nil {
			return fmt.Errorf("deliver block %d on %s: %w", block.Number, channel, err)
		}
	}
	return nil
}

// Pending returns the number of queued transactions for a channel.
func (s *Service) Pending(channel string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.chains[channel]; ok {
		return len(c.pending)
	}
	return 0
}

// Height returns the orderer-side chain height for a channel.
func (s *Service) Height(channel string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.chains[channel]; ok {
		return c.height
	}
	return 0
}

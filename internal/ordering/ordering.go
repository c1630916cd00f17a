// Package ordering implements the transaction-ordering service the paper
// singles out as a privacy-critical component (§3.4, "Ordering
// transactions"): for Fabric-style platforms the service "has visibility of
// all DLT events, including parties to transactions and transaction
// details". The orderer here makes that visibility explicit: every
// submission is recorded against each operating principal in the audit log,
// so experiments can show exactly what a third-party operator learns — and
// what a party-run ("private sequencing") deployment avoids leaking.
//
// There is one chain state machine, Cluster: a channel's queue, block cut,
// observation and export/adopt, replicated over the operators that run it.
// A ReplicatedShard runs one Cluster per channel and recovers from leader
// loss; the third-party ("solo") orderer built by New is the same shard
// over a single operator, a quorum of one. ShardedBackend spreads channels
// over shards.
package ordering

import (
	"errors"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/ledger"
)

// Errors returned by the ordering service.
var (
	// errUnknownChannel is returned when flushing a channel that has no
	// pending transactions and no history.
	errUnknownChannel = errors.New("ordering: unknown channel")
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
//
// The block's transactions belong to the subscriber only for the call: Txs
// is carved from the cluster's queue chunk, whose slots are cleared once
// every subscriber has returned and then reused for the transactions queued
// next, so a subscriber copies what it keeps (slices.Clone, as
// ledger.Ledger.Append does). One that keeps Txs itself reads zero values
// or later transactions. The capacity is clipped: appending to Txs during
// the call reallocates instead of writing into the queue.
type DeliverFunc func(b ledger.Block) error

// config is what a constructor fixes for every chain it runs: the
// visibility it was given and what its Options set.
type config struct {
	visibility Visibility
	log        *audit.Log
	batch      int
}

// Option configures New, NewReplicatedShard and NewCluster.
type Option func(*config)

func newConfig(visibility Visibility, opts []Option) config {
	cfg := config{visibility: visibility, batch: 1}
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// WithBatchSize sets the number of transactions per block (default 1).
func WithBatchSize(n int) Option {
	return func(cfg *config) {
		if n > 0 {
			cfg.batch = n
		}
	}
}

// WithAuditLog attaches leakage accounting.
func WithAuditLog(log *audit.Log) Option {
	return func(cfg *config) { cfg.log = log }
}

// WithShardAudit is WithAuditLog, under the name the repository benchmark
// calls.
func WithShardAudit(log *audit.Log) Option { return WithAuditLog(log) }

// Service is the single-operator ("solo") ordering service: a
// ReplicatedShard whose clusters have one node. The paper notes parties can
// "run their own service to mitigate leaks"; the operator is the principal
// that learns whatever the visibility level exposes.
type Service = ReplicatedShard

// New creates an ordering service operated by the named principal.
func New(operator string, visibility Visibility, opts ...Option) *Service {
	return newShard([]string{operator}, newConfig(visibility, opts))
}

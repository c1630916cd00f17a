package ordering

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"dltprivacy/internal/ledger"
)

// ReplicatedShard is an ordering shard: a Backend that runs one Cluster per
// channel over the shard's operators — the §3.4 mitigation when they are
// the channel's members, the third-party orderer when there is one — and
// recovers from leader loss on its own. A submission that hits a dead
// leader triggers an election under single-flight — concurrent submitters
// queue behind one Elect instead of stampeding — after which queued
// in-flight transactions are replayed in order and the submission retried.
// Per-channel delivery order is preserved across the kill: the new leader
// resumes from the quorum-committed position, and the replay flush
// sequences anything that was queued before any post-failover traffic.
//
// Behind a ShardedBackend this turns "one shard death loses 1/N of all
// channels forever" into an availability dip bounded by one election.
type ReplicatedShard struct {
	operators []string
	config

	mu       sync.Mutex
	clusters map[string]*Cluster

	failovers atomic.Uint64
	// installs is the one counter every cluster of the shard adds to, so it
	// keeps counting across a channel's export.
	installs atomic.Uint64
}

// Compile-time check.
var _ Backend = (*ReplicatedShard)(nil)

// NewReplicatedShard creates a shard whose channels each run an ordering
// cluster over the given operators: one, or at least 3.
func NewReplicatedShard(operators []string, visibility Visibility, opts ...Option) (*ReplicatedShard, error) {
	if err := checkSize(len(operators)); err != nil {
		return nil, err
	}
	return newShard(append([]string(nil), operators...), newConfig(visibility, opts)), nil
}

// newShard builds a shard over operators the caller has size-checked.
func newShard(operators []string, cfg config) *ReplicatedShard {
	return &ReplicatedShard{
		operators: operators,
		config:    cfg,
		clusters:  make(map[string]*Cluster),
	}
}

// Operators implements Backend.
func (rs *ReplicatedShard) Operators() []string {
	return append([]string(nil), rs.operators...)
}

// cluster returns (creating if needed) the channel's cluster.
func (rs *ReplicatedShard) cluster(channel string) *Cluster {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	c, ok := rs.clusters[channel]
	if !ok {
		c = rs.newCluster(channel)
		rs.clusters[channel] = c
	}
	return c
}

// lookup returns the channel's cluster, nil for a channel the shard has
// never served: asking after a channel must not start a chain for it.
func (rs *ReplicatedShard) lookup(channel string) *Cluster {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.clusters[channel]
}

// newCluster builds a channel's cluster over the shard's operators.
func (rs *ReplicatedShard) newCluster(channel string) *Cluster {
	return buildCluster(channel, rs.operators, rs.config, &rs.installs)
}

// Cluster exposes a channel's cluster for fault injection in tests,
// benchmarks, and the chaos harness. The error is always nil; the result
// stays because the repository benchmark reads it.
func (rs *ReplicatedShard) Cluster(channel string) (*Cluster, error) {
	return rs.cluster(channel), nil
}

// Submit implements Backend with automatic failover: a submission rejected
// because the leader is gone elects a new one (single-flight), replays the
// queue, and submits again — a failover error reaches the caller only when
// the shard has lost its replication quorum, or the leader it elected is
// gone again. An error means the transaction was not ordered and is not
// queued: no later flush orders it.
func (rs *ReplicatedShard) Submit(tx ledger.Transaction) error {
	c := rs.cluster(tx.Channel)
	// The generation before the submission: an election completed after
	// this read answers the outage this submission is about to see.
	seen := c.gen.Load()
	err := c.Submit(tx)
	if err == nil {
		return nil
	}
	queued := errors.Is(err, ErrQueuedAwaitingLeader)
	if !queued && !errors.Is(err, ErrNoLeader) {
		return err
	}
	if err = rs.failover(c, seen); err == nil {
		if queued {
			// The transaction is already in the queue; flushing sequences
			// it (and anything queued behind it). Resubmitting would order
			// it twice.
			err = c.Flush()
		} else {
			err = c.Submit(tx)
			queued = errors.Is(err, ErrQueuedAwaitingLeader)
		}
	}
	if err != nil && queued && !c.cancelPending(tx) {
		// A flush sequenced the transaction before it could be withdrawn:
		// the submission succeeded.
		return nil
	}
	return err
}

// Flush cuts a block from the channel's queued transactions without
// waiting for the batch to fill.
func (rs *ReplicatedShard) Flush(channel string) error {
	c := rs.lookup(channel)
	if c == nil {
		return fmt.Errorf("%w: %s", ErrUnknownChannel, channel)
	}
	return c.Flush()
}

// Pending returns the number of queued transactions for a channel.
func (rs *ReplicatedShard) Pending(channel string) int {
	if c := rs.lookup(channel); c != nil {
		return c.Pending()
	}
	return 0
}

// Height returns the shard-side chain height for a channel.
func (rs *ReplicatedShard) Height(channel string) uint64 {
	if c := rs.lookup(channel); c != nil {
		return c.Height()
	}
	return 0
}

// failover elects a new leader for the cluster under single-flight and
// replays the queued transactions the dead leader left behind. seen is the
// generation the caller read before its submission: an election completed
// since then answered this caller's outage too, so the caller skips its own,
// after waiting on electMu for one that is still running.
func (rs *ReplicatedShard) failover(c *Cluster, seen uint64) error {
	c.electMu.Lock()
	defer c.electMu.Unlock()
	if c.gen.Load() != seen {
		// Another caller's election (and replay) completed since this
		// one's read; don't run a second election for the same outage.
		return nil
	}
	if _, err := c.Elect(); err != nil {
		return err
	}
	c.gen.Add(1)
	rs.failovers.Add(1)
	// Replay: transactions queued when the old leader died are sequenced
	// by the new leader before any post-failover submission.
	return c.Flush()
}

// Failovers counts the leader elections this shard ran to recover from a
// dead leader.
func (rs *ReplicatedShard) Failovers() uint64 { return rs.failovers.Load() }

// PositionInstalls counts the nodes this shard brought level with a leader
// they were behind: a restart that missed blocks, or a node found lagging
// at an election or a flush.
func (rs *ReplicatedShard) PositionInstalls() uint64 { return rs.installs.Load() }

// ReplicaEntries returns how many replicated entries the shard's nodes
// hold in memory right now: at most one per node and channel, however long
// the chains are.
func (rs *ReplicatedShard) ReplicaEntries() uint64 {
	var n uint64
	for _, c := range rs.snapshot() {
		n += uint64(c.retained())
	}
	return n
}

// snapshot returns the current cluster set without holding the shard lock
// across per-cluster work.
func (rs *ReplicatedShard) snapshot() []*Cluster {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := make([]*Cluster, 0, len(rs.clusters))
	for _, c := range rs.clusters {
		out = append(out, c)
	}
	return out
}

// ProbeHealth sweeps every cluster and runs a failover where no leader is
// serving, so channels without submit traffic recover on the probe
// interval rather than on their next submission. Returns the number of
// elections that succeeded.
func (rs *ReplicatedShard) ProbeHealth() int {
	n := 0
	for _, c := range rs.snapshot() {
		seen := c.gen.Load()
		if _, err := c.Leader(); err == nil {
			continue
		}
		if err := rs.failover(c, seen); err == nil {
			n++
		}
	}
	return n
}

// CrashLeader crashes the current leader of a channel's cluster — the
// fault chaos scenarios and the demo inject — returning the operator that
// went down so the caller can later Restart it.
func (rs *ReplicatedShard) CrashLeader(channel string) (string, error) {
	c := rs.cluster(channel)
	op, err := c.Leader()
	if err != nil {
		return "", err
	}
	return op, c.Crash(op)
}

// Kill crashes every node of every cluster on the shard — the whole-shard
// failure. Submissions on its channels fail with ErrNoQuorum until Revive.
// Channels first touched after Kill start fresh clusters unaffected by it.
func (rs *ReplicatedShard) Kill() {
	for _, c := range rs.snapshot() {
		for _, op := range rs.operators {
			_ = c.Crash(op)
		}
	}
}

// Revive restarts every node of every cluster and elects a leader per
// cluster; each node's position survived the crash (crash-fault model, not
// disk loss), the election brings every node level with the winner, and so
// chains resume at their pre-kill heights and any queued transactions are
// replayed.
func (rs *ReplicatedShard) Revive() {
	for _, c := range rs.snapshot() {
		for _, op := range rs.operators {
			_ = c.Restart(op)
		}
		_ = rs.failover(c, c.gen.Load())
	}
}

// Subscribe implements Backend.
func (rs *ReplicatedShard) Subscribe(channel string, deliver DeliverFunc) {
	rs.cluster(channel).Subscribe(deliver)
}

// ExportChannel implements ChannelMigrator. Any subscribers registered on
// this shard for the channel are dropped with the chain; in the sharded
// topology the only shard-side subscriber is the ShardedBackend relay,
// which the migration re-attaches on the target shard.
func (rs *ReplicatedShard) ExportChannel(channel string) (ChannelState, error) {
	rs.mu.Lock()
	c, ok := rs.clusters[channel]
	delete(rs.clusters, channel)
	rs.mu.Unlock()
	if !ok {
		return ChannelState{}, fmt.Errorf("%w: %s", ErrUnknownChannel, channel)
	}
	return c.exportState(), nil
}

// ImportChannel implements ChannelMigrator: a fresh cluster over this
// shard's operators is seeded with the imported chain state, so numbering
// and hash chaining continue from the sending shard even across later
// elections here.
func (rs *ReplicatedShard) ImportChannel(channel string, st ChannelState) error {
	c := rs.newCluster(channel)
	c.adoptState(st)
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if _, ok := rs.clusters[channel]; ok {
		return fmt.Errorf("%w: %s", ErrChannelExists, channel)
	}
	rs.clusters[channel] = c
	return nil
}

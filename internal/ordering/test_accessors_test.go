package ordering

import (
	"fmt"
	"sync/atomic"
)

// What only this package's tests call: the cluster constructor (the
// gateway reaches clusters through ReplicatedShard), a shard's flush, and
// the queue and chain accessors the tests assert on. No binary links it, so
// it lives in a test file; TestReachedMeansKept (reach_test.go at the module
// root) fails on unreached code outside one.

// pendingCount returns the number of queued-but-unsequenced transactions.
func (c *Cluster) pendingCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// height returns the number of blocks the cluster has committed.
func (c *Cluster) height() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.head.height
}

// lookup returns the channel's cluster, nil for a channel the shard has
// never served: asking after a channel must not start a chain for it.
func (rs *ReplicatedShard) lookup(channel string) *Cluster {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.clusters[channel]
}

// pendingCount returns the number of queued transactions for a channel.
func (rs *ReplicatedShard) pendingCount(channel string) int {
	if c := rs.lookup(channel); c != nil {
		return c.pendingCount()
	}
	return 0
}

// height returns the shard-side chain height for a channel.
func (rs *ReplicatedShard) height(channel string) uint64 {
	if c := rs.lookup(channel); c != nil {
		return c.height()
	}
	return 0
}

// Flush cuts a block from the channel's queued transactions without
// waiting for the batch to fill.
func (rs *ReplicatedShard) Flush(channel string) error {
	c := rs.lookup(channel)
	if c == nil {
		return fmt.Errorf("%w: %s", errUnknownChannel, channel)
	}
	return c.Flush()
}

// NewCluster creates an ordering cluster for a channel, one node per
// operator: one, or at least three. The first operator starts as leader (a
// deterministic bootstrap election).
func NewCluster(channel string, operators []string, visibility Visibility, opts ...Option) (*Cluster, error) {
	if err := checkSize(len(operators)); err != nil {
		return nil, err
	}
	return buildCluster(channel, operators, newConfig(visibility, opts), new(atomic.Uint64)), nil
}

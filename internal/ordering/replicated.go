package ordering

import (
	"errors"
	"fmt"
	"sync"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/ledger"
)

// This file implements the §3.4 mitigation in full: instead of trusting a
// third-party orderer, channel members run a replicated, crash-fault-
// tolerant ordering cluster themselves. The cluster is leader-based with
// majority-quorum commit (a deliberately simplified Raft: terms, leader
// election by majority vote, log replication, commit on quorum
// acknowledgement). Fault injection in tests covers leader crash, failover,
// and the minority-partition liveness loss.

// Errors returned by the replicated ordering service.
var (
	// ErrNoLeader is returned when no node currently leads the cluster.
	ErrNoLeader = errors.New("ordering: cluster has no leader")
	// ErrNotLeader is returned when a follower is asked to order.
	ErrNotLeader = errors.New("ordering: node is not the leader")
	// ErrNodeDown is returned when a crashed node is asked to serve.
	ErrNodeDown = errors.New("ordering: node is down")
	// ErrNoQuorum is returned when fewer than a majority of nodes
	// acknowledge replication.
	ErrNoQuorum = errors.New("ordering: replication quorum unavailable")
	// ErrClusterSize is returned for clusters smaller than 3 nodes.
	ErrClusterSize = errors.New("ordering: cluster needs at least 3 nodes")
	// ErrQueuedAwaitingLeader marks a submission that was accepted into the
	// pending queue but could not be sequenced because leadership (or the
	// replication quorum) fell over between enqueue and flush. The
	// transaction stays queued: the next successful Flush — typically the
	// failover replay — sequences it, so resubmitting it would order it
	// twice. The underlying ErrNoLeader/ErrNoQuorum stays matchable through
	// errors.Is.
	ErrQueuedAwaitingLeader = errors.New("ordering: transaction queued awaiting a sequencing leader")
)

// logEntry is one replicated ordering decision.
type logEntry struct {
	term  uint64
	block ledger.Block
}

// clusterNode is one member-operated ordering node.
type clusterNode struct {
	operator string

	mu       sync.Mutex
	down     bool
	term     uint64
	isLeader bool
	log      []logEntry
	// committed is the index below which entries are quorum-committed.
	committed int
}

// Cluster is a member-run replicated ordering service for one channel
// group. Each node is operated by a different consortium member, so the
// §3.4 "ordering sees everything" leak is confined to parties that are
// already entitled to the data.
type Cluster struct {
	channel    string
	visibility Visibility
	log        *audit.Log

	mu       sync.Mutex
	nodes    []*clusterNode
	leader   int // index into nodes, -1 when none
	height   uint64
	lastHash [32]byte
	pending  []ledger.Transaction
	batch    int
	subs     []DeliverFunc
	// base/baseHash anchor the chain when the cluster adopted state from
	// another shard (channel migration): the replicated log starts empty
	// here, so elections re-derive height as base + committed entries and
	// fall back to baseHash when the log holds nothing yet. Zero for
	// clusters that started the chain themselves.
	base     uint64
	baseHash [32]byte

	// deliver serializes replication + delivery so subscribers receive
	// blocks in height order under concurrent submitters (see
	// Service.Flush for the solo-orderer equivalent).
	deliver sync.Mutex
}

// NewCluster creates a replicated ordering cluster for a channel, one node
// per operator. The first operator starts as leader (a deterministic
// bootstrap election).
func NewCluster(channel string, operators []string, visibility Visibility, opts ...ClusterOption) (*Cluster, error) {
	if len(operators) < 3 {
		return nil, ErrClusterSize
	}
	c := &Cluster{
		channel:    channel,
		visibility: visibility,
		leader:     0,
		batch:      1,
	}
	for _, op := range operators {
		c.nodes = append(c.nodes, &clusterNode{operator: op})
	}
	c.nodes[0].isLeader = true
	c.nodes[0].term = 1
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// ClusterOption configures a cluster.
type ClusterOption func(*Cluster)

// WithClusterAudit attaches leakage accounting.
func WithClusterAudit(log *audit.Log) ClusterOption {
	return func(c *Cluster) { c.log = log }
}

// WithClusterBatch sets transactions per block.
func WithClusterBatch(n int) ClusterOption {
	return func(c *Cluster) {
		if n > 0 {
			c.batch = n
		}
	}
}

// Subscribe registers a block consumer.
func (c *Cluster) Subscribe(deliver DeliverFunc) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.subs = append(c.subs, deliver)
}

// Leader returns the operator of the current leader.
func (c *Cluster) Leader() (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.leader < 0 {
		return "", ErrNoLeader
	}
	return c.nodes[c.leader].operator, nil
}

// Crash takes a node down.
func (c *Cluster) Crash(operator string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	idx := c.indexOf(operator)
	if idx < 0 {
		return fmt.Errorf("ordering: unknown node %q", operator)
	}
	node := c.nodes[idx]
	node.mu.Lock()
	node.down = true
	wasLeader := node.isLeader
	node.isLeader = false
	node.mu.Unlock()
	if wasLeader {
		c.leader = -1
	}
	return nil
}

// Restart brings a crashed node back as a follower; it catches up from the
// current leader's committed log.
func (c *Cluster) Restart(operator string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	idx := c.indexOf(operator)
	if idx < 0 {
		return fmt.Errorf("ordering: unknown node %q", operator)
	}
	node := c.nodes[idx]
	node.mu.Lock()
	node.down = false
	node.isLeader = false
	node.mu.Unlock()
	if c.leader >= 0 {
		c.catchUpLocked(node)
	}
	return nil
}

func (c *Cluster) indexOf(operator string) int {
	for i, n := range c.nodes {
		if n.operator == operator {
			return i
		}
	}
	return -1
}

// Elect runs a leader election: the first live node with the longest
// committed log that can gather a majority of live votes becomes leader at
// a new term. Returns the new leader's operator.
func (c *Cluster) Elect() (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	live := 0
	for _, n := range c.nodes {
		n.mu.Lock()
		if !n.down {
			live++
		}
		n.mu.Unlock()
	}
	if live < len(c.nodes)/2+1 {
		c.leader = -1
		return "", fmt.Errorf("%w: %d of %d nodes live", ErrNoQuorum, live, len(c.nodes))
	}
	// Candidate choice: live node with the longest committed log (Raft's
	// up-to-date restriction), ties broken by node order.
	best := -1
	bestLen := -1
	var maxTerm uint64
	for i, n := range c.nodes {
		n.mu.Lock()
		if n.term > maxTerm {
			maxTerm = n.term
		}
		if !n.down && n.committed > bestLen {
			best = i
			bestLen = n.committed
		}
		n.mu.Unlock()
	}
	if best < 0 {
		c.leader = -1
		return "", ErrNoLeader
	}
	newTerm := maxTerm + 1
	for i, n := range c.nodes {
		n.mu.Lock()
		n.isLeader = i == best
		if !n.down {
			n.term = newTerm
		}
		n.mu.Unlock()
	}
	c.leader = best
	leader := c.nodes[best]
	// Re-derive chain state from the leader's committed log, so ordering
	// resumes exactly where the quorum left off.
	leader.mu.Lock()
	c.height = c.base + uint64(leader.committed)
	if leader.committed > 0 {
		c.lastHash = leader.log[leader.committed-1].block.Hash()
	} else {
		c.lastHash = c.baseHash
	}
	leader.mu.Unlock()
	return leader.operator, nil
}

// Submit queues a transaction with the current leader.
func (c *Cluster) Submit(tx ledger.Transaction) error {
	if err := tx.Validate(); err != nil {
		return fmt.Errorf("cluster submit: %w", err)
	}
	// As Service.Submit: one digest for observation, block cut and every
	// queue scan (cancelPending), computed outside the cluster lock.
	tx.PrimeDigest()
	c.mu.Lock()
	if c.leader < 0 {
		c.mu.Unlock()
		return ErrNoLeader
	}
	leaderNode := c.nodes[c.leader]
	leaderNode.mu.Lock()
	downLeader := leaderNode.down
	leaderNode.mu.Unlock()
	if downLeader {
		c.leader = -1
		c.mu.Unlock()
		return ErrNoLeader
	}
	// Every live cluster node's operator observes the envelope; with full
	// visibility, the payload and parties too. Because operators are
	// channel members, this confines rather than creates the leak.
	c.observeLocked(tx)
	c.pending = append(c.pending, tx)
	ready := len(c.pending) >= c.batch
	c.mu.Unlock()
	if ready {
		if err := c.Flush(); err != nil && (errors.Is(err, ErrNoLeader) || errors.Is(err, ErrNoQuorum)) {
			// The transaction is appended but unsequenced; mark it so a
			// failover driver knows to replay the queue instead of
			// resubmitting (which would order it twice).
			return fmt.Errorf("%w: %w", ErrQueuedAwaitingLeader, err)
		} else if err != nil {
			return err
		}
	}
	return nil
}

// cancelPending removes one queued instance of tx (matched by transaction
// ID) from the pending queue, reporting whether it was still there. A
// failover driver calls this when its election failed: the submission is
// withdrawn so the error it returns means "not ordered" — unless a racing
// failover already flushed the queue, in which case the transaction was
// sequenced after all.
func (c *Cluster) cancelPending(tx ledger.Transaction) bool {
	id := tx.ID()
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.pending {
		if c.pending[i].ID() == id {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			return true
		}
	}
	return false
}

// Pending returns the number of queued-but-unsequenced transactions.
func (c *Cluster) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// exportState snapshots the cluster's chain state for migration: committed
// height, head hash, and the queued transactions that have not been
// sequenced yet. Taking the delivery lock first drains any in-flight flush
// so the snapshot is a consistent cut.
func (c *Cluster) exportState() ChannelState {
	c.deliver.Lock()
	defer c.deliver.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	return ChannelState{
		Height:   c.height,
		LastHash: c.lastHash,
		Pending:  append([]ledger.Transaction(nil), c.pending...),
	}
}

// adoptState seeds a freshly constructed cluster with chain state imported
// from another shard. Block numbering and hash chaining continue from the
// imported height — including across later elections, which re-derive
// height as base + committed log entries.
func (c *Cluster) adoptState(st ChannelState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.base = st.Height
	c.baseHash = st.LastHash
	c.height = st.Height
	c.lastHash = st.LastHash
	c.pending = append([]ledger.Transaction(nil), st.Pending...)
}

func (c *Cluster) observeLocked(tx ledger.Transaction) {
	hexID := tx.HexID()
	id := string(hexID[:]) // the log copies it: no heap string
	for _, n := range c.nodes {
		n.mu.Lock()
		down := n.down
		op := n.operator
		n.mu.Unlock()
		if down {
			continue
		}
		c.log.Record(op, audit.ClassTxMetadata, id)
		if c.visibility == VisibilityFull {
			c.log.Record(op, audit.ClassTxData, id)
			c.log.Record(op, audit.ClassIdentity, tx.Creator)
		}
	}
}

// Flush orders pending transactions: the leader appends to its log,
// replicates to followers, commits on majority acknowledgement, and only
// then delivers to subscribers.
func (c *Cluster) Flush() error {
	c.deliver.Lock()
	defer c.deliver.Unlock()
	c.mu.Lock()
	if c.leader < 0 {
		c.mu.Unlock()
		return ErrNoLeader
	}
	if len(c.pending) == 0 {
		c.mu.Unlock()
		return nil
	}
	txs := c.pending
	c.pending = nil
	leader := c.nodes[c.leader]
	block := ledger.NewBlock(c.height, c.lastHash, txs)

	leader.mu.Lock()
	term := leader.term
	entry := logEntry{term: term, block: block}
	leader.log = append(leader.log, entry)
	leader.mu.Unlock()

	// Replicate: count acknowledgements from live followers.
	acks := 1 // leader
	for i, n := range c.nodes {
		if i == c.leader {
			continue
		}
		n.mu.Lock()
		if !n.down {
			n.log = append(n.log, entry)
			acks++
		}
		n.mu.Unlock()
	}
	quorum := len(c.nodes)/2 + 1
	if acks < quorum {
		// Roll the entry back everywhere; the block is not committed.
		for _, n := range c.nodes {
			n.mu.Lock()
			if len(n.log) > 0 && n.log[len(n.log)-1].block.Number == block.Number && n.log[len(n.log)-1].term == term {
				n.log = n.log[:len(n.log)-1]
			}
			n.mu.Unlock()
		}
		c.pending = append(txs, c.pending...)
		c.mu.Unlock()
		return fmt.Errorf("%w: %d of %d acks", ErrNoQuorum, acks, quorum)
	}
	// Commit on every live node.
	for _, n := range c.nodes {
		n.mu.Lock()
		if !n.down && len(n.log) > n.committed {
			n.committed = len(n.log)
		}
		n.mu.Unlock()
	}
	c.height++
	c.lastHash = block.Hash()
	subs := append([]DeliverFunc(nil), c.subs...)
	c.mu.Unlock()

	for _, deliver := range subs {
		if err := deliver(block); err != nil {
			return fmt.Errorf("deliver block %d: %w", block.Number, err)
		}
	}
	return nil
}

// catchUpLocked copies the leader's committed log onto a restarted node.
// Caller holds c.mu.
func (c *Cluster) catchUpLocked(node *clusterNode) {
	leader := c.nodes[c.leader]
	leader.mu.Lock()
	entries := make([]logEntry, leader.committed)
	copy(entries, leader.log[:leader.committed])
	term := leader.term
	leader.mu.Unlock()
	node.mu.Lock()
	node.log = entries
	node.committed = len(entries)
	node.term = term
	node.mu.Unlock()
}

// CommittedBlocks returns the committed block count on one node, letting
// tests verify replication.
func (c *Cluster) CommittedBlocks(operator string) (int, error) {
	c.mu.Lock()
	idx := c.indexOf(operator)
	c.mu.Unlock()
	if idx < 0 {
		return 0, fmt.Errorf("ordering: unknown node %q", operator)
	}
	n := c.nodes[idx]
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return 0, ErrNodeDown
	}
	return n.committed, nil
}

// LiveNodes returns the operators of nodes currently up.
func (c *Cluster) LiveNodes() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for _, n := range c.nodes {
		n.mu.Lock()
		if !n.down {
			out = append(out, n.operator)
		}
		n.mu.Unlock()
	}
	return out
}

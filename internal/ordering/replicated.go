package ordering

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/ledger"
)

// This file is the one chain state machine, and the §3.4 mitigation in
// full: instead of trusting a third-party orderer, channel members run a
// replicated, crash-fault-tolerant ordering cluster themselves. The cluster
// is leader-based with majority-quorum commit (a deliberately simplified
// Raft: terms, leader election by majority vote, entry replication, commit
// on quorum acknowledgement). A node keeps its position on the chain, not
// the chain: committed blocks live with the subscribers they were delivered
// to. The third-party orderer is the same machine over one node, a quorum
// of one. Fault injection in tests covers leader crash, failover, and the
// minority-partition liveness loss.

// Errors returned by the replicated ordering service.
var (
	// ErrNoLeader is returned when no node currently leads the cluster.
	ErrNoLeader = errors.New("ordering: cluster has no leader")
	// ErrNoQuorum is returned when fewer than a majority of nodes
	// acknowledge replication.
	ErrNoQuorum = errors.New("ordering: replication quorum unavailable")
	// ErrClusterSize is returned for clusters of no nodes or of two: one
	// operator orders alone, and a majority that survives a crash needs 3.
	ErrClusterSize = errors.New("ordering: cluster needs one node or at least 3")
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

// position is where a node stands on the channel's chain: how many blocks
// it has committed and the hash of the last one. It is all a node keeps of
// committed history, and all a rejoining node needs from the leader.
type position struct {
	height uint64
	hash   [32]byte
}

// clusterNode is one member-operated ordering node.
type clusterNode struct {
	operator string

	mu   sync.Mutex
	down bool
	term uint64
	pos  position
	// uncommitted holds the entries replicated to this node that no quorum
	// has committed yet: the one Flush has in flight, nothing between
	// flushes. Its backing array is reused from flush to flush.
	uncommitted []logEntry
}

// fold commits the node's in-flight entry, moving the node to the position
// after it. This is the one place a committed entry leaves the node's
// memory, so it is where a write-ahead log append belongs. Caller holds
// n.mu.
func (n *clusterNode) fold(after position) {
	n.pos = after
	n.dropUncommitted()
}

// dropUncommitted empties the in-flight list, zeroing the entries so the
// spare capacity does not pin a block's payloads. Caller holds n.mu.
func (n *clusterNode) dropUncommitted() {
	clear(n.uncommitted)
	n.uncommitted = n.uncommitted[:0]
}

// Cluster is the replicated ordering service for one channel. With each
// node operated by a different consortium member, the §3.4 "ordering sees
// everything" leak is confined to parties that are already entitled to the
// data; with one node it is the third-party orderer the paper warns of.
type Cluster struct {
	channel string
	config

	mu     sync.Mutex
	nodes  []*clusterNode
	leader int // index into nodes, -1 when none
	// head is where the next block is cut: the leader's position while
	// there is a leader, the last leader's until the next election.
	head position
	// pending is the queue, carved from an append-only chunk of
	// pendingChunk transactions: a cut hands the block the queue's front,
	// capacity clipped, and the queue goes on in the rest of the chunk. The
	// chunk so keeps up to pendingChunk-1 transactions already cut alive
	// until the queue moves to the next one.
	pending []ledger.Transaction
	subs    []DeliverFunc
	// installs counts nodes brought level with a leader they were behind;
	// a ReplicatedShard points every cluster it runs at one counter.
	installs *atomic.Uint64

	// deliver serializes replication + delivery so subscribers receive
	// blocks in height order even under concurrent submitters (the
	// middleware gateway drives this path from many goroutines).
	deliver sync.Mutex

	// electMu single-flights the elections a ReplicatedShard runs on the
	// cluster's behalf: submitters that hit the same dead leader queue
	// here, and gen, read before each submission, lets the queued ones
	// detect that an election already ran and skip straight to their
	// second submission.
	electMu sync.Mutex
	gen     atomic.Uint64
}

// pendingChunk is how many transactions one chunk of the pending queue
// holds: 21 × 192 B and the runtime's 8-byte header fill the 4,096-byte size
// class (ledger.TestTransactionFitsItsSizeClass holds the 192).
const pendingChunk = 21

// checkSize refuses the operator counts no cluster runs on.
func checkSize(operators int) error {
	if operators != 1 && operators < 3 {
		return ErrClusterSize
	}
	return nil
}

// buildCluster builds a cluster over operators the caller has size-checked,
// counting position installs on the given counter.
func buildCluster(channel string, operators []string, cfg config, installs *atomic.Uint64) *Cluster {
	c := &Cluster{
		channel:  channel,
		config:   cfg,
		leader:   0,
		nodes:    make([]*clusterNode, len(operators)),
		installs: installs,
	}
	for i, op := range operators {
		c.nodes[i] = &clusterNode{operator: op}
	}
	c.nodes[0].term = 1
	return c
}

// subscribe registers a block consumer. The list is copied on write, so
// Flush delivers from the slice it read under the lock instead of copying
// it for every block.
func (c *Cluster) subscribe(deliver DeliverFunc) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.subs = append(slices.Clip(c.subs), deliver)
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
	node.mu.Unlock()
	if idx == c.leader {
		c.leader = -1
	}
	return nil
}

// install brings a node level with the leader: the head and the leader's
// term replace its own, at the same cost whatever the chain's height. A
// node that was behind is counted. Caller holds c.mu and n.mu.
func (c *Cluster) install(n *clusterNode, term uint64) {
	if n.pos != c.head {
		c.installs.Add(1)
	}
	n.pos, n.term = c.head, term
}

// leaderTerm reads the serving leader's term. Caller holds c.mu, no node
// lock, and has checked c.leader >= 0.
func (c *Cluster) leaderTerm() uint64 {
	leader := c.nodes[c.leader]
	leader.mu.Lock()
	defer leader.mu.Unlock()
	return leader.term
}

// Restart brings a crashed node back as a follower. With a leader serving
// it installs the leader's position; a node that returns to a leaderless
// cluster keeps its own until the next election brings it level.
func (c *Cluster) Restart(operator string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	idx := c.indexOf(operator)
	if idx < 0 {
		return fmt.Errorf("ordering: unknown node %q", operator)
	}
	var term uint64
	if c.leader >= 0 {
		term = c.leaderTerm()
	}
	node := c.nodes[idx]
	node.mu.Lock()
	node.down = false
	if c.leader >= 0 {
		c.install(node, term)
	}
	node.mu.Unlock()
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

// elect runs a leader election: the first live node with the highest
// committed position that can gather a majority of live votes becomes
// leader at a new term, and every live follower installs its position.
// Returns the new leader's operator.
func (c *Cluster) elect() (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Candidate choice: live node with the highest committed position
	// (Raft's up-to-date restriction), ties broken by node order.
	live, best := 0, -1
	var top position
	var maxTerm uint64
	for i, n := range c.nodes {
		n.mu.Lock()
		if n.term > maxTerm {
			maxTerm = n.term
		}
		if !n.down {
			live++
			if best < 0 || n.pos.height > top.height {
				best, top = i, n.pos
			}
		}
		n.mu.Unlock()
	}
	if live < len(c.nodes)/2+1 {
		c.leader = -1
		return "", fmt.Errorf("%w: %d of %d nodes live", ErrNoQuorum, live, len(c.nodes))
	}
	// A commit needed a majority and so did this election, so the winner
	// stands where the quorum left off and ordering resumes exactly there.
	c.head = top
	// Every live follower installs the winner's position: a node that came
	// back while the cluster was leaderless must not acknowledge entries
	// (or stand in a later election) from a position it never reached.
	newTerm := maxTerm + 1
	for _, n := range c.nodes {
		n.mu.Lock()
		if !n.down {
			c.install(n, newTerm)
		}
		n.mu.Unlock()
	}
	c.leader = best
	return c.nodes[best].operator, nil
}

// submit queues a transaction with the current leader.
func (c *Cluster) submit(tx ledger.Transaction) error {
	if err := tx.Validate(); err != nil {
		return fmt.Errorf("cluster submit: %w", err)
	}
	// The digest is needed from here on — the observation ID, the block
	// data hash at cut time, every queue scan (cancelPending) — and each
	// unprimed use hashes the whole payload. Prime it once at intake,
	// outside the cluster lock; a no-op for a transaction the gateway
	// already primed from the sum its chain carried.
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
	if len(c.pending) == cap(c.pending) {
		// The chunk is full: the queue moves to a new one, taking what is
		// not cut yet. The old chunk stays with the blocks cut from it.
		next := make([]ledger.Transaction, len(c.pending), max(pendingChunk, 2*len(c.pending)))
		copy(next, c.pending)
		c.pending = next
	}
	c.pending = append(c.pending, tx)
	ready := len(c.pending) >= c.batch
	c.mu.Unlock()
	c.observe(tx)
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

// cancelPending removes one queued instance of tx (matched by digest) from
// the pending queue, reporting whether it was still there. A failover driver
// calls this when its election failed: the submission is withdrawn so the
// error it returns means "not ordered" — unless a racing failover already
// flushed the queue, in which case the transaction was sequenced after all.
// The queue is primed at intake, so the scan reads memos and allocates
// nothing; the caller's copy may be unprimed and is hashed once, outside the
// lock.
func (c *Cluster) cancelPending(tx ledger.Transaction) bool {
	d := tx.Digest()
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.pending {
		if c.pending[i].Digest() == d {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			return true
		}
	}
	return false
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
		Height:   c.head.height,
		LastHash: c.head.hash,
		Pending:  append([]ledger.Transaction(nil), c.pending...),
	}
}

// adoptState seeds a freshly constructed cluster with chain state imported
// from another shard: every node starts at the imported position, so block
// numbering and hash chaining continue from it — including across later
// elections, which read the winner's position like any other.
func (c *Cluster) adoptState(st ChannelState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.head = position{height: st.Height, hash: st.LastHash}
	for _, n := range c.nodes {
		n.mu.Lock()
		n.pos = c.head
		n.mu.Unlock()
	}
	c.pending = append([]ledger.Transaction(nil), st.Pending...)
}

// observe records what the operator of every live node learns from an
// accepted submission; where the operators are channel members this
// confines rather than creates the leak. It takes no cluster lock: the node
// list never changes and the log synchronizes itself.
func (c *Cluster) observe(tx ledger.Transaction) {
	hexID := tx.HexID()
	id := string(hexID[:]) // the log copies it: no heap string
	for _, n := range c.nodes {
		n.mu.Lock()
		down := n.down
		n.mu.Unlock()
		if down {
			continue
		}
		// Envelope metadata is visible at any level.
		c.log.Record(n.operator, audit.ClassTxMetadata, id)
		if c.visibility != VisibilityFull {
			continue
		}
		// Full visibility: the operator learns the parties to the
		// transaction and its content (§3.4).
		c.log.Record(n.operator, audit.ClassTxData, id)
		c.log.Record(n.operator, audit.ClassIdentity, tx.Creator)
		for _, e := range tx.Endorsements {
			c.log.Record(n.operator, audit.ClassIdentity, e.Party)
			c.log.Record(n.operator, audit.ClassRelationship, tx.Creator+"<->"+e.Party)
		}
	}
}

// Flush orders pending transactions: the leader cuts a block, replicates
// it to the live followers as an uncommitted entry, and on majority
// acknowledgement every node that holds the entry folds it into its
// position; only then is the block delivered to subscribers. No block is
// cut for a channel nobody subscribed to: the queue is kept.
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
	if len(c.subs) == 0 {
		c.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNoSubscribers, c.channel)
	}
	// The block takes the whole queue, capacity clipped: a subscriber
	// appending to its Txs reallocates instead of writing into the queue.
	// c.mu is held until the block commits or rolls back, so the queue is
	// not touched in between and a rollback leaves it as it is.
	cut := len(c.pending)
	block := ledger.NewBlock(c.head.height, c.head.hash, c.pending[:cut:cut])
	term := c.leaderTerm()
	entry := logEntry{term: term, block: block}

	// Replicate: every live node, the leader among them, takes the entry
	// and acknowledges it. A node may only acknowledge an entry that
	// extends its own chain, so a follower that is not level with the
	// leader installs the leader's position first.
	acks := 0
	for _, n := range c.nodes {
		n.mu.Lock()
		if !n.down {
			c.install(n, term)
			n.uncommitted = append(n.uncommitted, entry)
			acks++
		}
		n.mu.Unlock()
	}
	// c.mu is held from the append to here, so no node crashed or restarted
	// in between: the nodes holding an entry are the ones that acknowledged.
	quorum := len(c.nodes)/2 + 1
	if acks < quorum {
		// Roll the entry back everywhere; the block is not committed.
		for _, n := range c.nodes {
			n.mu.Lock()
			n.dropUncommitted()
			n.mu.Unlock()
		}
		c.mu.Unlock()
		return fmt.Errorf("%w: %d of %d acks", ErrNoQuorum, acks, quorum)
	}
	c.pending = c.pending[cut:]
	c.head = position{height: block.Number + 1, hash: block.Hash()}
	for _, n := range c.nodes {
		n.mu.Lock()
		if len(n.uncommitted) > 0 {
			n.fold(c.head)
		}
		n.mu.Unlock()
	}
	subs := c.subs
	c.mu.Unlock()

	for _, deliver := range subs {
		if err := deliver(block); err != nil {
			return fmt.Errorf("deliver block %d: %w", block.Number, err)
		}
	}
	return nil
}

// retained returns how many replicated entries the cluster's nodes hold in
// memory right now: one per node while a flush is in flight, none between
// flushes.
func (c *Cluster) retained() int {
	total := 0
	for _, n := range c.nodes {
		n.mu.Lock()
		total += len(n.uncommitted)
		n.mu.Unlock()
	}
	return total
}

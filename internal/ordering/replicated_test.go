package ordering

import (
	"errors"
	"fmt"
	"testing"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/ledger"
)

var clusterOps = []string{"BankA", "SellerCo", "BuyerInc"}

func newCluster(t *testing.T, opts ...Option) (*Cluster, *ledger.Ledger) {
	t.Helper()
	c, err := NewCluster("trade", clusterOps, VisibilityFull, opts...)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	l := ledger.New("trade")
	c.subscribe(l.Append)
	return c, l
}

// errNodeDown is CommittedBlocks' answer for a crashed node.
var errNodeDown = errors.New("ordering: node is down")

// CommittedBlocks returns the chain height one node has committed. It is the
// node's position, so on a cluster that imported its channel it counts the
// blocks cut before the migration too.
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
		return 0, errNodeDown
	}
	return int(n.pos.Height), nil
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

func TestClusterTooSmall(t *testing.T) {
	for _, ops := range [][]string{nil, {"a", "b"}} {
		if _, err := NewCluster("x", ops, VisibilityFull); !errors.Is(err, ErrClusterSize) {
			t.Fatalf("%d-node cluster = %v, want ErrClusterSize", len(ops), err)
		}
		if _, err := NewReplicatedShard(ops, VisibilityFull); !errors.Is(err, ErrClusterSize) {
			t.Fatalf("%d-operator shard = %v, want ErrClusterSize", len(ops), err)
		}
	}
}

func TestClusterOrdersAndReplicates(t *testing.T) {
	c, l := newCluster(t)
	for i := 0; i < 5; i++ {
		if err := c.submit(mkTx("trade", "BankA", fmt.Sprintf("k%d", i))); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	if l.Height() != 5 {
		t.Fatalf("ledger height = %d, want 5", l.Height())
	}
	for _, op := range clusterOps {
		n, err := c.CommittedBlocks(op)
		if err != nil || n != 5 {
			t.Fatalf("node %s committed = %d, %v; want 5", op, n, err)
		}
	}
}

// TestSubmitPrimesDigestAtIntake holds both single-channel backends to
// hash-once for callers that bypass the gateway: what they deliver carries
// the digest computed at intake, equal to the digest of the content. A
// carried digest is a memo read, so it does not follow a change made to the
// delivered copy.
func TestSubmitPrimesDigestAtIntake(t *testing.T) {
	check := func(t *testing.T, submit func(ledger.Transaction) error, subscribe func(DeliverFunc)) {
		var got []ledger.Transaction
		subscribe(func(b ledger.Block) error {
			got = append(got, b.Txs...)
			return nil
		})
		sent := mkTx("trade", "BankA", "k0")
		if err := submit(sent); err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if len(got) != 1 || got[0].Digest() != sent.Digest() {
			t.Fatalf("delivered %d transactions; digest of the first must equal the submitted content's", len(got))
		}
		got[0].Payload = []byte("changed after delivery")
		if got[0].Digest() != sent.Digest() {
			t.Fatal("delivered transaction was not primed at intake")
		}
	}
	t.Run("Cluster", func(t *testing.T) {
		c, err := NewCluster("trade", clusterOps, VisibilityEnvelope)
		if err != nil {
			t.Fatal(err)
		}
		check(t, c.submit, c.subscribe)
	})
	t.Run("Service", func(t *testing.T) {
		s := New("op", VisibilityEnvelope)
		check(t, s.Submit, func(d DeliverFunc) { s.Subscribe("trade", d) })
	})
}

func TestLeaderBootstrap(t *testing.T) {
	c, _ := newCluster(t)
	leader, err := c.Leader()
	if err != nil || leader != "BankA" {
		t.Fatalf("Leader = %q, %v", leader, err)
	}
}

func TestFailoverAfterLeaderCrash(t *testing.T) {
	c, l := newCluster(t)
	if err := c.submit(mkTx("trade", "BankA", "k0")); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := c.Crash("BankA"); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	if _, err := c.Leader(); !errors.Is(err, ErrNoLeader) {
		t.Fatalf("Leader after crash = %v, want ErrNoLeader", err)
	}
	if err := c.submit(mkTx("trade", "SellerCo", "k1")); !errors.Is(err, ErrNoLeader) {
		t.Fatalf("Submit without leader = %v, want ErrNoLeader", err)
	}
	newLeader, err := c.elect()
	if err != nil {
		t.Fatalf("Elect: %v", err)
	}
	if newLeader == "BankA" {
		t.Fatal("crashed node must not win the election")
	}
	// Ordering resumes and the chain continues from the committed state.
	if err := c.submit(mkTx("trade", "SellerCo", "k1")); err != nil {
		t.Fatalf("Submit after failover: %v", err)
	}
	if l.Height() != 2 {
		t.Fatalf("ledger height = %d, want 2", l.Height())
	}
	if err := l.VerifyChain(); err != nil {
		t.Fatalf("chain broken after failover: %v", err)
	}
}

func TestMinorityPartitionLosesLiveness(t *testing.T) {
	c, _ := newCluster(t)
	if err := c.Crash("SellerCo"); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	if err := c.Crash("BuyerInc"); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	// Leader alone cannot reach quorum.
	err := c.submit(mkTx("trade", "BankA", "k"))
	if !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("Submit without quorum = %v, want ErrNoQuorum", err)
	}
	// Election also fails with a minority.
	if err := c.Crash("BankA"); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	if _, err := c.elect(); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("Elect with all down = %v, want ErrNoQuorum", err)
	}
}

func TestQuorumFailureRollsBack(t *testing.T) {
	c, l := newCluster(t)
	_ = c.Crash("SellerCo")
	_ = c.Crash("BuyerInc")
	if err := c.submit(mkTx("trade", "BankA", "k")); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("Submit = %v, want ErrNoQuorum", err)
	}
	if l.Height() != 0 {
		t.Fatal("block must not be delivered without quorum")
	}
	// After the followers return, the pending transaction commits.
	if err := c.Restart("SellerCo"); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	if err := c.Restart("BuyerInc"); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("Flush after recovery: %v", err)
	}
	if l.Height() != 1 {
		t.Fatalf("ledger height = %d, want 1", l.Height())
	}
}

// TestClusterFlushWithoutSubscribersKeepsQueue: a block nobody would receive
// is not cut. The refusal is ErrNoSubscribers, not a leader loss, so a shard
// neither elects nor withdraws the submission, and the queued transactions
// are ordered once somebody subscribes.
func TestClusterFlushWithoutSubscribersKeepsQueue(t *testing.T) {
	c, err := NewCluster("trade", clusterOps, VisibilityFull, WithBatchSize(2))
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	if err := c.submit(mkTx("trade", "BankA", "k0")); err != nil {
		t.Fatalf("Submit below the batch size: %v", err)
	}
	if err := c.Flush(); !errors.Is(err, ErrNoSubscribers) {
		t.Fatalf("Flush without subscribers = %v, want ErrNoSubscribers", err)
	}
	if err := c.submit(mkTx("trade", "BankA", "k1")); !errors.Is(err, ErrNoSubscribers) {
		t.Fatalf("Submit filling the batch = %v, want ErrNoSubscribers", err)
	}
	if c.pendingCount() != 2 || c.height() != 0 || c.retained() != 0 {
		t.Fatalf("pending %d, height %d, retained %d; want the queue of 2 intact and nothing cut",
			c.pendingCount(), c.height(), c.retained())
	}
	for _, op := range clusterOps {
		if n, err := c.CommittedBlocks(op); err != nil || n != 0 {
			t.Fatalf("node %s committed = %d, %v; want 0", op, n, err)
		}
	}
	l := ledger.New("trade")
	c.subscribe(l.Append)
	if err := c.Flush(); err != nil {
		t.Fatalf("Flush with a subscriber: %v", err)
	}
	if b, err := l.Block(0); err != nil || len(b.Txs) != 2 || c.pendingCount() != 0 {
		t.Fatalf("block 0 = %d txs, %v, %d still pending; want both queued transactions", len(b.Txs), err, c.pendingCount())
	}

	rs, err := NewReplicatedShard(clusterOps, VisibilityFull)
	if err != nil {
		t.Fatalf("NewReplicatedShard: %v", err)
	}
	if err := rs.Submit(mkTx("trade", "BankA", "k")); !errors.Is(err, ErrNoSubscribers) {
		t.Fatalf("shard Submit without subscribers = %v, want ErrNoSubscribers", err)
	}
	if rs.Failovers() != 0 || rs.pendingCount("trade") != 1 {
		t.Fatalf("%d failovers, %d pending; want no election and the transaction queued", rs.Failovers(), rs.pendingCount("trade"))
	}
}

func TestRestartCatchesUp(t *testing.T) {
	c, _ := newCluster(t)
	if err := c.Crash("BuyerInc"); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := c.submit(mkTx("trade", "BankA", fmt.Sprintf("k%d", i))); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	if _, err := c.CommittedBlocks("BuyerInc"); !errors.Is(err, errNodeDown) {
		t.Fatalf("down node query = %v, want errNodeDown", err)
	}
	if err := c.Restart("BuyerInc"); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	n, err := c.CommittedBlocks("BuyerInc")
	if err != nil || n != 3 {
		t.Fatalf("restarted node committed = %d, %v; want 3", n, err)
	}
	if got := len(c.LiveNodes()); got != 3 {
		t.Fatalf("LiveNodes = %d, want 3", got)
	}
}

func TestElectionPrefersLongestLog(t *testing.T) {
	c, _ := newCluster(t)
	// Commit one block, then crash a follower so it lags.
	if err := c.submit(mkTx("trade", "BankA", "k0")); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := c.Crash("BuyerInc"); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	if err := c.submit(mkTx("trade", "BankA", "k1")); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Crash the leader; restart the lagging node WITHOUT catch-up being
	// possible (no leader): it must not win against SellerCo.
	if err := c.Crash("BankA"); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	idx := c.indexOf("BuyerInc")
	c.nodes[idx].mu.Lock()
	c.nodes[idx].down = false
	c.nodes[idx].mu.Unlock()
	leader, err := c.elect()
	if err != nil {
		t.Fatalf("Elect: %v", err)
	}
	if leader != "SellerCo" {
		t.Fatalf("leader = %q, want SellerCo (longest committed log)", leader)
	}
}

func TestClusterVisibilityConfinedToMembers(t *testing.T) {
	log := audit.NewHistory()
	c, _ := newCluster(t, WithAuditLog(log))
	tx := mkTx("trade", "BankA", "k")
	if err := c.submit(tx); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	id := tx.ID()
	// All cluster operators (= channel members) see the tx; nobody else
	// appears in the log at all.
	for _, op := range clusterOps {
		if !log.Saw(op, audit.ClassTxData, id) {
			t.Fatalf("member-operator %s must see tx data", op)
		}
	}
	for _, obs := range log.All() {
		found := false
		for _, op := range clusterOps {
			if obs.Observer == op {
				found = true
			}
		}
		if !found {
			t.Fatalf("unexpected observer %q", obs.Observer)
		}
	}
}

func TestClusterBatching(t *testing.T) {
	c, l := newCluster(t, WithBatchSize(3))
	for i := 0; i < 2; i++ {
		if err := c.submit(mkTx("trade", "BankA", fmt.Sprintf("k%d", i))); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	if l.Height() != 0 {
		t.Fatal("batch must not cut early")
	}
	if err := c.submit(mkTx("trade", "BankA", "k2")); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if l.Height() != 1 {
		t.Fatalf("height = %d, want 1", l.Height())
	}
	b, err := l.Block(0)
	if err != nil || len(b.Txs) != 3 {
		t.Fatalf("Block(0) = %d txs, %v", len(b.Txs), err)
	}
}

func TestClusterRejectsInvalidTx(t *testing.T) {
	c, _ := newCluster(t)
	if err := c.submit(ledger.Transaction{Creator: "x"}); err == nil {
		t.Fatal("invalid tx must be rejected")
	}
}

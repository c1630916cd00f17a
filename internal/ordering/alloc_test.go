//go:build !race

package ordering

import (
	"fmt"
	"testing"

	"dltprivacy/internal/ledger"
)

// TestRestartAllocationsFlatInHeight holds the two costs a replica log used
// to let grow with the chain. Over 10,000 blocks, with the leader crashed
// and restarted every 500, no node ever keeps more than the entry in
// flight; and a follower that rejoins a serving leader — the path that once
// copied the leader's whole log — allocates the same at height 10,000 as at
// height 100: nothing. The race detector's own allocations would be counted,
// hence the build tag.
func TestRestartAllocationsFlatInHeight(t *testing.T) {
	c, err := NewCluster("trade", clusterOps, VisibilityEnvelope)
	if err != nil {
		t.Fatal(err)
	}
	cv := &ChainVerifier{}
	c.subscribe(cv.Deliver)
	rejoin := func() float64 {
		leader, err := c.Leader()
		if err != nil {
			t.Fatal(err)
		}
		follower := clusterOps[0]
		if follower == leader {
			follower = clusterOps[1]
		}
		return testing.AllocsPerRun(100, func() {
			if err := c.Crash(follower); err != nil {
				t.Fatal(err)
			}
			if err := c.Restart(follower); err != nil {
				t.Fatal(err)
			}
		})
	}
	var at100 float64
	for i := 1; i <= 10000; i++ {
		if err := c.submit(mkTx("trade", "BankA", fmt.Sprintf("k%d", i))); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		for _, n := range c.nodes {
			if len(n.uncommitted) > 1 {
				t.Fatalf("after %d blocks node %s retains %d entries", i, n.operator, len(n.uncommitted))
			}
		}
		if i == 100 {
			at100 = rejoin()
		}
		if i%500 == 0 {
			leader, err := c.Leader()
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Crash(leader); err != nil {
				t.Fatal(err)
			}
			if err := c.Restart(leader); err != nil {
				t.Fatal(err)
			}
			if _, err := c.elect(); err != nil {
				t.Fatalf("Elect after %d blocks: %v", i, err)
			}
		}
	}
	if err := cv.err(); err != nil {
		t.Fatal(err)
	}
	if cv.tip.Height != 10000 {
		t.Fatalf("delivered %d blocks, want 10000", cv.tip.Height)
	}
	if at10k := rejoin(); at100 != 0 || at10k != 0 {
		t.Fatalf("a follower's crash and restart allocates %v at height 100 and %v at height 10000, want 0 at both", at100, at10k)
	}
}

// TestCancelPendingAllocations holds the failover driver's queue scan to
// digest comparisons: over a queue of primed transactions it allocates
// nothing (it made a hex ID string per entry), and it withdraws exactly one
// instance of a transaction queued twice.
func TestCancelPendingAllocations(t *testing.T) {
	c, err := NewCluster("trade", clusterOps, VisibilityEnvelope, WithBatchSize(64))
	if err != nil {
		t.Fatal(err)
	}
	twice := mkTx("trade", "BankA", "twice")
	for i := 0; i < 32; i++ {
		tx := mkTx("trade", "BankA", fmt.Sprintf("k%d", i))
		if i == 10 || i == 20 {
			tx = twice
		}
		if err := c.submit(tx); err != nil {
			t.Fatal(err)
		}
	}
	// The caller's copy is unprimed, as the failover driver's is; the absent
	// transaction makes every run scan the whole queue.
	absent := mkTx("trade", "BankA", "absent")
	if allocs := testing.AllocsPerRun(100, func() {
		if c.cancelPending(absent) {
			t.Fatal("withdrew a transaction that was never queued")
		}
	}); allocs != 0 {
		t.Fatalf("%v allocations per scan of 32 queued transactions, want 0", allocs)
	}
	if !c.cancelPending(twice) || c.pendingCount() != 31 {
		t.Fatalf("after one withdrawal %d pending, want 31", c.pendingCount())
	}
	if !c.cancelPending(twice) || c.cancelPending(twice) || c.pendingCount() != 30 {
		t.Fatalf("a transaction queued twice: %d pending after withdrawing it twice, want 30 and no third instance", c.pendingCount())
	}
}

// TestQueueChunkAllocations holds a block cut to carving its Txs from the
// queue's chunk and the queue to reusing it: once the first chunk exists,
// 210 one-transaction cuts allocate nothing. After each delivery Flush moves
// the queue back to the chunk's front, so a steady queue never fills it.
// They allocated the 10 chunks they were carved from while no chunk was
// reused, and one slice per block (210) before blocks were carved. The
// transactions are primed beforehand and the subscriber keeps nothing, so
// the chunks are all there is to count.
func TestQueueChunkAllocations(t *testing.T) {
	c, err := NewCluster("trade", clusterOps, VisibilityEnvelope)
	if err != nil {
		t.Fatal(err)
	}
	var next uint64
	c.subscribe(func(b ledger.Block) error {
		if b.Number != next || len(b.Txs) != 1 {
			t.Errorf("block %d with %d transactions, want block %d with 1", b.Number, len(b.Txs), next)
		}
		next++
		return nil
	})
	const cuts = 10 * pendingChunk
	txs := make([]ledger.Transaction, cuts)
	for i := range txs {
		txs[i] = mkTx("trade", "BankA", fmt.Sprintf("k%d", i))
		txs[i].PrimeDigest()
	}
	// AllocsPerRun's warm-up pass makes the first chunk.
	allocs := testing.AllocsPerRun(1, func() {
		for _, tx := range txs {
			if err := c.submit(tx); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per %d one-transaction block cuts, want 0: the queue reuses its chunk of %d", allocs, cuts, pendingChunk)
	}
}

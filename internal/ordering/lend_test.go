package ordering

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dltprivacy/internal/ledger"
)

// TestDeliveredBlockIsLentForTheCall holds the DeliverFunc contract: a
// block's transactions belong to the subscriber only for the call. One that
// keeps them without a copy reads zero values once delivery is over, not
// another block's transactions; one that copies keeps what was cut.
func TestDeliveredBlockIsLentForTheCall(t *testing.T) {
	c, err := NewCluster("trade", clusterOps, VisibilityEnvelope)
	if err != nil {
		t.Fatal(err)
	}
	var lent, copied ledger.Block
	c.subscribe(func(b ledger.Block) error {
		lent = b
		return nil
	})
	c.subscribe(func(b ledger.Block) error {
		copied = b
		copied.Txs = slices.Clone(b.Txs)
		return nil
	})
	sent := mkTx("trade", "BankA", "k0")
	if err := c.submit(sent); err != nil {
		t.Fatal(err)
	}
	if len(lent.Txs) != 1 || !reflect.ValueOf(lent.Txs[0]).IsZero() {
		t.Fatalf("a block kept past its delivery holds %d transactions, want 1 zero transaction: %+v", len(lent.Txs), lent.Txs)
	}
	if len(copied.Txs) != 1 || copied.Txs[0].Digest() != sent.Digest() || string(copied.Txs[0].Payload) != string(sent.Payload) {
		t.Fatalf("a copied block holds %+v, want the transaction submitted", copied.Txs)
	}
}

// TestCopiedBlocksKeepTheChainAcrossChunks has a subscriber copy every block
// it keeps while concurrent submitters queue behind each delivery, and the
// queue moves back to its chunk's front once each delivery has returned.
// The kept chain must be gap-free and hash-linked, each block must hold the
// transactions its data hash was cut over, and every submission must be in
// it exactly once. Under -race it is also the check that no delivery reads
// a part of the chunk the queue has moved back into.
func TestCopiedBlocksKeepTheChainAcrossChunks(t *testing.T) {
	rs, err := NewReplicatedShard(clusterOps, VisibilityEnvelope)
	if err != nil {
		t.Fatal(err)
	}
	var kept []ledger.Block // deliveries are serialized
	rs.Subscribe("trade", func(b ledger.Block) error {
		b.Txs = slices.Clone(b.Txs)
		kept = append(kept, b)
		runtime.Gosched() // let submitters queue behind the delivery
		return nil
	})
	const submitters, each = pendingChunk + 3, 2 * pendingChunk
	var wg sync.WaitGroup
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := rs.Submit(mkTx("trade", fmt.Sprintf("w%d", w), fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[string]bool, submitters*each)
	var tip ledger.Tip
	for _, b := range kept {
		if err := tip.Extend(b); err != nil {
			t.Fatalf("kept chain: %v", err)
		}
		for _, tx := range b.Txs {
			if len(tx.Writes) != 1 {
				t.Fatalf("block %d holds a transaction with %d writes: %+v", b.Number, len(tx.Writes), tx)
			}
			key := tx.Writes[0].Key
			if seen[key] || tx.Digest() != mkTx("trade", tx.Creator, key).Digest() {
				t.Fatalf("block %d: transaction %s kept twice or not as submitted", b.Number, key)
			}
			seen[key] = true
		}
	}
	if len(seen) != submitters*each {
		t.Fatalf("kept %d transactions over %d blocks, want %d", len(seen), len(kept), submitters*each)
	}
}

// TestDeliveredPayloadsAreFreed holds the queue to pinning only what it has
// not ordered yet: after many one-transaction flushes and a collection, every
// delivered transaction's payload is freed, however few of its chunk's
// neighbours have been cut, and the queued ones are alive. Finalizers count
// the frees.
func TestDeliveredPayloadsAreFreed(t *testing.T) {
	c, err := NewCluster("trade", clusterOps, VisibilityEnvelope)
	if err != nil {
		t.Fatal(err)
	}
	cv := &ChainVerifier{}
	c.subscribe(cv.Deliver)
	var freed atomic.Int64
	submit := func(i int) error {
		tx := mkTx("trade", "BankA", fmt.Sprintf("k%d", i))
		payload := new([256]byte)
		runtime.SetFinalizer(payload, func(*[256]byte) { freed.Add(1) })
		tx.Payload = payload[:]
		return c.submit(tx)
	}
	// Not a multiple of the chunk size, so the chunk the queue is in has
	// delivered transactions in it.
	const delivered, queued = 3*pendingChunk + 5, 3
	for i := 0; i < delivered; i++ {
		if err := submit(i); err != nil {
			t.Fatal(err)
		}
	}
	// Two followers down: the leader queues what it can no longer order.
	for _, op := range clusterOps[1:] {
		if err := c.Crash(op); err != nil {
			t.Fatal(err)
		}
	}
	for i := delivered; i < delivered+queued; i++ {
		if err := submit(i); !errors.Is(err, ErrQueuedAwaitingLeader) {
			t.Fatalf("submit without a quorum: %v, want ErrQueuedAwaitingLeader", err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); freed.Load() < delivered && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	runtime.GC()
	time.Sleep(10 * time.Millisecond)
	if got := freed.Load(); got != delivered {
		t.Fatalf("%d payloads freed after %d deliveries with %d transactions queued, want %d", got, delivered, queued, delivered)
	}
	if c.pendingCount() != queued || cv.Txs() != delivered {
		t.Fatalf("%d queued and %d delivered, want %d and %d", c.pendingCount(), cv.Txs(), queued, delivered)
	}
	if err := cv.err(); err != nil {
		t.Fatal(err)
	}
}

// TestGrownChunkIsDropped holds the queue to giving back a chunk it grew for
// a backlog: 45 transactions queued without a quorum move the queue into
// chunks of 42 and then 84, and once the block of the 45 is delivered the
// queue is back in a chunk of pendingChunk, so the grown one is not kept
// for the life of the cluster.
func TestGrownChunkIsDropped(t *testing.T) {
	c, err := NewCluster("trade", clusterOps, VisibilityEnvelope)
	if err != nil {
		t.Fatal(err)
	}
	cv := &ChainVerifier{}
	c.subscribe(cv.Deliver)
	for _, op := range clusterOps[1:] {
		if err := c.Crash(op); err != nil {
			t.Fatal(err)
		}
	}
	const backlog = 45
	for i := 0; i < backlog; i++ {
		if err := c.submit(mkTx("trade", "BankA", fmt.Sprintf("k%d", i))); !errors.Is(err, ErrQueuedAwaitingLeader) {
			t.Fatalf("submit without a quorum: %v, want ErrQueuedAwaitingLeader", err)
		}
	}
	if len(c.chunk) != 4*pendingChunk {
		t.Fatalf("a backlog of %d queued in a chunk of %d, want %d", backlog, len(c.chunk), 4*pendingChunk)
	}
	for _, op := range clusterOps[1:] {
		if err := c.Restart(op); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if cv.Txs() != backlog || c.pendingCount() != 0 {
		t.Fatalf("%d delivered and %d queued, want %d and 0", cv.Txs(), c.pendingCount(), backlog)
	}
	if len(c.chunk) != pendingChunk {
		t.Fatalf("the queue kept its grown chunk of %d after the backlog was delivered, want one of %d", len(c.chunk), pendingChunk)
	}
}

package ordering

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"dltprivacy/internal/ledger"
)

// refCluster is the reference model FuzzClusterModel holds Cluster to: the
// keep-everything replica log Cluster used to be, where every node holds
// every block it committed, a rejoining node copies the leader's whole log
// and height is the imported base plus the log's length. A log is never
// changed in place — flush builds a new one — so nodes may share one.
type refCluster struct {
	base    ChannelState // the imported head; Pending unused
	logs    [][]ledger.Block
	down    []bool
	leader  int
	pending []ledger.Transaction
	batch   int
}

func newRefCluster(nodes, batch int, st ChannelState) *refCluster {
	return &refCluster{base: st, logs: make([][]ledger.Block, nodes), down: make([]bool, nodes),
		pending: slices.Clone(st.Pending), batch: batch}
}

// head is node i's committed height and last hash.
func (r *refCluster) head(i int) ledger.Tip {
	if log := r.logs[i]; len(log) > 0 {
		return ledger.Tip{Height: r.base.Height + uint64(len(log)), Hash: log[len(log)-1].Hash()}
	}
	return r.base.Tip
}

func (r *refCluster) quorum() bool {
	live := 0
	for _, d := range r.down {
		if !d {
			live++
		}
	}
	return live >= len(r.down)/2+1
}

func (r *refCluster) crash(i int) {
	r.down[i] = true
	if r.leader == i {
		r.leader = -1
	}
}

func (r *refCluster) restart(i int) {
	r.down[i] = false
	if r.leader >= 0 {
		r.logs[i] = r.logs[r.leader]
	}
}

func (r *refCluster) elect() error {
	r.leader = -1
	if !r.quorum() {
		return ErrNoQuorum
	}
	for i := range r.logs {
		if !r.down[i] && (r.leader < 0 || len(r.logs[i]) > len(r.logs[r.leader])) {
			r.leader = i
		}
	}
	for i := range r.logs {
		if !r.down[i] {
			r.logs[i] = r.logs[r.leader]
		}
	}
	return nil
}

func (r *refCluster) submit(tx ledger.Transaction) error {
	if r.leader < 0 {
		return ErrNoLeader
	}
	r.pending = append(r.pending, tx)
	if len(r.pending) < r.batch {
		return nil
	}
	return r.flush()
}

// cancel withdraws the first queued instance of tx, as cancelPending does.
func (r *refCluster) cancel(tx ledger.Transaction) bool {
	i := slices.IndexFunc(r.pending, func(p ledger.Transaction) bool { return p.Digest() == tx.Digest() })
	if i >= 0 {
		r.pending = slices.Delete(r.pending, i, i+1)
	}
	return i >= 0
}

func (r *refCluster) flush() error {
	switch {
	case r.leader < 0:
		return ErrNoLeader
	case len(r.pending) == 0:
		return nil
	case !r.quorum():
		return ErrNoQuorum
	}
	at := r.head(r.leader)
	log := append(slices.Clone(r.logs[r.leader]), ledger.NewBlock(at.Height, at.Hash, r.pending))
	r.pending = nil
	for i := range r.logs {
		if !r.down[i] {
			r.logs[i] = log
		}
	}
	return nil
}

// fuzzOps are the operators FuzzClusterModel builds clusters over: the first
// one (the solo orderer), three or all five.
var fuzzOps = append(slices.Clone(clusterOps), "Carrier", "Insurer")

// node is the node a crash or restart op names: one of the first three by
// the op's last digit (first is the digit of node 0), moved on by three when
// the tens digit is odd so a five-node cluster's last two can be reached.
func node(op byte, first, nodes int) int {
	return (int(op%10) - first + 3*(int(op)/10%2)) % nodes
}

// FuzzClusterModel drives a Cluster and the reference model with the same
// tape of operations — submit, withdraw a queued transaction, flush, crash,
// restart, elect, and an export→import into a fresh cluster — and holds
// them to the same chain: no violation at the subscriber, the same head,
// every live node level with the leader, and never more than the in-flight
// entry in a node's memory. A second subscriber checks that every block's
// Txs is handed with its capacity clipped, so appending to it cannot write
// into the queue it was carved from, and keeps a copy of it, since a
// delivered block is lent for the call; at the end the kept blocks must
// extend the imported tip (ledger.Tip.Extend) and each hold what the model
// cut. The tape's first byte picks the batch size and
// the node count: three, one or five.
func FuzzClusterModel(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1})
	// The stale-follower fork: crash C, five blocks, crash A, restart C,
	// elect, a block, crash B, restart A, elect, a block.
	f.Add([]byte{0, 4, 0, 0, 0, 0, 0, 2, 7, 8, 0, 3, 5, 8, 0})
	// A batch of two across a quorum loss, then a migration mid-queue.
	f.Add([]byte{1, 0, 3, 4, 0, 6, 9, 0, 129, 0, 0, 8, 0})
	// The solo orderer: a block, the only node crashes (no leader, then no
	// quorum to elect one), restarts, is elected and resumes at its head.
	f.Add([]byte{3, 0, 2, 0, 8, 5, 0, 8, 0})
	// Five nodes ride out two crashes, lose the quorum at the third with a
	// block in the queue, and commit it once a fourth-listed node is back.
	f.Add([]byte{6, 0, 2, 12, 8, 0, 4, 0, 8, 15, 8, 9, 0})
	// A backlog past the chunk's end: eighteen one-transaction blocks; two
	// followers down while 24 queue, every flush rolled back, so the queue
	// moves into a chunk of 42 at the 22nd; two withdrawn, one from each
	// side of the move; both back; a block of the 22 and a 23rd, after
	// which the grown chunk is dropped; then one-transaction blocks until
	// 63 were kept.
	chunkEnd := append(make([]byte, 1+pendingChunk-3), 3, 4)
	chunkEnd = append(append(chunkEnd, make([]byte, 24)...), 141, 221, 6, 7)
	f.Add(append(chunkEnd, make([]byte, 2*pendingChunk+3)...))
	// A backlog that grows the queue twice with no block cut in between:
	// one chunk's one-transaction blocks and one more; both followers down
	// while 45 transactions queue, so the queue moves into a chunk of 42 at
	// the 22nd and one of 84 at the 43rd; both back, a flush cuts a block of
	// the 45 and the grown chunk is dropped; then one-transaction blocks,
	// four chunks' worth.
	backlog := append(make([]byte, 1+pendingChunk+1), 3, 4)
	backlog = append(append(backlog, make([]byte, 45)...), 6, 7, 9)
	f.Add(append(backlog, make([]byte, 4*pendingChunk)...))
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) == 0 {
			return
		}
		batch := 1 + int(tape[0])%3
		ops := fuzzOps[:[]int{3, 1, 5}[int(tape[0])/3%3]]
		cv := &ChainVerifier{}
		var kept []ledger.Block // since the last import
		var imported ledger.Tip // where the kept blocks start
		build := func(st ChannelState) (*Cluster, *refCluster) {
			c, err := NewCluster("trade", ops, VisibilityEnvelope, WithBatchSize(batch))
			if err != nil {
				t.Fatal(err)
			}
			c.adoptState(st)
			c.subscribe(cv.Deliver)
			kept, imported = kept[:0], st.Tip
			c.subscribe(func(b ledger.Block) error {
				if cap(b.Txs) != len(b.Txs) {
					t.Fatalf("block %d handed with room for %d more transactions in the queue's chunk", b.Number, cap(b.Txs)-len(b.Txs))
				}
				b.Txs = slices.Clone(b.Txs)
				kept = append(kept, b)
				return nil
			})
			return c, newRefCluster(len(ops), batch, st)
		}
		c, ref := build(ChannelState{})
		for step, op := range tape[1:] {
			var got, want error
			switch op % 10 {
			case 0, 1: // twice the weight: chains should grow
				if op >= 128 {
					// Withdraw the queued transaction the tens digit
					// picks, or one never submitted.
					tx := mkTx("trade", "BankA", "absent")
					if len(ref.pending) > 0 {
						tx = ref.pending[int(op)/10%len(ref.pending)]
					}
					if c.cancelPending(tx) != ref.cancel(tx) {
						t.Fatalf("step %d: cancelPending disagrees with the model", step)
					}
					break
				}
				tx := mkTx("trade", "BankA", fmt.Sprintf("k%d", step))
				got, want = c.submit(tx), ref.submit(tx)
			case 2, 3, 4:
				i := node(op, 2, len(ops))
				got = c.Crash(ops[i])
				ref.crash(i)
			case 5, 6, 7:
				i := node(op, 5, len(ops))
				got = c.Restart(ops[i])
				ref.restart(i)
			case 8:
				_, got = c.elect()
				want = ref.elect()
			case 9:
				if op < 128 {
					got, want = c.Flush(), ref.flush()
					break
				}
				st := c.exportState()
				if len(st.Pending) != len(ref.pending) {
					t.Fatalf("step %d: exported %d pending txs, model has %d", step, len(st.Pending), len(ref.pending))
				}
				c, ref = build(st)
			}
			if !errors.Is(got, want) {
				t.Fatalf("step %d (op %d): cluster returned %v, model %v", step, op%10, got, want)
			}

			if err := cv.err(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			// The chain's head is the furthest any node got: the leader's
			// while there is one, the last leader's otherwise.
			var head ledger.Tip
			for i := range ref.logs {
				if at := ref.head(i); i == 0 || at.Height > head.Height {
					head = at
				}
			}
			if c.head != head {
				t.Fatalf("step %d: cluster head at %d, model at %d (hashes equal: %v)",
					step, c.head.Height, head.Height, c.head.Hash == head.Hash)
			}
			if c.leader != ref.leader || c.pendingCount() != len(ref.pending) {
				t.Fatalf("step %d: leader %d with %d pending, model %d with %d",
					step, c.leader, c.pendingCount(), ref.leader, len(ref.pending))
			}
			for i, n := range c.nodes {
				if len(n.uncommitted) > 1 {
					t.Fatalf("step %d: node %d retains %d entries", step, i, len(n.uncommitted))
				}
				if c.leader >= 0 && !n.down && n.pos != c.head {
					t.Fatalf("step %d: live node %d at %d, leader at %d", step, i, n.pos.Height, c.head.Height)
				}
				if n.down != ref.down[i] || n.pos != ref.head(i) {
					t.Fatalf("step %d: node %d down=%v at %d, model down=%v at %d",
						step, i, n.down, n.pos.Height, ref.down[i], ref.head(i).Height)
				}
			}
		}
		var chain []ledger.Block
		for _, log := range ref.logs {
			if len(log) > len(chain) {
				chain = log
			}
		}
		if len(kept) != len(chain) {
			t.Fatalf("kept %d blocks since the last import, model cut %d", len(kept), len(chain))
		}
		// The kept blocks still chain from the import, each hashing to its
		// DataHash from its bytes after later flushes reused the chunk.
		for _, b := range kept {
			if err := imported.Extend(b); err != nil {
				t.Fatalf("kept chain: %v", err)
			}
		}
		for i, b := range kept {
			cut := chain[i].Txs
			if len(b.Txs) != len(cut) {
				t.Fatalf("block %d holds %d transactions, want %d", i, len(b.Txs), len(cut))
			}
			for j := range cut {
				if b.Txs[j].Digest() != cut[j].Digest() {
					t.Fatalf("block %d transaction %d is not the one cut into it", i, j)
				}
			}
		}
	})
}

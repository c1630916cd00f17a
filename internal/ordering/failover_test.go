package ordering

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"dltprivacy/internal/ledger"
	"dltprivacy/internal/telemetry"
)

// newTestReplicatedShard builds a 3-node replicated shard with distinct
// operator names derived from the prefix.
func newTestReplicatedShard(t testing.TB, prefix string) *ReplicatedShard {
	t.Helper()
	ops := []string{prefix + "-a", prefix + "-b", prefix + "-c"}
	rs, err := NewReplicatedShard(ops, VisibilityEnvelope)
	if err != nil {
		t.Fatalf("NewReplicatedShard: %v", err)
	}
	return rs
}

func TestReplicatedShardFailoverOnSubmit(t *testing.T) {
	rs := newTestReplicatedShard(t, "op")
	cl := &ChainVerifier{}
	rs.Subscribe("trade", cl.Deliver)
	for i := 0; i < 3; i++ {
		if err := rs.Submit(mkTx("trade", "BankA", fmt.Sprintf("k%d", i))); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	dead, err := rs.CrashLeader("trade")
	if err != nil {
		t.Fatalf("CrashLeader: %v", err)
	}
	// The next submission rides the automatic election: no error surfaces.
	for i := 3; i < 6; i++ {
		if err := rs.Submit(mkTx("trade", "BankA", fmt.Sprintf("k%d", i))); err != nil {
			t.Fatalf("Submit %d after leader kill: %v", i, err)
		}
	}
	if got := rs.Failovers(); got != 1 {
		t.Fatalf("Failovers = %d, want 1", got)
	}
	c, err := rs.Cluster("trade")
	if err != nil {
		t.Fatalf("Cluster: %v", err)
	}
	leader, err := c.Leader()
	if err != nil {
		t.Fatalf("Leader after failover: %v", err)
	}
	if leader == dead {
		t.Fatalf("leader %s did not change across the kill", leader)
	}
	if cl.Err() != nil {
		t.Fatalf("delivery: %v", cl.Err())
	}
	if cl.txs != 6 || cl.next != 6 {
		t.Fatalf("delivered %d txs over %d blocks, want 6 over 6", cl.txs, cl.next)
	}
}

// TestShardedFailoverSingleFlightElection pins the stampede contract: many
// submitters hitting the same dead leader run exactly one election between
// them.
func TestShardedFailoverSingleFlightElection(t *testing.T) {
	rs := newTestReplicatedShard(t, "op")
	var mu sync.Mutex
	delivered := 0
	rs.Subscribe("trade", func(b ledger.Block) error {
		mu.Lock()
		delivered += len(b.Txs)
		mu.Unlock()
		return nil
	})
	if err := rs.Submit(mkTx("trade", "BankA", "seed")); err != nil {
		t.Fatalf("seed submit: %v", err)
	}
	if _, err := rs.CrashLeader("trade"); err != nil {
		t.Fatalf("CrashLeader: %v", err)
	}
	const nSubmitters = 16
	errs := make([]error, nSubmitters)
	var wg sync.WaitGroup
	for w := 0; w < nSubmitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = rs.Submit(mkTx("trade", "BankA", fmt.Sprintf("w%d", w)))
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("submitter %d: %v", w, err)
		}
	}
	if got := rs.Failovers(); got != 1 {
		t.Fatalf("Failovers = %d, want 1 (single-flight)", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if delivered != nSubmitters+1 {
		t.Fatalf("delivered %d txs, want %d", delivered, nSubmitters+1)
	}
}

// TestReplicatedShardQuorumLossCancelsSubmission pins the client contract
// when failover itself fails: the error means "not ordered" — the queued
// transaction is withdrawn, and a later successful submission delivers it
// exactly once.
func TestReplicatedShardQuorumLossCancelsSubmission(t *testing.T) {
	rs := newTestReplicatedShard(t, "op")
	cl := &ChainVerifier{}
	rs.Subscribe("trade", cl.Deliver)
	if err := rs.Submit(mkTx("trade", "BankA", "seed")); err != nil {
		t.Fatalf("seed submit: %v", err)
	}
	c, err := rs.Cluster("trade")
	if err != nil {
		t.Fatalf("Cluster: %v", err)
	}
	// Crash both followers: the leader is alive but cannot replicate.
	leader, err := c.Leader()
	if err != nil {
		t.Fatalf("Leader: %v", err)
	}
	var downed []string
	for _, op := range rs.Operators() {
		if op != leader {
			if err := c.Crash(op); err != nil {
				t.Fatalf("Crash %s: %v", op, err)
			}
			downed = append(downed, op)
		}
	}
	if err := rs.Submit(mkTx("trade", "BankA", "lost")); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("Submit without quorum = %v, want ErrNoQuorum", err)
	}
	if n := c.Pending(); n != 0 {
		t.Fatalf("failed submission left %d txs queued, want 0", n)
	}
	for _, op := range downed {
		if err := c.Restart(op); err != nil {
			t.Fatalf("Restart %s: %v", op, err)
		}
	}
	if err := rs.Submit(mkTx("trade", "BankA", "after")); err != nil {
		t.Fatalf("Submit after restart: %v", err)
	}
	if cl.Err() != nil {
		t.Fatalf("delivery: %v", cl.Err())
	}
	if cl.txs != 2 {
		t.Fatalf("delivered %d txs, want 2 (cancelled tx must not resurface)", cl.txs)
	}
}

func TestReplicatedShardKillAndRevive(t *testing.T) {
	rs := newTestReplicatedShard(t, "op")
	cl := &ChainVerifier{}
	rs.Subscribe("trade", cl.Deliver)
	for i := 0; i < 3; i++ {
		if err := rs.Submit(mkTx("trade", "BankA", fmt.Sprintf("k%d", i))); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	rs.Kill()
	if err := rs.Submit(mkTx("trade", "BankA", "down")); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("Submit on killed shard = %v, want ErrNoQuorum", err)
	}
	rs.Revive()
	for i := 3; i < 6; i++ {
		if err := rs.Submit(mkTx("trade", "BankA", fmt.Sprintf("k%d", i))); err != nil {
			t.Fatalf("Submit %d after revive: %v", i, err)
		}
	}
	if cl.Err() != nil {
		t.Fatalf("delivery: %v", cl.Err())
	}
	// The chain resumed at its pre-kill height: 6 delivered txs, blocks in
	// order, and the rejected submission never resurfaced.
	if cl.txs != 6 {
		t.Fatalf("delivered %d txs, want 6", cl.txs)
	}
}

func TestReplicatedShardProbeHealth(t *testing.T) {
	rs := newTestReplicatedShard(t, "op")
	rs.Subscribe("trade", func(ledger.Block) error { return nil })
	if err := rs.Submit(mkTx("trade", "BankA", "seed")); err != nil {
		t.Fatalf("seed submit: %v", err)
	}
	if n := rs.ProbeHealth(); n != 0 {
		t.Fatalf("ProbeHealth on healthy shard ran %d elections, want 0", n)
	}
	if _, err := rs.CrashLeader("trade"); err != nil {
		t.Fatalf("CrashLeader: %v", err)
	}
	if n := rs.ProbeHealth(); n != 1 {
		t.Fatalf("ProbeHealth = %d elections, want 1", n)
	}
	c, err := rs.Cluster("trade")
	if err != nil {
		t.Fatalf("Cluster: %v", err)
	}
	if _, err := c.Leader(); err != nil {
		t.Fatalf("no leader after probe: %v", err)
	}
	if got := rs.Failovers(); got != 1 {
		t.Fatalf("Failovers = %d, want 1", got)
	}
}

// TestShardedDeliveryOrderAcrossLeaderKill extends the delivery-order
// anchor suite with mid-stream shard death: while concurrent submitters
// drive traffic across channels on a replicated sharded topology, cluster
// leaders are killed between submissions. Failovers must be invisible to
// order: every channel still sees a gap-free, duplicate-free block
// sequence with an intact hash chain, and no submission is lost.
func TestShardedDeliveryOrderAcrossLeaderKill(t *testing.T) {
	const nShards = 4
	shards := make([]Backend, nShards)
	replicated := make([]*ReplicatedShard, nShards)
	for i := range shards {
		rs := newTestReplicatedShard(t, fmt.Sprintf("shard%d", i))
		shards[i] = rs
		replicated[i] = rs
	}
	sb, err := NewSharded(shards)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	const (
		nChannels   = 8
		nSubmitters = 8
		perSubmit   = 30
	)
	logs := make([]*ChainVerifier, nChannels)
	channels := make([]string, nChannels)
	for i := range channels {
		channels[i] = fmt.Sprintf("ch-%02d", i)
		cl := &ChainVerifier{}
		logs[i] = cl
		// Delivery for one channel is serialized by its cluster (and across
		// a failover by the election holding the cluster lock), so the
		// unguarded ChainVerifier is itself part of what -race verifies.
		sb.Subscribe(channels[i], cl.Deliver)
	}
	var wg sync.WaitGroup
	submitErrs := make([]error, nSubmitters)
	for w := 0; w < nSubmitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perSubmit; i++ {
				ch := channels[(w+i)%nChannels]
				if err := sb.Submit(mkTx(ch, "Creator", fmt.Sprintf("w%d-i%d", w, i))); err != nil {
					submitErrs[w] = fmt.Errorf("submit %d: %w", i, err)
					return
				}
			}
		}(w)
	}
	// The killer: between submissions, repeatedly crash the current leader
	// of each channel's cluster and restart the dead node (it rejoins as a
	// follower), so quorum is never lost but leadership keeps failing over
	// mid-stream.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 6; round++ {
			ch := channels[round%nChannels]
			rs := replicated[sb.ShardFor(ch)]
			dead, err := rs.CrashLeader(ch)
			if err != nil {
				continue // no leader this instant: a failover is in flight
			}
			c, err := rs.Cluster(ch)
			if err == nil {
				_ = c.Restart(dead)
			}
		}
	}()
	wg.Wait()
	for w, err := range submitErrs {
		if err != nil {
			t.Fatalf("submitter %d: %v", w, err)
		}
	}
	// Drain anything a mid-flush kill left queued.
	for _, rs := range replicated {
		rs.ProbeHealth()
	}
	for _, ch := range channels {
		rs := replicated[sb.ShardFor(ch)]
		c, err := rs.Cluster(ch)
		if err != nil {
			t.Fatalf("Cluster %s: %v", ch, err)
		}
		if err := c.Flush(); err != nil && !errors.Is(err, ErrNoLeader) {
			t.Fatalf("drain %s: %v", ch, err)
		}
	}
	total := 0
	var failovers uint64
	for i, cl := range logs {
		if cl.Err() != nil {
			t.Fatalf("channel %s: %v", channels[i], cl.Err())
		}
		total += cl.txs
	}
	for _, rs := range replicated {
		failovers += rs.Failovers()
	}
	if want := nSubmitters * perSubmit; total != want {
		t.Fatalf("delivered %d txs in total, want %d", total, want)
	}
	if failovers == 0 {
		t.Fatalf("no failovers ran; the kill loop never hit a live leader")
	}
}

// scrapeShard0 reads one shard="0" sample out of the registry's Prometheus
// exposition.
func scrapeShard0(t *testing.T, reg *telemetry.Registry, family string) uint64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	prefix := family + `{shard="0"} `
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, prefix); ok {
			v, err := strconv.ParseUint(rest, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("no %s sample for shard 0 in:\n%s", family, buf.String())
	return 0
}

// TestStaleFollowerCannotForkChain is the fork a kept log used to hide: a
// follower that restarts while the cluster is leaderless is level with
// nobody, yet it acknowledged entries and stood in elections as if it were.
// Here it misses five blocks, comes back leaderless, sees one more commit,
// and then faces the old leader — who once beat its 1 with 5 and cut block 5
// a second time.
func TestStaleFollowerCannotForkChain(t *testing.T) {
	rs := newTestReplicatedShard(t, "op")
	sb, err := NewSharded([]Backend{rs})
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	reg := telemetry.NewRegistry()
	if err := sb.RegisterMetrics(reg); err != nil {
		t.Fatalf("RegisterMetrics: %v", err)
	}
	cv := &ChainVerifier{}
	sb.Subscribe("trade", cv.Deliver)
	c, err := rs.Cluster("trade")
	if err != nil {
		t.Fatalf("Cluster: %v", err)
	}
	step := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	elect := func(want string) {
		t.Helper()
		got, err := c.Elect()
		if err != nil || got != want {
			t.Fatalf("Elect = %q, %v; want %q", got, err, want)
		}
	}
	submit := func(key string) {
		t.Helper()
		step("Submit "+key, sb.Submit(mkTx("trade", "BankA", key)))
	}

	step("Crash op-c", c.Crash("op-c"))
	for i := 0; i < 5; i++ {
		submit(fmt.Sprintf("k%d", i))
	}
	step("Crash op-a", c.Crash("op-a")) // the leader
	step("Restart op-c", c.Restart("op-c"))
	elect("op-b")
	if got := scrapeShard0(t, reg, "confmw_shard_position_installs_total"); got != 1 {
		t.Fatalf("position installs after the election = %d, want 1 (op-c brought level)", got)
	}
	submit("k5")
	step("Crash op-b", c.Crash("op-b"))
	step("Restart op-a", c.Restart("op-a"))
	// op-c stands at 6, op-a at 5: the node that saw every commit wins.
	elect("op-c")
	submit("k6")

	if err := cv.Err(); err != nil {
		t.Fatalf("chain forked: %v", err)
	}
	if cv.next != 7 || cv.txs != 7 {
		t.Fatalf("delivered %d txs over %d blocks, want 7 over 7", cv.txs, cv.next)
	}
	for _, op := range []string{"op-a", "op-c"} {
		if n, err := c.CommittedBlocks(op); err != nil || n != 7 {
			t.Fatalf("node %s committed = %d, %v; want 7", op, n, err)
		}
	}
	if got := scrapeShard0(t, reg, "confmw_shard_position_installs_total"); got != 2 {
		t.Fatalf("position installs = %d, want 2 (op-c, then op-a)", got)
	}
	if got := scrapeShard0(t, reg, "confmw_shard_replica_entries"); got > 3 {
		t.Fatalf("replicas retain %d entries, want at most one per node", got)
	}
}

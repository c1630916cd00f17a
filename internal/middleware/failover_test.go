package middleware

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dltprivacy/internal/ledger"
	"dltprivacy/internal/ordering"
)

// mkShardTx builds a minimal transaction for driving an ordering backend
// directly (bypassing the gateway chain).
func mkShardTx(channel, key string) ledger.Transaction {
	return ledger.Transaction{
		Channel:   channel,
		Creator:   "BankA",
		Payload:   []byte("payload"),
		Writes:    []ledger.Write{{Key: key, Value: []byte("v")}},
		Timestamp: time.Unix(1700000000, 0).UTC(),
	}
}

// newReplicatedShardedOrderer builds an n-shard topology of 3-node
// replicated shards, and the shards themselves by index.
func newReplicatedShardedOrderer(t testing.TB, n int) (*ordering.ShardedBackend, []*ordering.ReplicatedShard) {
	t.Helper()
	shards := make([]ordering.Backend, n)
	replicated := make([]*ordering.ReplicatedShard, n)
	for i := range shards {
		rs, err := ordering.NewReplicatedShard(
			[]string{
				fmt.Sprintf("shard%d-a", i),
				fmt.Sprintf("shard%d-b", i),
				fmt.Sprintf("shard%d-c", i),
			}, ordering.VisibilityEnvelope)
		if err != nil {
			t.Fatalf("NewReplicatedShard: %v", err)
		}
		shards[i], replicated[i] = rs, rs
	}
	sb, err := ordering.NewSharded(shards)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	return sb, replicated
}

// TestGatewayShardedSubmitAcrossFailover wires the whole story: a gateway
// over replicated shards keeps accepting submissions while a shard leader
// is killed mid-run, with zero failures surfaced to clients.
func TestGatewayShardedSubmitAcrossFailover(t *testing.T) {
	sb, replicated := newReplicatedShardedOrderer(t, 2)
	cfg := Config{Stages: auditOnly, Shards: 2}
	gw, err := NewGateway("gw", cfg, auditEnv(), sb)
	if err != nil {
		t.Fatalf("NewGateway: %v", err)
	}
	const ch = "deals"
	sink := &countingSink{name: "sink"}
	gw.Bind(ch, sink)

	rs := replicated[sb.ShardFor(ch)]

	var mu sync.Mutex
	submit := func(i int) error {
		mu.Lock()
		defer mu.Unlock()
		_, err := frontOf(gw).submit(&Request{
			Channel: ch, Principal: "Alice", Payload: []byte(fmt.Sprintf("p-%d", i)),
		})
		return err
	}
	for i := 0; i < 5; i++ {
		if err := submit(i); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	if _, err := rs.CrashLeader(ch); err != nil {
		t.Fatalf("CrashLeader: %v", err)
	}
	for i := 5; i < 10; i++ {
		if err := submit(i); err != nil {
			t.Fatalf("Submit %d across failover: %v", i, err)
		}
	}
	if rs.Failovers() != 1 {
		t.Fatalf("Failovers = %d, want 1", rs.Failovers())
	}
	if sink.txs != 10 {
		t.Fatalf("committed %d txs, want 10", sink.txs)
	}
	stats := gw.Stats()
	if stats.Rejected != 0 {
		t.Fatalf("gateway rejected %d submissions during failover", stats.Rejected)
	}
	for _, st := range stats.Shards {
		if st.Failovers > 0 && st.OwnedChannels == 0 {
			t.Fatalf("failover counted on a shard owning no channels: %+v", st)
		}
	}
}

// TestGatewayShardRebalanceTopic drives the shard.rebalance admin topic
// through ServeWire: a manual migration moves a live channel,
// and a skew pass reports (and performs) automatic moves.
func TestGatewayShardRebalanceTopic(t *testing.T) {
	sb := newShardedOrderer(t, 2)
	cfg := Config{Stages: auditOnly, Shards: 2}
	gw, err := NewGateway("gw", cfg, auditEnv(), sb)
	if err != nil {
		t.Fatalf("NewGateway: %v", err)
	}
	w := frontOf(gw)

	// Live traffic on two channels, both forced onto shard 0.
	channels := []string{"deals-a", "deals-b"}
	for i, ch := range channels {
		if err := sb.Pin(ch, 0); err != nil {
			t.Fatalf("Pin: %v", err)
		}
		sb.Subscribe(ch, func(ledger.Block) error { return nil })
		for j := 0; j < (i+1)*10; j++ {
			if err := sb.Submit(mkShardTx(ch, fmt.Sprintf("%s-%d", ch, j))); err != nil {
				t.Fatalf("Submit: %v", err)
			}
		}
	}

	// Manual move.
	notice, err := w.rebalance(RebalanceRequest{Channel: channels[0], To: 1})
	if err != nil {
		t.Fatalf("rebalance(manual): %v", err)
	}
	if len(notice.Migrations) != 1 || notice.Migrations[0].To != 1 || notice.Migrations[0].Channel != channels[0] {
		t.Fatalf("manual move notice = %+v", notice)
	}
	if got := sb.ShardFor(channels[0]); got != 1 {
		t.Fatalf("ShardFor after manual move = %d, want 1", got)
	}
	// Repeating the move is a no-op, reported as such.
	notice, err = w.rebalance(RebalanceRequest{Channel: channels[0], To: 1})
	if err != nil {
		t.Fatalf("rebalance(repeat): %v", err)
	}
	if len(notice.Migrations) != 0 {
		t.Fatalf("repeated move reported migrations: %+v", notice)
	}

	// Skew pass: loads are now 20 on shard 0 (deals-b) vs 10 on shard 1, a
	// single-channel hot shard — nothing to move without relocating the
	// hotspot, so the pass reports no migrations but succeeds.
	notice, err = w.rebalance(RebalanceRequest{Skew: 1.2})
	if err != nil {
		t.Fatalf("rebalance(skew): %v", err)
	}
	if len(notice.Migrations) != 0 {
		t.Fatalf("skew pass on single-channel shard moved %+v", notice.Migrations)
	}

	// An unsharded gateway refuses the topic.
	solo, err := NewGateway("solo", Config{Stages: auditOnly}, auditEnv(),
		ordering.New("op", ordering.VisibilityEnvelope))
	if err != nil {
		t.Fatalf("NewGateway(solo): %v", err)
	}
	if _, err := frontOf(solo).rebalance(RebalanceRequest{}); err == nil {
		t.Fatal("unsharded gateway accepted shard.rebalance")
	}
}

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

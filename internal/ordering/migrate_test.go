package ordering

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dltprivacy/internal/ledger"
)

func TestServiceExportImportRoundTrip(t *testing.T) {
	src := New("op-src", VisibilityEnvelope)
	cl := &ChainVerifier{}
	src.Subscribe("trade", cl.Deliver)
	for i := 0; i < 3; i++ {
		if err := src.Submit(mkTx("trade", "BankA", fmt.Sprintf("k%d", i))); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	st, err := src.ExportChannel("trade")
	if err != nil {
		t.Fatalf("ExportChannel: %v", err)
	}
	if st.Height != 3 {
		t.Fatalf("exported Height = %d, want 3", st.Height)
	}
	if st.LastHash != cl.lastHash {
		t.Fatalf("exported LastHash does not match the last delivered block")
	}
	// The export removed the channel: the source shard can no longer fork it.
	if h := src.Height("trade"); h != 0 {
		t.Fatalf("source Height after export = %d, want 0", h)
	}
	if _, err := src.ExportChannel("trade"); !errors.Is(err, ErrUnknownChannel) {
		t.Fatalf("second export = %v, want ErrUnknownChannel", err)
	}

	dst := New("op-dst", VisibilityEnvelope)
	if err := dst.ImportChannel("trade", st); err != nil {
		t.Fatalf("ImportChannel: %v", err)
	}
	dst.Subscribe("trade", cl.Deliver)
	if err := dst.Submit(mkTx("trade", "BankA", "k3")); err != nil {
		t.Fatalf("Submit on target: %v", err)
	}
	if cl.Err() != nil {
		t.Fatalf("delivery: %v", cl.Err())
	}
	// Block 3 chained onto the exported head: numbering and hashing continue.
	if cl.next != 4 || cl.txs != 4 {
		t.Fatalf("delivered %d blocks / %d txs, want 4 / 4", cl.next, cl.txs)
	}
}

func TestServiceImportRefusesLiveChannel(t *testing.T) {
	svc := New("op", VisibilityEnvelope)
	svc.Subscribe("trade", func(ledger.Block) error { return nil })
	if err := svc.Submit(mkTx("trade", "BankA", "k0")); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	err := svc.ImportChannel("trade", ChannelState{Height: 7})
	if !errors.Is(err, ErrChannelExists) {
		t.Fatalf("import over live channel = %v, want ErrChannelExists", err)
	}
}

func TestReplicatedShardExportImportRoundTrip(t *testing.T) {
	ops := []string{"a", "b", "c"}
	src, err := NewReplicatedShard(ops, VisibilityEnvelope)
	if err != nil {
		t.Fatalf("NewReplicatedShard: %v", err)
	}
	cl := &ChainVerifier{}
	src.Subscribe("trade", cl.Deliver)
	for i := 0; i < 2; i++ {
		if err := src.Submit(mkTx("trade", "BankA", fmt.Sprintf("k%d", i))); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	st, err := src.ExportChannel("trade")
	if err != nil {
		t.Fatalf("ExportChannel: %v", err)
	}
	if st.Height != 2 {
		t.Fatalf("exported Height = %d, want 2", st.Height)
	}
	dst, err := NewReplicatedShard([]string{"x", "y", "z"}, VisibilityEnvelope)
	if err != nil {
		t.Fatalf("NewReplicatedShard: %v", err)
	}
	if err := dst.ImportChannel("trade", st); err != nil {
		t.Fatalf("ImportChannel: %v", err)
	}
	if err := dst.ImportChannel("trade", st); !errors.Is(err, ErrChannelExists) {
		t.Fatalf("double import = %v, want ErrChannelExists", err)
	}
	dst.Subscribe("trade", cl.Deliver)
	if err := dst.Submit(mkTx("trade", "BankA", "k2")); err != nil {
		t.Fatalf("Submit on target: %v", err)
	}
	if cl.Err() != nil {
		t.Fatalf("delivery: %v", cl.Err())
	}
	if cl.next != 3 {
		t.Fatalf("chain height after import = %d, want 3", cl.next)
	}
}

// TestShardedMigrateLiveChannel is the end-to-end wire of the tentpole: a
// channel with committed history and a live subscription moves between
// shards and the subscriber sees one continuous chain.
func TestShardedMigrateLiveChannel(t *testing.T) {
	sb := newTestSharded(t, 2)
	const ch = "trade.settlement"
	if err := sb.Pin(ch, sb.ShardFor(ch)); err != nil {
		t.Fatalf("Pin: %v", err)
	}
	cl := &ChainVerifier{}
	sb.Subscribe(ch, cl.Deliver)
	from := sb.ShardFor(ch)
	to := 1 - from
	for i := 0; i < 5; i++ {
		if err := sb.Submit(mkTx(ch, "BankA", fmt.Sprintf("k%d", i))); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	if err := sb.Migrate(ch, to); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	if got := sb.ShardFor(ch); got != to {
		t.Fatalf("ShardFor after migrate = %d, want %d", got, to)
	}
	for i := 5; i < 10; i++ {
		if err := sb.Submit(mkTx(ch, "BankA", fmt.Sprintf("k%d", i))); err != nil {
			t.Fatalf("Submit %d after migrate: %v", i, err)
		}
	}
	if cl.Err() != nil {
		t.Fatalf("delivery: %v", cl.Err())
	}
	if cl.next != 10 || cl.txs != 10 {
		t.Fatalf("delivered %d blocks / %d txs, want 10 / 10", cl.next, cl.txs)
	}
	stats := sb.Stats()
	if stats[to].MigratedIn != 1 {
		t.Fatalf("shard %d MigratedIn = %d, want 1", to, stats[to].MigratedIn)
	}
	if stats[to].OwnedChannels != 1 || stats[from].OwnedChannels != 0 {
		t.Fatalf("owned channels = %d/%d, want 1/0", stats[to].OwnedChannels, stats[from].OwnedChannels)
	}
	// The pin followed the channel.
	if stats[to].PinnedChannels != 1 || stats[from].PinnedChannels != 0 {
		t.Fatalf("pinned channels = %d/%d, want 1/0", stats[to].PinnedChannels, stats[from].PinnedChannels)
	}
	if sb.Migrations() != 1 {
		t.Fatalf("Migrations = %d, want 1", sb.Migrations())
	}
	// The source shard no longer holds the chain.
	src, err := sb.Shard(from)
	if err != nil {
		t.Fatalf("Shard(%d): %v", from, err)
	}
	if h := src.(*Service).Height(ch); h != 0 {
		t.Fatalf("source shard still reports height %d for %s", h, ch)
	}
}

func TestShardedMigrateRefusals(t *testing.T) {
	sb := newTestSharded(t, 2)
	if err := sb.Migrate("ch", 5); !errors.Is(err, ErrBadShard) {
		t.Fatalf("out-of-range target = %v, want ErrBadShard", err)
	}
	if err := sb.Migrate("never-seen", 1); !errors.Is(err, ErrUnknownChannel) {
		t.Fatalf("unknown channel = %v, want ErrUnknownChannel", err)
	}
	sb.Subscribe("ch", func(ledger.Block) error { return nil })
	if err := sb.Submit(mkTx("ch", "BankA", "k0")); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := sb.Migrate("ch", sb.ShardFor("ch")); err != nil {
		t.Fatalf("same-shard migrate = %v, want nil no-op", err)
	}
	if sb.Migrations() != 0 {
		t.Fatalf("no-op migrate counted: Migrations = %d", sb.Migrations())
	}
}

// stubBackend is a Backend that cannot migrate channels.
type stubBackend struct{ svc *Service }

func (s stubBackend) Submit(tx ledger.Transaction) error { return s.svc.Submit(tx) }
func (s stubBackend) Subscribe(channel string, deliver DeliverFunc) {
	s.svc.Subscribe(channel, deliver)
}
func (s stubBackend) Operators() []string { return s.svc.Operators() }

func TestShardedMigrateRequiresMigratableShards(t *testing.T) {
	shards := []Backend{
		stubBackend{svc: New("op-0", VisibilityEnvelope)},
		New("op-1", VisibilityEnvelope),
	}
	sb, err := NewSharded(shards)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	sb.Subscribe("ch", func(ledger.Block) error { return nil })
	if err := sb.Submit(mkTx("ch", "BankA", "k0")); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	from := sb.ShardFor("ch")
	if err := sb.Migrate("ch", 1-from); !errors.Is(err, ErrNotMigratable) {
		t.Fatalf("migrate off a non-migratable shard = %v, want ErrNotMigratable", err)
	}
}

// TestShardedMigrateUnderConcurrentSubmitters hammers one channel from many
// goroutines while it migrates back and forth between two replicated
// shards. The migration gate must make every move invisible: no submission
// fails, and the channel's block sequence stays gap-free and
// duplicate-free under -race.
func TestShardedMigrateUnderConcurrentSubmitters(t *testing.T) {
	shards := make([]Backend, 2)
	for i := range shards {
		shards[i] = newTestReplicatedShard(t, fmt.Sprintf("shard%d", i))
	}
	sb, err := NewSharded(shards)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	const ch = "hot.channel"
	cl := &ChainVerifier{}
	sb.Subscribe(ch, cl.Deliver)
	const (
		nSubmitters = 6
		perSubmit   = 40
		nMigrations = 6
	)
	var wg sync.WaitGroup
	submitErrs := make([]error, nSubmitters)
	for w := 0; w < nSubmitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perSubmit; i++ {
				if err := sb.Submit(mkTx(ch, "BankA", fmt.Sprintf("w%d-i%d", w, i))); err != nil {
					submitErrs[w] = fmt.Errorf("submit %d: %w", i, err)
					return
				}
			}
		}(w)
	}
	migrateErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		target := 1 - sb.ShardFor(ch)
		for m := 0; m < nMigrations; m++ {
			if err := sb.Migrate(ch, target); err != nil {
				migrateErr <- fmt.Errorf("migration %d to shard %d: %w", m, target, err)
				return
			}
			target = 1 - target
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	select {
	case err := <-migrateErr:
		t.Fatal(err)
	default:
	}
	for w, err := range submitErrs {
		if err != nil {
			t.Fatalf("submitter %d: %v", w, err)
		}
	}
	if cl.Err() != nil {
		t.Fatalf("delivery: %v", cl.Err())
	}
	if want := nSubmitters * perSubmit; cl.txs != want {
		t.Fatalf("delivered %d txs, want %d", cl.txs, want)
	}
	if sb.Migrations() != nMigrations {
		t.Fatalf("Migrations = %d, want %d", sb.Migrations(), nMigrations)
	}
}

// TestShardedMigratedChannelSurvivesElection pins the base-height anchor: a
// channel that migrated with committed history keeps numbering correctly
// even after the receiving cluster later loses its leader and re-elects.
func TestShardedMigratedChannelSurvivesElection(t *testing.T) {
	shards := make([]Backend, 2)
	replicated := make([]*ReplicatedShard, 2)
	for i := range shards {
		rs := newTestReplicatedShard(t, fmt.Sprintf("shard%d", i))
		shards[i] = rs
		replicated[i] = rs
	}
	sb, err := NewSharded(shards)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	const ch = "trade"
	cl := &ChainVerifier{}
	sb.Subscribe(ch, cl.Deliver)
	for i := 0; i < 3; i++ {
		if err := sb.Submit(mkTx(ch, "BankA", fmt.Sprintf("k%d", i))); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	from := sb.ShardFor(ch)
	to := 1 - from
	if err := sb.Migrate(ch, to); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	for i := 3; i < 5; i++ {
		if err := sb.Submit(mkTx(ch, "BankA", fmt.Sprintf("k%d", i))); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	// Kill the leader on the new home; the election must re-derive the
	// chain height from the migrated base, not reset to the local log.
	if _, err := replicated[to].CrashLeader(ch); err != nil {
		t.Fatalf("CrashLeader: %v", err)
	}
	for i := 5; i < 7; i++ {
		if err := sb.Submit(mkTx(ch, "BankA", fmt.Sprintf("k%d", i))); err != nil {
			t.Fatalf("Submit %d after election: %v", i, err)
		}
	}
	if cl.Err() != nil {
		t.Fatalf("delivery: %v", cl.Err())
	}
	if cl.next != 7 || cl.txs != 7 {
		t.Fatalf("delivered %d blocks / %d txs, want 7 / 7", cl.next, cl.txs)
	}
	if replicated[to].Failovers() != 1 {
		t.Fatalf("Failovers = %d, want 1", replicated[to].Failovers())
	}
}

func TestShardedRebalanceOnSkew(t *testing.T) {
	sb := newTestSharded(t, 2)
	if _, err := sb.Rebalance(1.0); err == nil {
		t.Fatalf("Rebalance(1.0) accepted, want error")
	}
	// Four channels, all pinned onto shard 0, with loads 40/30/20/10.
	loads := []int{40, 30, 20, 10}
	channels := make([]string, len(loads))
	for i, n := range loads {
		ch := fmt.Sprintf("skewed-%d", i)
		channels[i] = ch
		if err := sb.Pin(ch, 0); err != nil {
			t.Fatalf("Pin %s: %v", ch, err)
		}
		sb.Subscribe(ch, func(ledger.Block) error { return nil })
		for j := 0; j < n; j++ {
			if err := sb.Submit(mkTx(ch, "BankA", fmt.Sprintf("%s-%d", ch, j))); err != nil {
				t.Fatalf("Submit: %v", err)
			}
		}
	}
	moves, err := sb.Rebalance(1.1)
	if err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	// Pass 1 moves the 40-load channel (60/40); pass 2 can only move the
	// 10-load channel without re-inverting the skew (50/50); then balanced.
	if len(moves) != 2 {
		t.Fatalf("Rebalance performed %d moves (%v), want 2", len(moves), moves)
	}
	if moves[0].Channel != channels[0] || moves[0].To != 1 {
		t.Fatalf("first move = %+v, want %s to shard 1", moves[0], channels[0])
	}
	if moves[1].Channel != channels[3] || moves[1].To != 1 {
		t.Fatalf("second move = %+v, want %s to shard 1", moves[1], channels[3])
	}
	// A balanced topology rebalances to nothing.
	moves, err = sb.Rebalance(1.1)
	if err != nil {
		t.Fatalf("second Rebalance: %v", err)
	}
	if len(moves) != 0 {
		t.Fatalf("balanced topology still moved %v", moves)
	}
}

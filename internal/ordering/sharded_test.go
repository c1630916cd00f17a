package ordering

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"dltprivacy/internal/ledger"
)

// newTestSharded builds a sharded backend over n solo services operated by
// "op-0".."op-n-1".
func newTestSharded(t *testing.T, n int) *ShardedBackend {
	t.Helper()
	shards := make([]Backend, n)
	for i := range shards {
		shards[i] = New(fmt.Sprintf("op-%d", i), VisibilityEnvelope)
	}
	sb, err := NewSharded(shards)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	return sb
}

func TestShardedRejectsEmptyTopology(t *testing.T) {
	if _, err := NewSharded(nil); !errors.Is(err, ErrNoShards) {
		t.Fatalf("NewSharded(nil) = %v, want ErrNoShards", err)
	}
	if _, err := NewSharded([]Backend{New("op", VisibilityEnvelope), nil}); !errors.Is(err, ErrNoShards) {
		t.Fatalf("NewSharded with nil shard = %v, want ErrNoShards", err)
	}
}

// TestShardedRoutingDeterministic pins the core invariant: the same channel
// always lands on the same shard — across repeated calls, and across two
// independently constructed backends over the same topology shape.
func TestShardedRoutingDeterministic(t *testing.T) {
	a := newTestSharded(t, 4)
	b := newTestSharded(t, 4)
	hits := make([]int, 4)
	for i := 0; i < 200; i++ {
		ch := fmt.Sprintf("channel-%03d", i)
		first := a.ShardFor(ch)
		if first < 0 || first >= 4 {
			t.Fatalf("ShardFor(%q) = %d, outside topology", ch, first)
		}
		for rep := 0; rep < 3; rep++ {
			if got := a.ShardFor(ch); got != first {
				t.Fatalf("ShardFor(%q) flapped: %d then %d", ch, first, got)
			}
		}
		if got := b.ShardFor(ch); got != first {
			t.Fatalf("ShardFor(%q) differs across constructions: %d vs %d", ch, first, got)
		}
		hits[first]++
	}
	for i, n := range hits {
		if n == 0 {
			t.Fatalf("shard %d received no channels out of 200: degenerate ring (distribution %v)", i, hits)
		}
	}
}

// TestShardedPinOverridesHash checks the pin table beats the ring, refuses
// out-of-range shards, and refuses to move a channel that already has
// subscribers elsewhere.
func TestShardedPinOverridesHash(t *testing.T) {
	sb := newTestSharded(t, 4)
	ch := "hot-channel"
	hashed := sb.ShardFor(ch)
	pinTo := (hashed + 1) % 4
	// A mistaken pin is correctable while the channel has no traffic.
	if err := sb.Pin(ch, hashed); err != nil {
		t.Fatalf("initial Pin: %v", err)
	}
	if err := sb.Pin(ch, pinTo); err != nil {
		t.Fatalf("Pin: %v", err)
	}
	if got := sb.ShardFor(ch); got != pinTo {
		t.Fatalf("ShardFor(%q) = %d after pin, want %d", ch, got, pinTo)
	}
	if err := sb.Pin(ch, 4); !errors.Is(err, ErrBadShard) {
		t.Fatalf("Pin out of range = %v, want ErrBadShard", err)
	}
	if err := sb.Pin(ch, -1); !errors.Is(err, ErrBadShard) {
		t.Fatalf("Pin negative = %v, want ErrBadShard", err)
	}

	// A channel with subscribers must not be re-routed: its chain would
	// fork across shards. Re-pinning to the same shard stays legal.
	sb.Subscribe(ch, func(ledger.Block) error { return nil })
	if err := sb.Pin(ch, hashed); !errors.Is(err, ErrChannelMoved) {
		t.Fatalf("Pin of subscribed channel = %v, want ErrChannelMoved", err)
	}
	if err := sb.Pin(ch, pinTo); err != nil {
		t.Fatalf("re-Pin to owning shard: %v", err)
	}

	stats := sb.Stats()
	if stats[pinTo].PinnedChannels != 1 {
		t.Fatalf("shard %d PinnedChannels = %d, want 1", pinTo, stats[pinTo].PinnedChannels)
	}
}

// TestShardedPinRefusesSubmittedChannel closes the other half of the fork
// guard: Submit-only history (pending transactions waiting for a batch
// cut) also marks a channel's owner, so a pin cannot strand them.
func TestShardedPinRefusesSubmittedChannel(t *testing.T) {
	shards := make([]Backend, 2)
	for i := range shards {
		// Batch size 2 leaves a lone submission pending instead of
		// requiring a subscriber for an immediate cut.
		shards[i] = New(fmt.Sprintf("op-%d", i), VisibilityEnvelope, WithBatchSize(2))
	}
	sb, err := NewSharded(shards)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	ch := "busy"
	// A rejected submission establishes no ownership: the channel stays
	// freely pinnable.
	if err := sb.Submit(mkTx(ch, "", "k")); err == nil {
		t.Fatal("creator-less tx accepted")
	}
	if err := sb.Pin(ch, 0); err != nil {
		t.Fatalf("Pin after rejected submit: %v", err)
	}
	if err := sb.Pin(ch, 1); err != nil {
		t.Fatalf("re-Pin of traffic-free channel: %v", err)
	}
	if err := sb.Submit(mkTx(ch, "Creator", "k")); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	owner := sb.ShardFor(ch)
	if owner != 1 {
		t.Fatalf("pinned channel owned by shard %d, want 1", owner)
	}
	if err := sb.Pin(ch, 1-owner); !errors.Is(err, ErrChannelMoved) {
		t.Fatalf("Pin of submitted channel = %v, want ErrChannelMoved", err)
	}
	if err := sb.Pin(ch, owner); err != nil {
		t.Fatalf("re-Pin to owning shard: %v", err)
	}
}

func TestShardedOperatorsUnion(t *testing.T) {
	shared := New("op-shared", VisibilityEnvelope)
	sb, err := NewSharded([]Backend{shared, New("op-b", VisibilityEnvelope), shared})
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	got := sb.Operators()
	want := []string{"op-shared", "op-b"}
	if len(got) != len(want) {
		t.Fatalf("Operators() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Operators() = %v, want %v", got, want)
		}
	}
}

// TestShardedSubmitRoutesAndCounts drives traffic over several channels and
// checks every transaction reaches the subscriber on its owning shard, with
// the per-shard counters accounting for all of it.
func TestShardedSubmitRoutesAndCounts(t *testing.T) {
	sb := newTestSharded(t, 3)
	channels := []string{"alpha", "beta", "gamma", "delta"}
	got := make(map[string]int)
	for _, ch := range channels {
		ch := ch
		sb.Subscribe(ch, func(b ledger.Block) error {
			got[ch] += len(b.Txs)
			return nil
		})
	}
	const perChannel = 5
	for _, ch := range channels {
		for i := 0; i < perChannel; i++ {
			if err := sb.Submit(mkTx(ch, "Creator", fmt.Sprintf("%s-%d", ch, i))); err != nil {
				t.Fatalf("Submit %s: %v", ch, err)
			}
		}
	}
	for _, ch := range channels {
		if got[ch] != perChannel {
			t.Fatalf("channel %s delivered %d txs, want %d", ch, got[ch], perChannel)
		}
	}
	stats := sb.Stats()
	var routed, delivered uint64
	for _, st := range stats {
		routed += st.RoutedTxs
		delivered += st.DeliveredBlocks
	}
	if want := uint64(len(channels) * perChannel); routed != want {
		t.Fatalf("routed %d txs across shards, want %d", routed, want)
	}
	// Batch size 1: one block delivery per tx, one subscriber per channel.
	if want := uint64(len(channels) * perChannel); delivered != want {
		t.Fatalf("delivered %d blocks across shards, want %d", delivered, want)
	}
	for _, ch := range channels {
		st := stats[sb.ShardFor(ch)]
		if st.RoutedTxs == 0 {
			t.Fatalf("owning shard %d of %s routed nothing", st.Shard, ch)
		}
	}
}

// TestShardedDeliveryOrderUnderConcurrency is the consistency anchor test:
// with many goroutines submitting across many channels concurrently, every
// channel's subscriber must still see blocks in height order with an intact
// hash chain. Run under -race, it also vets the routing fast path for data
// races.
func TestShardedDeliveryOrderUnderConcurrency(t *testing.T) {
	sb := newTestSharded(t, 4)
	const (
		nChannels   = 12
		nSubmitters = 8
		perSubmit   = 25
	)
	logs := make([]*ChainVerifier, nChannels)
	channels := make([]string, nChannels)
	for i := range channels {
		channels[i] = fmt.Sprintf("ch-%02d", i)
		logs[i] = &ChainVerifier{}
		sb.Subscribe(channels[i], logs[i].Deliver)
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
					submitErrs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range submitErrs {
		if err != nil {
			t.Fatalf("submitter %d: %v", w, err)
		}
	}
	total := 0
	for i, cl := range logs {
		if cl.Err() != nil {
			t.Fatalf("channel %s: %v", channels[i], cl.Err())
		}
		total += cl.txs
	}
	if want := nSubmitters * perSubmit; total != want {
		t.Fatalf("delivered %d txs in total, want %d", total, want)
	}
}

package ordering

import (
	"fmt"
	"sort"
)

// Migration records one completed channel move.
type Migration struct {
	Channel string `json:"channel"`
	From    int    `json:"from"`
	To      int    `json:"to"`
}

// Migrate moves a live channel — committed chain head, queued transactions,
// and every subscription registered through this backend — from its current
// shard to another, without reordering or dropping envelopes. The channel's
// migration gate is held exclusively for the move: in-flight submissions
// drain first, new ones wait, and the chain resumes on the target at the
// exported height with the exported head hash, so subscribers see a
// gap-free, duplicate-free block sequence across the move. Other channels
// are untouched.
//
// Both shards must implement ChannelMigrator (every first-party backend
// does). A channel with no traffic yet has nothing to move — place it with
// Pin instead.
func (sb *ShardedBackend) Migrate(channel string, to int) error {
	if to < 0 || to >= len(sb.shards) {
		return fmt.Errorf("%w: migrate %q to %d of %d", ErrBadShard, channel, to, len(sb.shards))
	}
	rt := sb.route(channel)
	if rt == nil {
		return fmt.Errorf("%w: %s has no traffic to migrate (use Pin for placement)", errUnknownChannel, channel)
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	from := int(rt.shard.Load())
	if from == to {
		return nil
	}
	exp, ok := sb.shards[from].(ChannelMigrator)
	if !ok {
		return fmt.Errorf("%w: shard %d (%T)", ErrNotMigratable, from, sb.shards[from])
	}
	imp, ok := sb.shards[to].(ChannelMigrator)
	if !ok {
		return fmt.Errorf("%w: shard %d (%T)", ErrNotMigratable, to, sb.shards[to])
	}
	st, err := exp.ExportChannel(channel)
	if err != nil {
		return fmt.Errorf("export %q from shard %d: %w", channel, from, err)
	}
	if err := imp.ImportChannel(channel, st); err != nil {
		// Put the state back where it came from; the channel keeps serving
		// on its old shard (the export dropped the relay with the chain, so
		// re-attach it).
		if rerr := exp.ImportChannel(channel, st); rerr != nil {
			return fmt.Errorf("import %q into shard %d failed (%v) and restore to %d failed: %w",
				channel, to, err, from, rerr)
		}
		if rt.relay {
			sb.attachRelay(channel, rt, from)
		}
		return fmt.Errorf("import %q into shard %d: %w", channel, to, err)
	}
	rt.shard.Store(int32(to))
	if rt.relay {
		sb.attachRelay(channel, rt, to)
	}
	sb.stats[to].migratedIn.Add(1)
	sb.migrations.Add(1)
	// A pin follows its channel so the recorded topology matches reality;
	// taken after rt.mu is safe (sb.mu is never held while acquiring a
	// route lock exclusively).
	sb.mu.Lock()
	if _, ok := sb.pins[channel]; ok {
		sb.pins[channel] = to
	}
	sb.mu.Unlock()
	return nil
}

// Rebalance migrates channels off overloaded shards until the topology's
// per-shard load is within skew (a factor > 1) of the mean, judged by the
// per-channel routed-transaction counters in ShardStats. Each pass moves
// the hottest shard's hottest channel that strictly improves the maximum
// onto the least-loaded shard; passes repeat until the skew bound holds or
// no move helps. Returns the moves performed — empty when the topology is
// already balanced — so callers (cmd/gateway's POST /admin/rebalance, a
// soak loop) can log them.
func (sb *ShardedBackend) Rebalance(skew float64) ([]Migration, error) {
	if skew <= 1 {
		return nil, fmt.Errorf("ordering: rebalance skew must be > 1, got %v", skew)
	}
	if len(sb.shards) < 2 {
		return nil, nil
	}
	var moves []Migration
	// Each pass moves one channel; bound the passes so a pathological load
	// shape cannot loop forever.
	for pass := 0; pass < 2*len(sb.shards); pass++ {
		m, err := sb.rebalanceOnce(skew)
		if err != nil {
			return moves, err
		}
		if m == nil {
			break
		}
		moves = append(moves, *m)
	}
	return moves, nil
}

// rebalanceOnce performs at most one skew-reducing migration.
func (sb *ShardedBackend) rebalanceOnce(skew float64) (*Migration, error) {
	type chLoad struct {
		name string
		load uint64
	}
	perShard := make([]uint64, len(sb.shards))
	byShard := make([][]chLoad, len(sb.shards))
	sb.mu.RLock()
	for name, rt := range sb.routes {
		i := int(rt.shard.Load())
		l := rt.routed.Load()
		perShard[i] += l
		byShard[i] = append(byShard[i], chLoad{name, l})
	}
	sb.mu.RUnlock()
	var total uint64
	hot, cold := 0, 0
	for i, l := range perShard {
		total += l
		if l > perShard[hot] {
			hot = i
		}
		if l < perShard[cold] {
			cold = i
		}
	}
	mean := float64(total) / float64(len(sb.shards))
	if mean == 0 || float64(perShard[hot]) <= skew*mean || hot == cold || len(byShard[hot]) < 2 {
		// Balanced, or the hot shard serves a single channel — moving it
		// would only relocate the hotspot.
		return nil, nil
	}
	// Hottest channel first; pick the first whose move strictly lowers the
	// maximum (the cold shard must stay below the hot shard's current
	// load).
	sort.Slice(byShard[hot], func(a, b int) bool { return byShard[hot][a].load > byShard[hot][b].load })
	for _, ch := range byShard[hot] {
		if ch.load == 0 || perShard[cold]+ch.load >= perShard[hot] {
			continue
		}
		if err := sb.Migrate(ch.name, cold); err != nil {
			return nil, err
		}
		return &Migration{Channel: ch.name, From: hot, To: cold}, nil
	}
	return nil, nil
}

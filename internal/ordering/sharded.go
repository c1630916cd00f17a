package ordering

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"dltprivacy/internal/ledger"
	"dltprivacy/internal/telemetry"
)

// Errors returned by the sharded backend.
var (
	// ErrNoShards is returned when constructing a sharded backend with an
	// empty shard list.
	ErrNoShards = errors.New("ordering: sharded backend needs at least one shard")
	// ErrBadShard is returned for a pin naming a shard index outside the
	// topology.
	ErrBadShard = errors.New("ordering: shard index out of range")
	// ErrChannelMoved is returned when a pin would move a channel that
	// already carried traffic on another shard: its block chain (or its
	// pending transactions) would fork across shards.
	ErrChannelMoved = errors.New("ordering: channel already owned by another shard")
)

// vnodesPerShard is the number of virtual ring points per shard. Enough
// points smooth the channel distribution; the ring stays a few KB even for
// wide topologies.
const vnodesPerShard = 64

// ringPoint is one virtual node on the consistent-hash ring.
type ringPoint struct {
	hash  uint64
	shard int
}

// shardCounters tracks one shard's routing traffic.
type shardCounters struct {
	routedTxs  atomic.Uint64
	delivered  atomic.Uint64
	migratedIn atomic.Uint64
}

// ShardStats is a snapshot of one shard's routing counters.
type ShardStats struct {
	// Shard is the shard index within the topology.
	Shard int
	// Operators names the principals operating the shard's backend.
	Operators []string
	// RoutedTxs counts transactions routed to the shard.
	RoutedTxs uint64
	// DeliveredBlocks counts block deliveries fanned out to subscribers
	// registered through the sharded backend (a block reaching three
	// subscribers counts three times).
	DeliveredBlocks uint64
	// PinnedChannels counts channels explicitly pinned to the shard.
	PinnedChannels int
	// OwnedChannels counts channels whose traffic currently routes to the
	// shard — the live residency rebalancing shifts, unlike the pin table.
	OwnedChannels int
	// Failovers counts leader elections the shard ran to recover from a
	// dead leader; 0 for non-replicated shards.
	Failovers uint64
	// MigratedIn counts live channels migrated onto the shard.
	MigratedIn uint64
}

// channelRoute is a channel's routing record: which shard serves it, its
// subscriber fan-out, and its load counter. It exists once the channel has
// carried traffic (the old "owned" fact), and its lock is the migration
// gate.
type channelRoute struct {
	// mu gates routing against migration: Submit and Subscribe hold it
	// shared around the shard call, Migrate holds it exclusively — so a
	// migration starts only after in-flight submissions drain, and new ones
	// wait until the channel has landed on its new shard.
	mu sync.RWMutex
	// shard is the serving shard index: written by Migrate under mu,
	// read atomically by inspection paths that must not touch mu (resolve
	// runs under the backend lock, which Migrate acquires after mu).
	shard atomic.Int32
	// relay records whether the fan-out relay is registered on the serving
	// shard; Migrate re-registers it on the target. Guarded by mu.
	relay bool
	// subs is the subscriber list, read lock-free by the relay: delivery
	// runs inside Submit, which already holds mu shared — re-acquiring it
	// there would deadlock against a waiting migration.
	subs atomic.Pointer[[]DeliverFunc]
	// routed counts accepted submissions for this channel — the per-channel
	// load signal skew rebalancing ranks by. It travels with the channel
	// across migrations, unlike the per-shard counters.
	routed atomic.Uint64
}

// ShardedBackend partitions channels across multiple ordering backends so
// heavy multi-channel traffic scales horizontally: each channel is owned by
// exactly one shard, chosen by consistent hashing over the channel name or
// by an explicit pin for hot channels. Because every submission and
// subscription for a channel lands on the same shard, the per-channel
// delivery serialization the underlying services guarantee — blocks reach
// subscribers in height order — is preserved unchanged; what sharding
// divides is the cross-channel contention on each service's internal lock.
// Safe for concurrent use.
type ShardedBackend struct {
	shards []Backend
	ring   []ringPoint
	stats  []shardCounters

	mu sync.RWMutex
	// pins maps channel -> shard index, overriding the hash ring.
	pins map[string]int
	// routes records each channel's routing state from its first Submit or
	// Subscribe on — the ownership fact a later pin must not fork, plus the
	// migration gate and fan-out. Steady-state routing reads the map under
	// the read lock; a channel's first touch takes the write lock, and
	// moves go through Migrate.
	routes map[string]*channelRoute

	// migrations counts completed channel migrations across the topology.
	migrations atomic.Uint64
}

// shardFailovers is the optional interface replicated shard backends
// implement to surface their failover counter into ShardStats and metrics.
type shardFailovers interface {
	Failovers() uint64
}

// shardReplicas is the optional interface replicated shard backends
// implement to surface what their replicas hold and how often one had to be
// brought level into metrics.
type shardReplicas interface {
	ReplicaEntries() uint64
	PositionInstalls() uint64
}

// Compile-time check.
var _ Backend = (*ShardedBackend)(nil)

// NewSharded builds a sharded backend over the given shards. Shard order is
// part of the topology: the same shard list (by position) yields the same
// channel routing on every construction.
func NewSharded(shards []Backend) (*ShardedBackend, error) {
	if len(shards) == 0 {
		return nil, ErrNoShards
	}
	for i, s := range shards {
		if s == nil {
			return nil, fmt.Errorf("%w: shard %d is nil", ErrNoShards, i)
		}
	}
	sb := &ShardedBackend{
		shards: append([]Backend(nil), shards...),
		ring:   make([]ringPoint, 0, len(shards)*vnodesPerShard),
		stats:  make([]shardCounters, len(shards)),
		pins:   make(map[string]int),
		routes: make(map[string]*channelRoute),
	}
	for i := range sb.shards {
		for v := 0; v < vnodesPerShard; v++ {
			sb.ring = append(sb.ring, ringPoint{
				hash:  ringHash(fmt.Sprintf("shard-%d#vnode-%d", i, v)),
				shard: i,
			})
		}
	}
	sort.Slice(sb.ring, func(a, b int) bool { return sb.ring[a].hash < sb.ring[b].hash })
	return sb, nil
}

// ringHash is the ring's hash function: FNV-1a pushed through a 64-bit
// avalanche finalizer. Raw FNV clusters inputs that differ only in a few
// trailing bytes — exactly what channel and vnode names look like — which
// collapses the ring into contiguous single-shard arcs; the finalizer
// spreads them. Deterministic across processes, so a topology routes
// identically on every node that builds it.
func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Shards returns the number of shards in the topology.
func (sb *ShardedBackend) Shards() int { return len(sb.shards) }

// Pin routes a channel to an explicit shard, overriding the hash ring —
// the relief valve for hot channels that should own a shard (or for
// keeping related channels co-located). Pins must be installed before the
// channel carries traffic: pinning a channel that already submitted or
// subscribed on a different shard is refused, because its block chain (or
// its pending transactions) would fork across shards.
func (sb *ShardedBackend) Pin(channel string, shard int) error {
	if shard < 0 || shard >= len(sb.shards) {
		return fmt.Errorf("%w: pin %q to %d of %d", ErrBadShard, channel, shard, len(sb.shards))
	}
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if rt, ok := sb.routes[channel]; ok {
		if cur := int(rt.shard.Load()); cur != shard {
			return fmt.Errorf("%w: %q lives on shard %d, pin wants %d", ErrChannelMoved, channel, cur, shard)
		}
	}
	// Ownership is only established by traffic (route), so a mistaken pin
	// can still be corrected freely before the channel's first
	// Submit/Subscribe.
	sb.pins[channel] = shard
	return nil
}

// ShardFor reports the shard a channel routes to — its recorded owner,
// else its pin, else the ring — without recording ownership; inspection
// never turns a would-be route into channel history.
func (sb *ShardedBackend) ShardFor(channel string) int {
	i, _ := sb.resolve(channel)
	return i
}

// resolve returns the channel's routing shard and whether that ownership
// is already on record.
func (sb *ShardedBackend) resolve(channel string) (int, bool) {
	sb.mu.RLock()
	defer sb.mu.RUnlock()
	if rt, ok := sb.routes[channel]; ok {
		return int(rt.shard.Load()), true
	}
	if i, ok := sb.pins[channel]; ok {
		return i, false
	}
	return sb.hashShard(channel), false
}

// route returns the channel's routing record, nil before its first traffic.
func (sb *ShardedBackend) route(channel string) *channelRoute {
	sb.mu.RLock()
	defer sb.mu.RUnlock()
	return sb.routes[channel]
}

// hashShard maps a channel onto the ring: the first point at or after the
// channel's hash.
func (sb *ShardedBackend) hashShard(channel string) int {
	h := ringHash(channel)
	i := sort.Search(len(sb.ring), func(i int) bool { return sb.ring[i].hash >= h })
	if i == len(sb.ring) {
		i = 0
	}
	return sb.ring[i].shard
}

// adopt records channel ownership — the fact a later Pin must not fork —
// and returns the route on record (an earlier racer's claim wins, which
// resolve's determinism makes the same shard in supported usage).
func (sb *ShardedBackend) adopt(channel string, shard int) *channelRoute {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if rt, ok := sb.routes[channel]; ok {
		return rt
	}
	rt := &channelRoute{}
	rt.shard.Store(int32(shard))
	sb.routes[channel] = rt
	return rt
}

// Submit implements Backend: the transaction is routed to its channel's
// owning shard, holding the route's migration gate shared so a concurrent
// Migrate waits for it (and it for a migration in progress). Ownership is
// recorded only once a submission is accepted, so a channel whose only
// traffic was rejected can still be pinned.
func (sb *ShardedBackend) Submit(tx ledger.Transaction) error {
	rt := sb.route(tx.Channel)
	if rt == nil {
		retry, err := sb.submitFirst(tx)
		if !retry {
			return err
		}
		// A racing Subscribe established the route between the lookup and
		// the first-traffic path; take the gated route path instead.
		rt = sb.route(tx.Channel)
	}
	rt.mu.RLock()
	i := int(rt.shard.Load())
	st := &sb.stats[i]
	// Count the routing BEFORE the shard submit: a submission that fills a
	// batch delivers its block synchronously inside Submit, so counting
	// after would let a stats poll observe the delivery without the routing
	// that caused it. A rejected submission undoes the increment.
	st.routedTxs.Add(1)
	err := sb.shards[i].Submit(tx)
	if err != nil {
		st.routedTxs.Add(^uint64(0))
	} else {
		rt.routed.Add(1)
	}
	rt.mu.RUnlock()
	if err != nil {
		return fmt.Errorf("shard %d: %w", i, err)
	}
	return nil
}

// submitFirst is the first-traffic Submit path: the channel has no route
// yet, so the shard comes from the pin table or the ring, and acceptance
// establishes ownership. A migration cannot interleave — Migrate requires
// an existing route — but a concurrent Subscribe can create one; that case
// returns retry=true and the caller re-routes through the migration gate.
func (sb *ShardedBackend) submitFirst(tx ledger.Transaction) (retry bool, err error) {
	i, owned := sb.resolve(tx.Channel)
	if owned {
		return true, nil
	}
	sb.stats[i].routedTxs.Add(1)
	if err := sb.shards[i].Submit(tx); err != nil {
		sb.stats[i].routedTxs.Add(^uint64(0))
		return false, fmt.Errorf("shard %d: %w", i, err)
	}
	sb.adopt(tx.Channel, i).routed.Add(1)
	return false, nil
}

// Subscribe implements Backend: the subscriber joins the channel's fan-out
// list, and the first subscription attaches the relay — one shard-side
// consumer per channel residency that delivers to every subscriber
// registered here, so a migration moves all of them by re-attaching one
// relay on the target shard. Subscribing IS channel history — blocks will
// be cut on this shard — so ownership is recorded immediately.
func (sb *ShardedBackend) Subscribe(channel string, deliver DeliverFunc) {
	i, _ := sb.resolve(channel)
	rt := sb.adopt(channel, i)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var subs []DeliverFunc
	if old := rt.subs.Load(); old != nil {
		subs = append(subs, *old...)
	}
	subs = append(subs, deliver)
	rt.subs.Store(&subs)
	if !rt.relay {
		sb.attachRelay(channel, rt, int(rt.shard.Load()))
		rt.relay = true
	}
}

// attachRelay registers the channel's fan-out relay on its serving shard.
// Deliveries count against the shard that cut the block, keeping stats
// attribution correct across migrations; a subscriber error aborts the
// fan-out, surfacing through the shard's Submit/Flush as before. Caller
// holds rt.mu.
func (sb *ShardedBackend) attachRelay(channel string, rt *channelRoute, shard int) {
	st := &sb.stats[shard]
	sb.shards[shard].Subscribe(channel, func(b ledger.Block) error {
		subs := rt.subs.Load()
		if subs == nil {
			return nil
		}
		for _, deliver := range *subs {
			if err := deliver(b); err != nil {
				return err
			}
			st.delivered.Add(1)
		}
		return nil
	})
}

// Operators implements Backend: the union of every shard's operators, in
// shard order, deduplicated.
func (sb *ShardedBackend) Operators() []string {
	seen := make(map[string]bool)
	var out []string
	for _, s := range sb.shards {
		for _, op := range s.Operators() {
			if !seen[op] {
				seen[op] = true
				out = append(out, op)
			}
		}
	}
	return out
}

// Stats snapshots per-shard routing counters, indexed by shard.
func (sb *ShardedBackend) Stats() []ShardStats {
	pinned := make([]int, len(sb.shards))
	owned := make([]int, len(sb.shards))
	sb.mu.RLock()
	for _, shard := range sb.pins {
		pinned[shard]++
	}
	for _, rt := range sb.routes {
		owned[rt.shard.Load()]++
	}
	sb.mu.RUnlock()
	out := make([]ShardStats, len(sb.shards))
	for i := range sb.shards {
		// Deliveries are read before routings: a delivery always follows
		// the routing increment that cut its block, so this order keeps
		// each shard's snapshot consistent (routed >= what the deliveries
		// imply) while submitters race the poll.
		delivered := sb.stats[i].delivered.Load()
		out[i] = ShardStats{
			Shard:           i,
			Operators:       sb.shards[i].Operators(),
			RoutedTxs:       sb.stats[i].routedTxs.Load(),
			DeliveredBlocks: delivered,
			PinnedChannels:  pinned[i],
			OwnedChannels:   owned[i],
			MigratedIn:      sb.stats[i].migratedIn.Load(),
		}
		if f, ok := sb.shards[i].(shardFailovers); ok {
			out[i].Failovers = f.Failovers()
		}
	}
	return out
}

// Migrations counts completed channel migrations across the topology.
func (sb *ShardedBackend) Migrations() uint64 { return sb.migrations.Load() }

// RegisterMetrics registers the per-shard routing counters and pinned-
// channel gauges into reg under the confmw_shard_* names, labelled by
// shard index.
func (sb *ShardedBackend) RegisterMetrics(reg *telemetry.Registry) error {
	for i := range sb.shards {
		st, shard := &sb.stats[i], i
		ms := []telemetry.FuncMetric{
			{Name: "confmw_shard_routed_txs_total", Help: "Transactions routed to the shard.", Load: st.routedTxs.Load},
			{Name: "confmw_shard_delivered_blocks_total", Help: "Block deliveries fanned out to the shard's subscribers.", Load: st.delivered.Load},
			{Name: "confmw_shard_migrations_total", Help: "Live channels migrated onto the shard.", Load: st.migratedIn.Load},
			{Name: "confmw_shard_pinned_channels", Help: "Channels explicitly pinned to the shard.", Gauge: true, Load: func() (n uint64) {
				sb.mu.RLock()
				defer sb.mu.RUnlock()
				for _, s := range sb.pins {
					if s == shard {
						n++
					}
				}
				return n
			}},
			{Name: "confmw_shard_owned_channels", Help: "Channels whose traffic currently routes to the shard.", Gauge: true, Load: func() (n uint64) {
				sb.mu.RLock()
				defer sb.mu.RUnlock()
				for _, rt := range sb.routes {
					if int(rt.shard.Load()) == shard {
						n++
					}
				}
				return n
			}},
		}
		if f, ok := sb.shards[i].(shardFailovers); ok {
			ms = append(ms, telemetry.FuncMetric{Name: "confmw_shard_failovers_total",
				Help: "Leader elections the shard ran to recover from a dead leader.", Load: f.Failovers})
		}
		if r, ok := sb.shards[i].(shardReplicas); ok {
			ms = append(ms,
				telemetry.FuncMetric{Name: "confmw_shard_replica_entries",
					Help: "Replicated entries the shard's nodes hold in memory.", Gauge: true, Load: r.ReplicaEntries},
				telemetry.FuncMetric{Name: "confmw_shard_position_installs_total",
					Help: "Nodes brought level with a leader they were behind.", Load: r.PositionInstalls})
		}
		if err := reg.RegisterFuncs(ms, telemetry.L("shard", strconv.Itoa(i))); err != nil {
			return err
		}
	}
	return nil
}

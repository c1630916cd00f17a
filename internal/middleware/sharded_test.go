package middleware

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/ledger"
	"dltprivacy/internal/ordering"
)

// newShardedOrderer builds an n-shard ordering topology of solo services.
func newShardedOrderer(t testing.TB, n int) *ordering.ShardedBackend {
	t.Helper()
	shards := make([]ordering.Backend, n)
	for i := range shards {
		shards[i] = ordering.New(fmt.Sprintf("shard-op-%d", i), ordering.VisibilityEnvelope)
	}
	sb, err := ordering.NewSharded(shards)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	return sb
}

// countingSink is a minimal channel-agnostic backend counting committed txs.
type countingSink struct {
	name string
	txs  int
}

func (c *countingSink) Name() string { return c.name }

func (c *countingSink) Commit(b ledger.Block) error {
	c.txs += len(b.Txs)
	return nil
}

func TestConfigShardingValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"negative shards", Config{Stages: auditOnly, Shards: -1}},
		{"pins without topology", Config{Stages: auditOnly, ShardPins: map[string]int{"deals": 0}}},
		{"pin out of range", Config{Stages: auditOnly, Shards: 2, ShardPins: map[string]int{"deals": 2}}},
		{"pin negative", Config{Stages: auditOnly, Shards: 2, ShardPins: map[string]int{"deals": -1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.cfg.build(auditEnv(), nil); !errors.Is(err, ErrBadConfig) {
				t.Fatalf("Build = %v, want ErrBadConfig", err)
			}
		})
	}
}

// TestGatewayShardedTopologyChecks pins the construction-time contract:
// a declared shard count must match the actual backend, and declared pins
// land on the backend before traffic.
func TestGatewayShardedTopologyChecks(t *testing.T) {
	cfg := Config{Stages: auditOnly, Shards: 2}
	if _, err := NewGateway("gw", cfg, auditEnv(), ordering.New("op", ordering.VisibilityEnvelope)); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("unsharded backend accepted for sharded config: %v", err)
	}
	if _, err := NewGateway("gw", cfg, auditEnv(), newShardedOrderer(t, 3)); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("3-shard backend accepted for 2-shard config: %v", err)
	}

	sb := newShardedOrderer(t, 2)
	hashed := sb.ShardFor("deals")
	pinTo := 1 - hashed
	cfg.ShardPins = map[string]int{"deals": pinTo}
	if _, err := NewGateway("gw", cfg, auditEnv(), sb); err != nil {
		t.Fatalf("NewGateway: %v", err)
	}
	if got := sb.ShardFor("deals"); got != pinTo {
		t.Fatalf("pin not installed: ShardFor(deals) = %d, want %d", got, pinTo)
	}

	// A pin conflicting with a live channel surfaces as ErrBadConfig too.
	sb2 := newShardedOrderer(t, 2)
	live := sb2.ShardFor("deals")
	sb2.Subscribe("deals", func(ledger.Block) error { return nil })
	cfg.ShardPins = map[string]int{"deals": 1 - live}
	if _, err := NewGateway("gw", cfg, auditEnv(), sb2); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("conflicting pin accepted: %v", err)
	}
}

// TestGatewayShardedEndToEnd drives session traffic over several channels
// through a 2-shard gateway and checks routing, delivery, and the new
// GatewayStats surfaces: per-shard counters, session lifecycle counters,
// and encrypt epoch rotations.
func TestGatewayShardedEndToEnd(t *testing.T) {
	clock := newFakeClock()
	ca, people := enrollAt(t, clock.now, "Alice", "Bob")
	alice := people["Alice"]

	channels := []string{"deals-a", "deals-b", "deals-c"}
	dir := StaticDirectory{}
	for _, ch := range channels {
		dir[ch] = map[string]dcrypto.PublicKey{
			"Alice": people["Alice"].key.Public(),
			"Bob":   people["Bob"].key.Public(),
		}
	}

	sb := newShardedOrderer(t, 2)
	cfg := Config{
		Stages: []StageConfig{
			{Name: StageSession, Params: map[string]string{"ttl": "1h", "idle": "1h"}},
			{Name: StageEncrypt, Params: map[string]string{"keyttl": "1h"}},
		},
		Shards:    2,
		ShardPins: map[string]int{channels[0]: 0},
	}
	env := Env{CAKey: ca.PublicKey(), Directory: dir, Log: audit.NewLog(), Now: clock.now}
	gw, err := NewGateway("gw", cfg, env, sb)
	if err != nil {
		t.Fatalf("NewGateway: %v", err)
	}
	sinks := make(map[string]*countingSink, len(channels))
	for _, ch := range channels {
		sinks[ch] = &countingSink{name: "sink-" + ch}
		gw.Bind(ch, sinks[ch])
	}

	grant := openSession(t, gw.Sessions(), alice)
	const perChannel = 4
	for _, ch := range channels {
		for i := 0; i < perChannel; i++ {
			req := sessionRequest(alice, grant, ch, []byte(fmt.Sprintf("%s-%d", ch, i)))
			if _, err := frontOf(gw).submit(req); err != nil {
				t.Fatalf("Submit %s: %v", ch, err)
			}
		}
	}
	for _, ch := range channels {
		if sinks[ch].txs != perChannel {
			t.Fatalf("channel %s committed %d txs, want %d", ch, sinks[ch].txs, perChannel)
		}
	}

	stats := gw.Stats()
	if len(stats.Shards) != 2 {
		t.Fatalf("stats carry %d shards, want 2", len(stats.Shards))
	}
	var routed uint64
	for _, st := range stats.Shards {
		routed += st.RoutedTxs
	}
	if want := uint64(len(channels) * perChannel); routed != want {
		t.Fatalf("shards routed %d txs, want %d", routed, want)
	}
	pinnedShard := stats.Shards[0]
	if pinnedShard.PinnedChannels != 1 {
		t.Fatalf("shard 0 PinnedChannels = %d, want 1", pinnedShard.PinnedChannels)
	}
	if got := sb.ShardFor(channels[0]); got != 0 {
		t.Fatalf("pinned channel routed to shard %d, want 0", got)
	}
	if stats.Sessions == nil || stats.Sessions.Opened != 1 || stats.Sessions.Live != 1 {
		t.Fatalf("session stats = %+v, want 1 opened, 1 live", stats.Sessions)
	}
	// One cached epoch per channel under the keyed encrypt stage.
	if want := uint64(len(channels)); stats.KeyEpochsRotated != want {
		t.Fatalf("KeyEpochsRotated = %d, want %d", stats.KeyEpochsRotated, want)
	}
}

// TestUnknownChannelIsNotOrdered holds a gateway with a directory to the
// directory's channels whatever its pipeline: session|audit has no encrypt
// stage to look a channel up, and a name an authenticated client makes up
// must not reach the sharded backend, whose route table keeps every channel
// it has routed, or a shard, which keeps a chain per channel it was handed.
// A submission on one is refused under its own label.
func TestUnknownChannelIsNotOrdered(t *testing.T) {
	ca, people := enroll(t, "Alice")
	alice := people["Alice"]
	shards := []*channelRecorder{{}, {}}
	sb, err := ordering.NewSharded([]ordering.Backend{shards[0], shards[1]})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Stages: []StageConfig{{Name: StageSession}, {Name: StageAudit, Params: map[string]string{"observer": "op"}}}, Shards: 2}
	env := Env{CAKey: ca.PublicKey(), Directory: StaticDirectory{"deals": {"Alice": alice.key.Public()}}, Log: audit.NewLog()}
	gw, err := NewGateway("gw", cfg, env, sb)
	if err != nil {
		t.Fatal(err)
	}
	w := frontOf(gw)
	if _, err := w.submit(memberRequest(t, gw.sessions, alice, "deals", []byte("trade"))); err != nil {
		t.Fatalf("a submission on the directory's channel: %v", err)
	}
	for i := 0; i < 3; i++ {
		_, err := w.submit(memberRequest(t, gw.sessions, alice, fmt.Sprintf("made-up-%d", i), []byte("trade")))
		if !errors.Is(err, ErrUnknownChannel) || RejectLabel(err) != "order/unknown_channel" {
			t.Errorf("a made-up channel got %v (label %q), want ErrUnknownChannel as order/unknown_channel", err, RejectLabel(err))
		}
	}
	routed := 0
	for _, st := range gw.Stats().Shards {
		routed += st.OwnedChannels
	}
	if routed != 1 {
		t.Errorf("the sharded backend routes %d channels, want the directory's one", routed)
	}
	for i, shard := range shards {
		for ch := range shard.seen {
			if ch != "deals" {
				t.Errorf("shard %d was handed channel %q", i, ch)
			}
		}
	}
	if st := gw.Stats(); st.Rejected != 3 || st.Ordered != 1 {
		t.Errorf("rejected %d, ordered %d; want 3 and 1", st.Rejected, st.Ordered)
	}
}

// channelRecorder is a shard that accepts every transaction and remembers
// the channels it was handed.
type channelRecorder struct {
	seen map[string]bool
}

func (r *channelRecorder) Submit(tx ledger.Transaction) error {
	if r.seen == nil {
		r.seen = make(map[string]bool)
	}
	r.seen[tx.Channel] = true
	return nil
}

func (r *channelRecorder) Subscribe(string, ordering.DeliverFunc) {}

func (r *channelRecorder) Operators() []string { return []string{"recorder"} }

// TestSessionPerPrincipalCap exercises the overflow behaviour: the cap
// evicts the principal's oldest session, leaves other principals alone, and
// counts evictions distinctly from expiries.
func TestSessionPerPrincipalCap(t *testing.T) {
	clock := newFakeClock()
	ca, people := enrollAt(t, clock.now, "Alice", "Bob")
	mgr, err := NewSessionManager(ca.PublicKey(), time.Hour, time.Hour, clock.now, withMaxPerPrincipal(2))
	if err != nil {
		t.Fatalf("NewSessionManager: %v", err)
	}

	// Distinct open times make "oldest" unambiguous.
	first := openSession(t, mgr, people["Alice"])
	clock.advance(time.Second)
	second := openSession(t, mgr, people["Alice"])
	clock.advance(time.Second)
	bobs := openSession(t, mgr, people["Bob"])
	clock.advance(time.Second)
	third := openSession(t, mgr, people["Alice"])

	if _, _, err := admitToken(mgr, first.Token, ""); !errors.Is(err, ErrNoSession) {
		t.Fatalf("oldest capped session resolves: %v", err)
	}
	for name, grant := range map[string]SessionGrant{"second": second, "third": third, "bob": bobs} {
		if _, _, err := admitToken(mgr, grant.Token, ""); err != nil {
			t.Fatalf("%s session: %v", name, err)
		}
	}
	stats := mgr.stats()
	if stats.Opened != 4 || stats.Evicted != 1 || stats.Live != 3 {
		t.Fatalf("stats = %+v, want opened=4 evicted=1 live=3", stats)
	}
}

// TestSessionStatsCountExpiries checks TTL/idle evictions land in the
// Expired counter whether detected on resolve or by the sweep.
func TestSessionStatsCountExpiries(t *testing.T) {
	clock := newFakeClock()
	ca, people := enrollAt(t, clock.now, "Alice", "Bob")
	mgr := mustManager(t, ca, time.Hour, 10*time.Minute, clock.now)

	a := openSession(t, mgr, people["Alice"])
	openSession(t, mgr, people["Bob"])
	clock.advance(11 * time.Minute) // both idle out

	// One expiry detected on resolve…
	if _, _, err := admitToken(mgr, a.Token, ""); !errors.Is(err, ErrSessionExpired) {
		t.Fatalf("resolve idle session = %v, want ErrSessionExpired", err)
	}
	// …the other by the sweep a later Open runs.
	openSession(t, mgr, people["Alice"])
	stats := mgr.stats()
	if stats.Expired != 2 || stats.Opened != 3 || stats.Live != 1 {
		t.Fatalf("stats = %+v, want expired=2 opened=3 live=1", stats)
	}
	if stats.Evicted != 0 {
		t.Fatalf("uncapped manager evicted %d sessions", stats.Evicted)
	}
}

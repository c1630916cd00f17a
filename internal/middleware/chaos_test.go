package middleware

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/ordering"
)

// chaosScenario shapes one chaos run over a replicated sharded gateway.
type chaosScenario struct {
	// shards is the number of ordering shards; replicas the operators per
	// shard (>= 3).
	shards, replicas int
	// channels spread the storm; submitters goroutines each drive
	// submissions requests round-robin over them.
	channels, submitters, submissions int
	// killLeaderEvery crashes (and restarts) the leader of some channel's
	// cluster every N global submissions; 0 disables leader chaos.
	killLeaderEvery int
	// killShard kills every operator of the first channel's shard at the
	// halfway mark and revives the shard at the three-quarter mark, to
	// verify failures stay confined to that shard's channels.
	killShard bool
	// staleFollower stages, on the first channel's cluster, the fault that
	// leaves a replica behind with nobody to bring it level: a follower
	// crashes at the quarter mark; at the halfway mark the leader is killed
	// and the follower restarted into the leaderless cluster; at the
	// three-quarter mark the next leader is killed and the first one
	// restarted, so the election is between the follower and a node that
	// committed blocks it never saw. Submissions on that channel may fail
	// with ErrNoQuorum in the instants only one node is up. Do not combine
	// with the other leader or shard kills, which would take the same nodes
	// down.
	staleFollower bool
	// rebalanceEvery migrates one channel to the next shard and then runs
	// a skew-driven rebalancing pass every N global submissions; 0
	// disables. A pass over an even load moves nothing, so the explicit
	// migration is what makes every run move channels. Do not combine with
	// killShard — a dead shard's low load reads as "cold" and attracts
	// migrations.
	rebalanceEvery int
	// revokeMidStorm revokes the last member's certificate once half of one
	// submitter's share (submissions/2) of that member's own submissions
	// has been accepted; its remaining submissions must all be rejected.
	revokeMidStorm bool
	// resumeSessions makes every submitter open a session over the wire
	// handshake before each submission and close it after — a full
	// handshake first, resumed ones from then on — instead of riding one
	// standing session. With revokeMidStorm the revocation lands while the
	// member is resuming: every open it starts afterwards, resumed or full,
	// must be refused with ErrSessionRevoked, and nobody else's may fail.
	resumeSessions bool
}

// chaosFailure is one bucket of rejected submissions: what class of error,
// on which channel.
type chaosFailure struct{ class, channel string }

// chaosReport is what a chaos run observed.
type chaosReport struct {
	// submitted counts every submission attempted; succeeded those the
	// gateway accepted.
	submitted, succeeded int
	failed               map[chaosFailure]int
	// revokedRejected counts the revoked member's post-revocation
	// submissions (all rejected; also in failed). Under resumeSessions a
	// submission whose session could not be opened counts as rejected with
	// the open's error.
	revokedRejected int
	// resumedOpens counts sessions opened by a resume hello, and
	// revokedOpensRefused the opens the revoked member started after its
	// revocation, all refused (resumeSessions only).
	resumedOpens, revokedOpensRefused int
	// failovers and positionInstalls aggregate the ordering tier's recovery
	// during the storm, migrations its channel moves.
	failovers, positionInstalls, migrations uint64
	// delivered counts the transactions the channels' subscribers saw.
	delivered int
	// violations lists per-channel ordering violations: out-of-order block
	// numbers, broken hash chains, duplicate transactions — and, under
	// resumeSessions, any session a revoked member managed to open. A
	// healthy run has none, no matter what the chaos did.
	violations []string
	// shardmates are the channels of the first channel's shard, the one
	// killShard takes down.
	shardmates map[string]bool
}

// chaosStep is how far the harness clock moves per global submission: a
// circuit the breaker opens in a storm of a few hundred submissions passes
// its cooldown within twenty of them, probes, and closes again once its
// shard is back.
const (
	chaosStep     = time.Millisecond
	chaosCooldown = 20 * time.Millisecond
)

// runChaos stands up a full gateway — session, authn, rate limit, envelope
// encryption, audit, breaker — over a replicated sharded ordering tier, on
// one injected clock, and drives concurrent clients through AppendWire, the
// way the edge does, while injecting the scenario's faults: leader kills, a
// follower left behind and restarted into a leaderless cluster, a
// whole-shard kill and revival, skew-driven rebalancing, and mid-storm
// certificate revocation. After the storm every channel must accept one
// more submission, once the clock has passed a breaker cooldown. It reports
// what clients and subscribers observed; TestChaos asserts the invariants on
// the report.
func runChaos(t *testing.T, sc chaosScenario) *chaosReport {
	t.Helper()
	clock := newFakeClock()
	ca, people := enrollAt(t, clock.now, "org-a", "org-b", "org-c")
	members := []*principal{people["org-a"], people["org-b"], people["org-c"]}
	memberKeys := make(map[string]dcrypto.PublicKey, len(members))
	for _, p := range members {
		memberKeys[p.name] = p.key.Public()
	}

	// Replicated sharded ordering tier.
	log := audit.NewLog()
	shards := make([]ordering.Backend, sc.shards)
	replicated := make([]*ordering.ReplicatedShard, sc.shards)
	for i := range shards {
		ops := make([]string, sc.replicas)
		for r := range ops {
			ops[r] = fmt.Sprintf("chaos-op-%d-%d", i, r)
		}
		rs, err := ordering.NewReplicatedShard(ops, ordering.VisibilityEnvelope, ordering.WithShardAudit(log))
		if err != nil {
			t.Fatal(err)
		}
		shards[i], replicated[i] = rs, rs
	}
	sb, err := ordering.NewSharded(shards)
	if err != nil {
		t.Fatal(err)
	}

	channels := make([]string, sc.channels)
	verifiers := make([]*ordering.ChainVerifier, sc.channels)
	dir := StaticDirectory{}
	for i := range channels {
		channels[i] = fmt.Sprintf("chaos-%02d", i)
		verifiers[i] = &ordering.ChainVerifier{}
		sb.Subscribe(channels[i], verifiers[i].Deliver)
		dir[channels[i]] = memberKeys
	}
	// The shard killShard and staleFollower aim at; neither is combined with
	// rebalancing, so the first channel stays on it.
	first := replicated[sb.ShardFor(channels[0])]
	shardmates := map[string]bool{}
	for _, ch := range channels {
		if replicated[sb.ShardFor(ch)] == first {
			shardmates[ch] = true
		}
	}

	cfg := Config{
		Stages: []StageConfig{
			{Name: StageSession, Params: map[string]string{"ttl": "10m", "idle": "10m"}},
			{Name: StageAuthn},
			{Name: StageRateLimit, Params: map[string]string{"rate": "1000000", "burst": "1000000"}},
			{Name: StageEncrypt, Params: map[string]string{"keyttl": "10m"}},
			{Name: StageAudit, Params: map[string]string{"observer": "gateway-op"}},
			{Name: StageBreaker, Params: map[string]string{"threshold": "5", "cooldown": chaosCooldown.String()}},
		},
		Shards: sc.shards,
	}
	env := Env{CAKey: ca.PublicKey(), Directory: dir, Log: log, Revoker: ca, Now: clock.now}
	gw, err := NewGateway("chaos-gw", cfg, env, sb)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)

	// One standing session per member, unbound, over the wire handshake.
	standing := frontOf(gw)
	grants := make(map[string]SessionGrant, len(members))
	for _, p := range members {
		if grants[p.name], err = standing.openWith(&Handshaker{Now: clock.now}, p); err != nil {
			t.Fatalf("open %s's standing session: %v", p.name, err)
		}
	}

	total := sc.submitters * sc.submissions
	revoked := members[len(members)-1]
	killAt, reviveAt := total/2, total*3/4
	// The revocation is driven by the revoked member's own progress, not the
	// global sequence: on few cores its submitters can finish before the
	// storm's halfway mark. The submitter whose acceptance crosses this
	// count has made at most submissions/2 submissions itself, so at least
	// one of its own follows the revocation.
	revokeAfter := int64(max(1, sc.submissions/2))

	var (
		counter    atomic.Int64 // global submission sequence driving fault triggers
		succeeded  atomic.Int64
		revokedOK  atomic.Int64 // the to-be-revoked member's accepted submissions
		revokedRej atomic.Int64
		// resumeSessions: revocationDone is set once ca.Revoke has returned,
		// so an open that starts after reading it true must be refused.
		revocationDone atomic.Bool
		resumedOpens   atomic.Int64
		refusedOpens   atomic.Int64

		failMu     sync.Mutex
		failed     = map[chaosFailure]int{}
		violations []string

		faultMu    sync.Mutex // serializes fault injections
		shardAlive = true
		// killBit is closed once a submission has met the dead shard; the
		// revival waits for it.
		killBit = make(chan struct{})
		// staleFollower's progress: how many of its three faults ran, and
		// the nodes they took down.
		staleStage                int
		staleFollower, staleFirst string
	)
	classify := func(err error) string {
		switch {
		case errors.Is(err, ordering.ErrNoQuorum):
			return "no-quorum"
		case errors.Is(err, ErrCircuitOpen):
			return "circuit-open"
		case errors.Is(err, ErrSessionRevoked):
			return "session-revoked"
		default:
			return "other"
		}
	}
	// staleStep runs staleFollower's next fault, if the channel has a serving
	// leader to aim it at; if not, the storm's next submission tries again.
	staleStep := func() {
		c, err := first.Cluster(channels[0])
		if err != nil {
			return
		}
		leader, err := c.Leader()
		if err != nil {
			return
		}
		switch staleStage {
		case 0:
			ops := first.Operators()
			staleFollower = ops[0]
			if staleFollower == leader {
				staleFollower = ops[1]
			}
			_ = c.Crash(staleFollower)
		case 1:
			staleFirst = leader
			_ = c.Crash(leader)
			_ = c.Restart(staleFollower)
		case 2:
			_ = c.Crash(leader)
			_ = c.Restart(staleFirst)
		}
		staleStage++
	}
	// The shard kill and its revival each belong to the one submitter whose
	// sequence number is the mark, which performs it before its own
	// submission. The killer then submits on the dead shard, and the revival
	// waits for that submission: the kill always costs at least one request,
	// however the goroutines are scheduled.
	setShard := func(alive bool) {
		faultMu.Lock()
		defer faultMu.Unlock()
		if alive {
			first.Revive()
		} else {
			first.Kill()
		}
		shardAlive = alive
	}
	// The recurring fault triggers run inline on whichever submitter draws a
	// matching sequence number, so the storm needs no side-channel timing;
	// TryLock keeps slow injections from serializing the whole storm behind
	// one submitter. A migration waits its turn instead, so none is skipped.
	inject := func(n int64) {
		if sc.rebalanceEvery > 0 && n%int64(sc.rebalanceEvery) == 0 {
			faultMu.Lock()
			ch := channels[int(n)/sc.rebalanceEvery%len(channels)]
			_ = sb.Migrate(ch, (sb.ShardFor(ch)+1)%sc.shards)
			_, _ = sb.Rebalance(2.0)
			faultMu.Unlock()
		}
		if !faultMu.TryLock() {
			return
		}
		defer faultMu.Unlock()
		if sc.staleFollower && staleStage < 3 && n >= int64(total*(staleStage+1)/4) {
			staleStep()
		}
		if sc.killLeaderEvery > 0 && n%int64(sc.killLeaderEvery) == 0 {
			ch := channels[int(n)%len(channels)]
			rs := replicated[sb.ShardFor(ch)]
			if dead, err := rs.CrashLeader(ch); err == nil {
				// Restart the dead node: it rejoins as a follower, so quorum
				// survives arbitrarily many kill rounds while leadership keeps
				// failing over.
				if c, cerr := rs.Cluster(ch); cerr == nil {
					_ = c.Restart(dead)
				}
			}
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < sc.submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := members[w%len(members)]
			// Each submitter is a client on a connection of its own, and
			// under resumeSessions its handshakes over it hold its secret.
			front := wireFront{gw: gw, ctx: context.Background(), conn: fmt.Sprintf("chaos-conn-%d", w)}
			handshakes := &Handshaker{Now: clock.now}
			for i := 0; i < sc.submissions; i++ {
				n := counter.Add(1)
				clock.advance(chaosStep)
				channel := channels[(w+i)%len(channels)]
				killer := sc.killShard && n == int64(killAt)
				switch {
				case killer:
					setShard(false)
					channel = channels[0]
				case sc.killShard && n == int64(reviveAt):
					<-killBit
					setShard(true)
				}
				inject(n)
				grant, err := grants[m.name], error(nil)
				if sc.resumeSessions {
					afterRevocation := m == revoked && revocationDone.Load()
					grant, err = front.openWith(handshakes, m)
					switch {
					case err == nil && afterRevocation:
						failMu.Lock()
						violations = append(violations, fmt.Sprintf("%s opened a session after its revocation (resumed: %v)", m.name, grant.Resumed))
						failMu.Unlock()
					case err != nil && afterRevocation:
						refusedOpens.Add(1)
					case err == nil && grant.Resumed:
						resumedOpens.Add(1)
					}
				}
				if err == nil {
					_, err = front.submit(sessionRequest(m, grant, channel, []byte(fmt.Sprintf("chaos w%d i%d", w, i))))
					if sc.resumeSessions {
						_ = front.close(grant.Token)
					}
				}
				if killer {
					close(killBit)
				}
				if err == nil {
					succeeded.Add(1)
					if sc.revokeMidStorm && m == revoked && revokedOK.Add(1) == revokeAfter {
						ca.Revoke(revoked.cert.Serial)
						revocationDone.Store(true)
					}
					continue
				}
				failMu.Lock()
				failed[chaosFailure{classify(err), channel}]++
				failMu.Unlock()
				if errors.Is(err, ErrSessionRevoked) && m == revoked {
					revokedRej.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()

	// Settle: revive anything still down, re-elect leaderless clusters, and
	// drain queues a mid-flush kill left behind.
	if (sc.killShard && !shardAlive) || sc.staleFollower {
		first.Revive()
	}
	for _, rs := range replicated {
		rs.ProbeHealth()
	}
	for _, ch := range channels {
		if c, err := replicated[sb.ShardFor(ch)].Cluster(ch); err == nil {
			_ = c.Flush()
		}
	}
	// Post-storm probe: every channel accepts traffic again once a circuit
	// a shard kill left open has cooled down.
	clock.advance(chaosCooldown)
	prober := members[0]
	for _, ch := range channels {
		if _, err := standing.submit(sessionRequest(prober, grants[prober.name], ch, []byte("chaos recovery probe "+ch))); err != nil {
			t.Fatalf("channel %s did not recover after the storm: %v", ch, err)
		}
	}

	r := &chaosReport{
		submitted:           total,
		succeeded:           int(succeeded.Load()),
		failed:              failed,
		revokedRejected:     int(revokedRej.Load()),
		resumedOpens:        int(resumedOpens.Load()),
		revokedOpensRefused: int(refusedOpens.Load()),
		violations:          violations,
		shardmates:          shardmates,
		migrations:          sb.Migrations(),
	}
	for _, rs := range replicated {
		r.failovers += rs.Failovers()
		r.positionInstalls += rs.PositionInstalls()
	}
	for i, v := range verifiers {
		r.delivered += v.Txs()
		for _, violation := range v.Violations() {
			r.violations = append(r.violations, channels[i]+": "+violation)
		}
	}
	sort.Strings(r.violations)
	return r
}

// TestChaos runs the gateway through each fault the harness injects. Every
// row asserts that no channel's block stream broke — no gap, no fork, no
// duplicate — and that every accepted submission and one recovery probe per
// channel were delivered exactly once, nothing more; then what that row's
// fault may and may not cost clients.
func TestChaos(t *testing.T) {
	// onlySessionRevoked fails on a failure of any class but the revoked
	// member's.
	onlySessionRevoked := func(t *testing.T, r *chaosReport) {
		t.Helper()
		for f := range r.failed {
			if f.class != "session-revoked" {
				t.Fatalf("unexpected failure class %q: %v", f.class, r.failed)
			}
		}
	}
	for _, row := range []struct {
		name     string
		scenario chaosScenario
		check    func(t *testing.T, r *chaosReport)
	}{
		{
			// The soak: leaders die every few dozen submissions, and a
			// channel migrates and a skew-driven rebalancing pass runs every
			// 80, so reused queue chunks are exported and adopted between
			// leader kills; yet every submission succeeds.
			name: "LeaderKillsAndRebalanceUnderLoad",
			scenario: chaosScenario{shards: 4, replicas: 3, channels: 8, submitters: 8, submissions: 30,
				killLeaderEvery: 25, rebalanceEvery: 80},
			check: func(t *testing.T, r *chaosReport) {
				// Leader kills are invisible to clients: the shard fails over
				// inside the submission.
				if r.succeeded != r.submitted {
					t.Fatalf("%d of %d submissions failed under leader chaos: %v",
						r.submitted-r.succeeded, r.submitted, r.failed)
				}
				if r.failovers == 0 {
					t.Fatal("no failovers ran; the chaos never hit a live leader")
				}
				if r.migrations == 0 {
					t.Fatal("no channel migrated; the storm never moved a queue between shards")
				}
			},
		},
		{
			// A whole shard dies mid-storm: the only submissions that may
			// fail are those routed to its channels, every other shard keeps
			// serving, and after revival every channel accepts traffic again.
			name: "ShardKillConfinesFailures",
			scenario: chaosScenario{shards: 4, replicas: 3, channels: 8, submitters: 6, submissions: 40,
				killShard: true},
			check: func(t *testing.T, r *chaosReport) {
				for f := range r.failed {
					if !r.shardmates[f.channel] {
						t.Fatalf("channel %s failed but lives outside the killed shard (failures: %v)", f.channel, r.failed)
					}
				}
				if r.succeeded == r.submitted {
					t.Fatal("no submission failed; the shard kill never bit")
				}
			},
		},
		{
			// A member's certificate is revoked mid-storm: every one of its
			// later submissions is rejected, and everyone else is untouched.
			name: "RevokeMidStorm",
			scenario: chaosScenario{shards: 2, replicas: 3, channels: 4, submitters: 6, submissions: 30,
				revokeMidStorm: true},
			check: func(t *testing.T, r *chaosReport) {
				if r.revokedRejected == 0 {
					t.Fatal("revoked member was never rejected")
				}
				// The revoked member's rejections are the only failures.
				if got := r.submitted - r.succeeded; got != r.revokedRejected {
					t.Fatalf("%d failures total but %d revocation rejections: %v", got, r.revokedRejected, r.failed)
				}
				onlySessionRevoked(t, r)
			},
		},
		{
			// The revocation storm with every submitter opening a session per
			// submission over the wire handshake, so the member being revoked
			// holds master secrets and is resuming when the revocation lands.
			// Holding a secret must buy it nothing: every open it starts
			// afterwards is refused — the resumed ones and the full ones its
			// clients fall back to — while everybody else keeps resuming.
			name: "RevokeWhileResuming",
			scenario: chaosScenario{shards: 2, replicas: 3, channels: 4, submitters: 6, submissions: 30,
				revokeMidStorm: true, resumeSessions: true},
			check: func(t *testing.T, r *chaosReport) {
				if r.revokedOpensRefused == 0 {
					t.Fatal("the revoked member never tried to open a session after its revocation")
				}
				// Six submitters, thirty opens each, one full handshake per
				// submitter (two for a client that met the swept table and
				// fell back).
				if r.resumedOpens < r.succeeded-2*6 {
					t.Fatalf("%d of %d accepted submissions rode a resumed session; the storm was not resuming", r.resumedOpens, r.succeeded)
				}
				if got := r.submitted - r.succeeded; got != r.revokedRejected || got < r.revokedOpensRefused {
					t.Fatalf("%d failures, %d revocation rejections, %d refused opens: %v",
						got, r.revokedRejected, r.revokedOpensRefused, r.failed)
				}
				onlySessionRevoked(t, r)
			},
		},
		{
			// A follower lags behind live traffic, comes back while its
			// cluster has no leader, and then stands against a node that
			// committed blocks it never saw. The other rows restart a node the
			// instant they kill it, so none of them ever has a lagging one;
			// this one forked the chain while replicas kept logs.
			name: "StaleFollowerKeepsOneChain",
			scenario: chaosScenario{shards: 2, replicas: 3, channels: 4, submitters: 6, submissions: 40,
				staleFollower: true},
			check: func(t *testing.T, r *chaosReport) {
				// Two nodes came back behind a leader and were brought level:
				// the follower at the election after its restart, the first
				// leader at the one after its own. Fewer means a stage never
				// ran.
				if r.positionInstalls < 2 || r.failovers < 2 {
					t.Fatalf("%d position installs over %d failovers, want at least 2 of each",
						r.positionInstalls, r.failovers)
				}
				// The only client-visible cost is on the staged channel, in
				// the instants a single node was up.
				for f := range r.failed {
					if f.channel != "chaos-00" {
						t.Fatalf("channel %s failed but only chaos-00 lost nodes (failures: %v)", f.channel, r.failed)
					}
				}
			},
		},
	} {
		t.Run(row.name, func(t *testing.T) {
			r := runChaos(t, row.scenario)
			if len(r.violations) != 0 {
				t.Fatalf("ordering violations:\n%s", strings.Join(r.violations, "\n"))
			}
			row.check(t, r)
			if want := r.succeeded + row.scenario.channels; r.delivered != want {
				t.Fatalf("delivered %d txs, want %d", r.delivered, want)
			}
		})
	}
}

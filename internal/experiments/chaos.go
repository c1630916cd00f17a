package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/middleware"
	"dltprivacy/internal/ordering"
	"dltprivacy/internal/pki"
)

// ChaosConfig shapes one chaos/soak run over a replicated sharded gateway.
type ChaosConfig struct {
	// Shards is the number of ordering shards; Replicas the operators per
	// shard (>= 3).
	Shards   int
	Replicas int
	// Channels spread the storm; Submitters goroutines each drive
	// Submissions requests round-robin over them.
	Channels    int
	Submitters  int
	Submissions int
	// KillLeaderEvery crashes (and restarts) the leader of some channel's
	// cluster every N global submissions; 0 disables leader chaos.
	KillLeaderEvery int
	// KillShard kills every operator of the first channel's shard at the
	// halfway mark and revives the shard at the three-quarter mark, to
	// verify failures stay confined to that shard's channels.
	KillShard bool
	// StaleFollower stages, on the first channel's cluster, the fault that
	// leaves a replica behind with nobody to bring it level: a follower
	// crashes at the quarter mark; at the halfway mark the leader is killed
	// and the follower restarted into the leaderless cluster; at the
	// three-quarter mark the next leader is killed and the first one
	// restarted, so the election is between the follower and a node that
	// committed blocks it never saw. Submissions on that channel may fail
	// with ErrNoQuorum in the instants only one node is up. Do not combine
	// with the other leader or shard kills, which would take the same nodes
	// down.
	StaleFollower bool
	// RebalanceEvery runs a skew-driven rebalancing pass every N global
	// submissions; 0 disables. Do not combine with KillShard — a dead
	// shard's low load reads as "cold" and attracts migrations.
	RebalanceEvery int
	// RevokeMidStorm revokes the last member's certificate once half of one
	// submitter's share (Submissions/2) of that member's own submissions
	// has been accepted; its remaining submissions must all be rejected.
	RevokeMidStorm bool
	// ResumeSessions makes every submitter a client on a connection of its
	// own that opens a session over the wire handshake before each
	// submission and closes it after — a full handshake first, resumed ones
	// from then on — instead of riding one standing session. With
	// RevokeMidStorm the revocation lands while the member is resuming:
	// every open it starts afterwards, resumed or full, must be refused with
	// ErrSessionRevoked, and nobody else's may fail.
	ResumeSessions bool
}

// ChaosReport is what a chaos run observed.
type ChaosReport struct {
	// Submitted counts every submission attempted; Succeeded those the
	// gateway accepted.
	Submitted int
	Succeeded int
	// Failed buckets rejected submissions by error class.
	Failed map[string]int
	// RevokedRejected counts the revoked member's post-revocation
	// submissions (all rejected; also present in Failed). Under
	// ResumeSessions a submission whose session could not be opened counts
	// as rejected with the open's error.
	RevokedRejected int
	// ResumedOpens counts sessions opened by a resume hello, and
	// RevokedOpensRefused the opens the revoked member started after its
	// revocation, all refused (ResumeSessions only).
	ResumedOpens        int
	RevokedOpensRefused int
	// Failovers, PositionInstalls and Migrations aggregate the ordering
	// tier's recovery and rebalancing activity during the storm.
	Failovers        uint64
	PositionInstalls uint64
	Migrations       uint64
	// Delivered maps channel -> transactions its subscriber saw.
	Delivered map[string]int
	// Violations lists per-channel ordering violations: out-of-order block
	// numbers, broken hash chains, duplicate transactions — and, under
	// ResumeSessions, any session a revoked member managed to open. A
	// healthy run has none, no matter what the chaos did.
	Violations []string
}

// RunChaos stands up a full gateway — session, authn, rate limit,
// envelope encryption, audit, retry, breaker — over a replicated sharded
// ordering tier and drives concurrent client traffic through it while
// injecting the configured faults: leader kills, a follower left behind and
// restarted into a leaderless cluster, a whole-shard kill and
// revival, skew-driven rebalancing, and mid-storm certificate revocation.
// It reports what clients and subscribers observed; the chaos suite
// asserts the invariants (no ordering violations, failures confined to
// the injected faults) on the report.
func RunChaos(cfg ChaosConfig) (*ChaosReport, error) {
	if cfg.Shards < 1 || cfg.Replicas < 3 || cfg.Channels < 1 || cfg.Submitters < 1 || cfg.Submissions < 1 {
		return nil, fmt.Errorf("experiments: chaos config needs shards/channels/submitters/submissions >= 1 and replicas >= 3, got %+v", cfg)
	}

	// Consortium: three members enrolled with the CA.
	ca, err := pki.NewCA("chaos-ca")
	if err != nil {
		return nil, err
	}
	members := []string{"org-a", "org-b", "org-c"}
	keys := make(map[string]*dcrypto.PrivateKey, len(members))
	certs := make(map[string]pki.Certificate, len(members))
	memberKeys := make(map[string]dcrypto.PublicKey, len(members))
	for _, m := range members {
		key, err := dcrypto.GenerateKey()
		if err != nil {
			return nil, err
		}
		cert, err := ca.Enroll(m, key.Public())
		if err != nil {
			return nil, err
		}
		keys[m], certs[m], memberKeys[m] = key, cert, key.Public()
	}

	// Replicated sharded ordering tier.
	log := audit.NewLog()
	shards := make([]ordering.Backend, cfg.Shards)
	replicated := make([]*ordering.ReplicatedShard, cfg.Shards)
	for i := range shards {
		ops := make([]string, cfg.Replicas)
		for r := range ops {
			ops[r] = fmt.Sprintf("chaos-op-%d-%d", i, r)
		}
		rs, err := ordering.NewReplicatedShard(ops, ordering.VisibilityEnvelope, ordering.WithShardAudit(log))
		if err != nil {
			return nil, err
		}
		shards[i] = rs
		replicated[i] = rs
	}
	sb, err := ordering.NewSharded(shards)
	if err != nil {
		return nil, err
	}

	channels := make([]string, cfg.Channels)
	verifiers := make([]*ordering.ChainVerifier, cfg.Channels)
	dir := middleware.StaticDirectory{}
	for i := range channels {
		channels[i] = fmt.Sprintf("chaos-%02d", i)
		verifiers[i] = &ordering.ChainVerifier{}
		sb.Subscribe(channels[i], verifiers[i].Deliver)
		dir[channels[i]] = memberKeys
	}

	gwCfg := middleware.Config{
		Stages: []middleware.StageConfig{
			{Name: middleware.StageSession, Params: map[string]string{
				"ttl": "10m", "idle": "10m", "reqauth": "mac", "revokecheck": "resolve",
			}},
			{Name: middleware.StageAuthn},
			{Name: middleware.StageRateLimit, Params: map[string]string{"rate": "1000000", "burst": "1000000"}},
			{Name: middleware.StageEncrypt, Params: map[string]string{"keyttl": "10m"}},
			{Name: middleware.StageAudit, Params: map[string]string{"observer": "gateway-op"}},
			{Name: middleware.StageRetry, Params: map[string]string{"attempts": "3", "backoff": "1ms"}},
			{Name: middleware.StageBreaker, Params: map[string]string{"threshold": "5", "cooldown": "20ms"}},
		},
		Shards: cfg.Shards,
	}
	env := middleware.Env{CAKey: ca.PublicKey(), Directory: dir, Log: log, Revoker: ca}
	gw, err := middleware.NewGateway("chaos-gw", gwCfg, env, sb)
	if err != nil {
		return nil, err
	}

	grants := make(map[string]middleware.SessionGrant, len(members))
	for _, m := range members {
		hello, err := middleware.NewSessionHello(m, certs[m], keys[m])
		if err != nil {
			return nil, err
		}
		grant, err := gw.Sessions().Open(hello)
		if err != nil {
			return nil, err
		}
		grants[m] = grant
	}

	total := cfg.Submitters * cfg.Submissions
	revoked := members[len(members)-1]
	killAt, reviveAt := total/2, total*3/4
	// The revocation is driven by the revoked member's own progress, not the
	// global sequence: on few cores its submitters can finish before the
	// storm's halfway mark. The submitter whose acceptance crosses this
	// count has made at most Submissions/2 submissions itself, so at least
	// one of its own follows the revocation.
	revokeAfter := int64(max(1, cfg.Submissions/2))

	var (
		counter    atomic.Int64 // global submission sequence driving fault triggers
		succeeded  atomic.Int64
		revokedOK  atomic.Int64 // the to-be-revoked member's accepted submissions
		revokedRej atomic.Int64
		// ResumeSessions: revocationDone is set once ca.Revoke has returned,
		// so an open that starts after reading it true must be refused.
		revocationDone atomic.Bool
		resumedOpens   atomic.Int64
		refusedOpens   atomic.Int64

		failMu     sync.Mutex
		failed     = map[string]int{}
		violations []string

		faultMu    sync.Mutex // serializes fault injections
		shardAlive = true
		// killBit is closed once a submission has met the dead shard; the
		// revival waits for it.
		killBit = make(chan struct{})
		// StaleFollower's progress: how many of its three faults ran, and
		// the nodes they took down.
		staleStage                int
		staleFollower, staleFirst string
	)
	classify := func(err error) string {
		switch {
		case errors.Is(err, ordering.ErrNoQuorum):
			return "no-quorum"
		case errors.Is(err, middleware.ErrCircuitOpen):
			return "circuit-open"
		case errors.Is(err, middleware.ErrSessionRevoked):
			return "session-revoked"
		default:
			return "other"
		}
	}
	// staleStep runs StaleFollower's next fault, if the channel has a serving
	// leader to aim it at; if not, the storm's next submission tries again.
	staleStep := func() {
		rs := replicated[sb.ShardFor(channels[0])]
		c, err := rs.Cluster(channels[0])
		if err != nil {
			return
		}
		leader, err := c.Leader()
		if err != nil {
			return
		}
		switch staleStage {
		case 0:
			ops := rs.Operators()
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
	// submission. (They used to go to whichever submitter past the mark won a
	// TryLock; a winner descheduled between the lock and the Kill let the
	// storm run past both marks, the revival followed the kill at once, and
	// the kill "never bit".) The killer then submits on the dead shard, and
	// the revival waits for that submission: the kill always costs at least
	// one request, however the goroutines are scheduled.
	setShard := func(alive bool) {
		faultMu.Lock()
		defer faultMu.Unlock()
		rs := replicated[sb.ShardFor(channels[0])]
		if alive {
			rs.Revive()
		} else {
			rs.Kill()
		}
		shardAlive = alive
	}
	// The recurring fault triggers run inline on whichever submitter draws a
	// matching sequence number, so the storm needs no side-channel timing;
	// TryLock keeps slow injections from serializing the whole storm behind
	// one submitter.
	inject := func(n int64) {
		if !faultMu.TryLock() {
			return
		}
		defer faultMu.Unlock()
		if cfg.StaleFollower && staleStage < 3 && n >= int64(total*(staleStage+1)/4) {
			staleStep()
		}
		if cfg.KillLeaderEvery > 0 && n%int64(cfg.KillLeaderEvery) == 0 {
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
		if cfg.RebalanceEvery > 0 && n%int64(cfg.RebalanceEvery) == 0 {
			_, _ = sb.Rebalance(2.0)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < cfg.Submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := members[w%len(members)]
			// ResumeSessions: this submitter's connection and what its
			// handshakes over it have established.
			conn := fmt.Sprintf("chaos-conn-%d", w)
			var handshakes middleware.Handshaker
			for i := 0; i < cfg.Submissions; i++ {
				n := counter.Add(1)
				channel := channels[(w+i)%len(channels)]
				killer := cfg.KillShard && n == int64(killAt)
				switch {
				case killer:
					setShard(false)
					channel = channels[0]
				case cfg.KillShard && n == int64(reviveAt):
					<-killBit
					setShard(true)
				}
				inject(n)
				req := &middleware.Request{
					Channel:   channel,
					Principal: m,
					Payload:   []byte(fmt.Sprintf("chaos w%d i%d", w, i)),
				}
				grant, err := grants[m], error(nil)
				if cfg.ResumeSessions {
					afterRevocation := m == revoked && revocationDone.Load()
					grant, err = handshakes.Open(context.Background(), m, certs[m], keys[m], func(ctx context.Context, hello []byte) ([]byte, error) {
						return gw.ServeWire(ctx, middleware.TopicSessionOpen, hello, conn)
					})
					switch {
					case err == nil && afterRevocation:
						failMu.Lock()
						violations = append(violations, fmt.Sprintf("%s opened a session after its revocation (resumed: %v)", m, grant.Resumed))
						failMu.Unlock()
					case err != nil && afterRevocation:
						refusedOpens.Add(1)
					case err == nil && grant.Resumed:
						resumedOpens.Add(1)
					}
					req.TransportID = conn
				}
				if err == nil {
					req.SessionToken = grant.Token
					middleware.MACRequest(req, grant.MacKey)
					err = gw.Submit(context.Background(), req)
					if cfg.ResumeSessions {
						_ = gw.Sessions().CloseFrom(grant.Token, conn)
					}
				}
				if killer {
					close(killBit)
				}
				if err == nil {
					succeeded.Add(1)
					if cfg.RevokeMidStorm && m == revoked && revokedOK.Add(1) == revokeAfter {
						ca.Revoke(certs[revoked].Serial)
						revocationDone.Store(true)
					}
					continue
				}
				failMu.Lock()
				failed[classify(err)+" @ "+req.Channel]++
				failMu.Unlock()
				if errors.Is(err, middleware.ErrSessionRevoked) && m == revoked {
					revokedRej.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()

	// Settle: revive anything still down, re-elect leaderless clusters, and
	// drain queues a mid-flush kill left behind.
	faultMu.Lock()
	if (cfg.KillShard && !shardAlive) || cfg.StaleFollower {
		replicated[sb.ShardFor(channels[0])].Revive()
		shardAlive = true
	}
	faultMu.Unlock()
	for _, rs := range replicated {
		rs.ProbeHealth()
	}
	for _, ch := range channels {
		rs := replicated[sb.ShardFor(ch)]
		c, err := rs.Cluster(ch)
		if err != nil {
			continue
		}
		_ = c.Flush()
	}
	// Post-storm probe: every channel must accept traffic again (the
	// breaker may still be cooling down from a shard kill, so allow it the
	// configured cooldown).
	deadline := time.Now().Add(2 * time.Second)
	for _, ch := range channels {
		for {
			req := &middleware.Request{
				Channel:      ch,
				Principal:    members[0],
				Payload:      []byte("chaos recovery probe " + ch),
				SessionToken: grants[members[0]].Token,
			}
			middleware.MACRequest(req, grants[members[0]].MacKey)
			err := gw.Submit(context.Background(), req)
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("experiments: channel %s did not recover after the storm: %w", ch, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	report := &ChaosReport{
		Submitted:       total,
		Succeeded:       int(succeeded.Load()),
		Failed:          failed,
		RevokedRejected: int(revokedRej.Load()),

		ResumedOpens:        int(resumedOpens.Load()),
		RevokedOpensRefused: int(refusedOpens.Load()),
		Violations:          violations,
		Migrations:          sb.Migrations(),
		Delivered:           make(map[string]int, len(channels)),
	}
	for _, rs := range replicated {
		report.Failovers += rs.Failovers()
		report.PositionInstalls += rs.PositionInstalls()
	}
	for i, v := range verifiers {
		report.Delivered[channels[i]] = v.Txs()
		for _, violation := range v.Violations() {
			report.Violations = append(report.Violations, channels[i]+": "+violation)
		}
	}
	sort.Strings(report.Violations)
	return report, nil
}

// FailedOnChannels returns the distinct channels named in the report's
// failure buckets — the blast radius of whatever chaos ran.
func (r *ChaosReport) FailedOnChannels() []string {
	seen := map[string]bool{}
	for key := range r.Failed {
		if i := strings.LastIndex(key, " @ "); i >= 0 {
			seen[key[i+3:]] = true
		}
	}
	out := make([]string, 0, len(seen))
	for ch := range seen {
		out = append(out, ch)
	}
	sort.Strings(out)
	return out
}

package main

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dltprivacy/internal/middleware"
)

// loadResult is what the client side of one measured phase observed.
type loadResult struct {
	attempted int
	failed    int
	firstErr  error

	latencies []time.Duration // submit -> ack (open-loop probe: due -> ack)
	opens     []time.Duration // churn: OpenSession call times
	gaps      []time.Duration // CrashLeader return -> next ack on that channel

	// Open-loop probe only.
	lags  []time.Duration // send start minus due time
	late  int
	limit time.Duration
}

func (r *loadResult) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

func (r *loadResult) merge(o *loadResult) {
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
	r.latencies = append(r.latencies, o.latencies...)
	r.opens = append(r.opens, o.opens...)
}

// submitter is one client worker's scratch: the request under
// construction and its payload buffer, reused across submissions so the
// client adds one allocation (the encoded frame) per request of its own.
type submitter struct {
	req     middleware.Request
	payload []byte
	tag     [32]byte
}

// encode builds the wire frame of request seq on session s: the session's
// trade with the stamp over its head, MAC'd under the session key, in the
// binary codec. A traced request also carries its sequence number in Meta
// (see metaSpan).
func (sub *submitter) encode(s *clientSession, seq int, traced bool) ([]byte, error) {
	sub.payload = append(sub.payload[:0], s.template...)
	stampPayload(sub.payload, s.index, uint64(seq))
	sub.req = middleware.Request{
		Channel:      s.channel,
		Principal:    s.principal.name,
		Payload:      sub.payload,
		SessionToken: s.token,
	}
	d := sub.req.Digest()
	sub.tag = s.mac.Sum(d[:])
	sub.req.MAC = sub.tag[:]
	if traced {
		sub.req.Meta = map[string]string{metaSpan: strconv.Itoa(seq)}
	}
	return middleware.EncodeWireRequest(&sub.req, middleware.CodecBinary)
}

// submit sends request seq on session s and waits for the ack, returning
// the submit -> ack time.
func (a *assembly) submit(ctx context.Context, sub *submitter, s *clientSession, seq int, ct *clientTrace) (time.Duration, error) {
	wire, err := sub.encode(s, seq, a.rec != nil)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	reply, err := s.conn.Call(ctx, middleware.TopicSubmit, wire)
	d := time.Since(start)
	if err == nil && ct != nil {
		t0 := int64(start.Sub(a.rec.epoch))
		ct.record(seq, t0, t0+int64(d), reply)
	}
	return d, err
}

// warmUp submits once on every channel before anything is measured: a
// channel's first submission installs its data-key epoch, wrapping the key
// for every enrolled member (~5 ms at 50 members), which is lazy set-up,
// not steady state. Warm-up requests take sequence numbers past the
// measured ones. It returns how many submissions it made.
func (a *assembly) warmUp(ctx context.Context, firstSeq int) (int, error) {
	err := eachIndex(ctx, len(a.channels), len(a.channels), func(ctx context.Context, c int) error {
		var s *clientSession
		if a.spec.Kind == churnLoop {
			// Principal p's visits go to channel p mod channels.
			p := c % len(a.principals)
			var err error
			if s, err = a.openSession(ctx, p, a.conns[c%len(a.conns)], &a.principals[p], a.churnChannel(p)); err != nil {
				return err
			}
			// A close that fails leaves one idle session behind for the
			// gateway to expire; nothing depends on it.
			defer func() { _ = s.conn.CloseSession(ctx, s.token) }()
		} else {
			for _, candidate := range a.sessions {
				if candidate.channelIdx == c {
					s = candidate
					break
				}
			}
			if s == nil {
				return fmt.Errorf("no session talks on channel %s", a.channels[c])
			}
		}
		if _, err := a.submit(ctx, &submitter{}, s, firstSeq+c, nil); err != nil {
			return fmt.Errorf("warm-up on %s: %w", s.channel, err)
		}
		return nil
	})
	return len(a.channels), err
}

// runWorkers starts workers goroutines, releases them together, and merges
// what they observed.
func runWorkers(workers int, body func(w int, res *loadResult)) loadResult {
	results := make([]loadResult, workers)
	var ready, done sync.WaitGroup
	release := make(chan struct{})
	for w := 0; w < workers; w++ {
		ready.Add(1)
		done.Add(1)
		go func(w int) {
			defer done.Done()
			ready.Done()
			<-release
			body(w, &results[w])
		}(w)
	}
	ready.Wait()
	close(release)
	done.Wait()
	var out loadResult
	for i := range results {
		out.merge(&results[i])
	}
	return out
}

// runClosed drives spec.Ops submissions with spec.InFlight requests in
// flight on every connection. Workers claim sequence numbers from one
// counter, so the total is fixed while the split between connections
// follows their speed; each worker cycles through its own slice of its
// connection's sessions.
func (a *assembly) runClosed(ctx context.Context, ct *clientTrace, y *yardstick) loadResult {
	ops, perConn := a.spec.Ops, a.spec.InFlight
	var next atomic.Int64
	f := a.startFaults(ops)
	out := runWorkers(len(a.conns)*perConn, func(w int, res *loadResult) {
		var mine []*clientSession
		for i, s := range a.sessionsOf(w / perConn) {
			if i%perConn == w%perConn {
				mine = append(mine, s)
			}
		}
		if len(mine) == 0 {
			res.firstErr = fmt.Errorf("worker %d has no sessions (%d sessions over %d workers)", w, len(a.sessions), len(a.conns)*perConn)
			return
		}
		share := 2*ops/(len(a.conns)*perConn) + 64
		res.latencies = make([]time.Duration, 0, share)
		sub := &submitter{}
		for i := 0; ; i++ {
			seq := int(next.Add(1)) - 1
			if seq >= ops {
				return
			}
			res.attempted++
			y.claimed(seq)
			f.sending(seq)
			s := mine[i%len(mine)]
			sent := time.Since(f.start)
			d, err := a.submit(ctx, sub, s, seq, ct)
			if err != nil {
				res.fail(err)
				continue
			}
			res.latencies = append(res.latencies, d)
			f.acked(s, sent, sent+d)
		}
	})
	out.gaps = f.stop()
	return out
}

// churnChannel is the channel principal p's churn visits submit on. Visits
// open their sessions as they go, so a churn submission's stamp names its
// principal instead of a standing session, and the payload check needs the
// principal to determine the channel.
func (a *assembly) churnChannel(p int) int { return p % len(a.channels) }

// runChurn drives spec.Ops visits: open a session, submit
// spec.SubmitsPerVisit times, close it. Every spec.AbandonEvery-th visit
// walks away without closing, the way a crashed client does; the
// per-principal session cap reaps those, so the session table sees
// inserts, deletes and cap evictions.
func (a *assembly) runChurn(ctx context.Context, ct *clientTrace, y *yardstick) loadResult {
	visits, per := a.spec.Ops, a.spec.SubmitsPerVisit
	order := a.rng.Perm(len(a.principals))
	var next atomic.Int64
	return runWorkers(len(a.conns)*a.spec.InFlight, func(w int, res *loadResult) {
		conn := a.conns[w/a.spec.InFlight]
		share := 2*visits/(len(a.conns)*a.spec.InFlight) + 16
		res.latencies = make([]time.Duration, 0, share*per)
		res.opens = make([]time.Duration, 0, share)
		sub := &submitter{}
		for {
			v := int(next.Add(1)) - 1
			if v >= visits {
				return
			}
			y.claimed(v)
			p := order[v%len(order)]
			start := time.Now()
			s, err := a.openSession(ctx, p, conn, &a.principals[p], a.churnChannel(p))
			if err != nil {
				res.attempted += per
				res.failed += per
				if res.firstErr == nil {
					res.firstErr = err
				}
				continue
			}
			res.opens = append(res.opens, time.Since(start))
			for j := 0; j < per; j++ {
				res.attempted++
				d, err := a.submit(ctx, sub, s, v*per+j, ct)
				if err != nil {
					res.fail(err)
					continue
				}
				res.latencies = append(res.latencies, d)
			}
			if a.spec.AbandonEvery > 0 && v%a.spec.AbandonEvery == a.spec.AbandonEvery-1 {
				continue
			}
			if err := conn.CloseSession(ctx, s.token); err != nil && res.firstErr == nil {
				res.firstErr = fmt.Errorf("close session: %w", err)
			}
		}
	})
}

// faults crashes (and restarts) the leader of a rotating channel's cluster
// every spec.FailoverEvery submissions, beside the load so a crash never
// delays a send, and measures how long each channel took to acknowledge
// again. It does nothing on solo shards.
type faults struct {
	a     *assembly
	every int
	start time.Time

	// crashedAt[c] is when channel c's leader went down (nanoseconds since
	// start), 0 once an ack for a request sent after that has been seen.
	crashedAt []atomic.Int64
	trigger   chan int
	done      sync.WaitGroup

	mu   sync.Mutex
	gaps []time.Duration
}

func (a *assembly) startFaults(ops int) *faults {
	f := &faults{a: a, every: a.spec.FailoverEvery, start: time.Now()}
	if f.every <= 0 || len(a.replicated) == 0 {
		f.every = 0
		return f
	}
	f.crashedAt = make([]atomic.Int64, len(a.channels))
	// One slot per injection the run can trigger: the load never blocks on
	// the injector.
	f.trigger = make(chan int, ops/f.every+1)
	f.done.Add(1)
	go func() {
		defer f.done.Done()
		for seq := range f.trigger {
			c := (seq / f.every) % len(a.channels)
			ch := a.channels[c]
			rs := a.replicated[a.sharded.ShardFor(ch)]
			dead, err := rs.CrashLeader(ch)
			if err != nil {
				continue // still leaderless from the previous round
			}
			// The dead node rejoins as a follower, so the cluster keeps its
			// quorum through any number of rounds while leadership keeps
			// failing over (as the chaos harness does).
			if cl, err := rs.Cluster(ch); err == nil {
				_ = cl.Restart(dead)
			}
			f.crashedAt[c].Store(int64(time.Since(f.start)))
		}
	}()
	return f
}

// sending is called as request seq is about to be sent.
func (f *faults) sending(seq int) {
	if f.every > 0 && seq > 0 && seq%f.every == 0 {
		f.trigger <- seq
	}
}

// acked is called with when (since f.start) a request on session s was
// sent and acknowledged; the first ack of a request sent after its
// channel's crash closes that failover's gap.
func (f *faults) acked(s *clientSession, sent, done time.Duration) {
	if f.every == 0 {
		return
	}
	at := &f.crashedAt[s.channelIdx]
	if t := at.Load(); t != 0 && int64(sent) >= t && at.CompareAndSwap(t, 0) {
		f.mu.Lock()
		f.gaps = append(f.gaps, done-time.Duration(t))
		f.mu.Unlock()
	}
}

// stop ends injection, elects a leader for any channel whose leader died
// after its last submission (the output checks need every chain live),
// and returns the failover gaps.
func (f *faults) stop() []time.Duration {
	if f.every == 0 {
		return nil
	}
	close(f.trigger)
	f.done.Wait()
	for _, rs := range f.a.replicated {
		rs.ProbeHealth()
	}
	return f.gaps
}

// runOpen is the open-loop probe: spec.Ops submissions on a seeded
// Poisson schedule at spec.RatePerS, with the same fault injection as the
// measured load. The schedule does not wait for an election: requests due
// while a channel has no leader are sent, and their wait is charged from
// the moment they were due.
func (a *assembly) runOpen(ctx context.Context) loadResult {
	due := poissonSchedule(a.rng, a.spec.Ops, a.spec.RatePerS)
	lanes := len(a.conns)
	laneSessions := make([][]*clientSession, lanes)
	for c := range laneSessions {
		laneSessions[c] = a.sessionsOf(c)
	}
	sessionFor := func(k int) *clientSession {
		ss := laneSessions[k%lanes]
		return ss[(k/lanes)%len(ss)]
	}
	f := a.startFaults(len(due))
	clk := wallClock{start: f.start}
	subs := make([]submitter, lanes)
	var errOnce sync.Once
	var firstErr error
	stats := runOpenLoop(clk, due, lanes,
		func(lane, k int) (func() error, error) {
			f.sending(k)
			s := sessionFor(k)
			wire, err := subs[lane].encode(s, k, false)
			if err != nil {
				return nil, err
			}
			p, err := s.conn.CallAsync(ctx, middleware.TopicSubmit, wire)
			if err != nil {
				return nil, err
			}
			return func() error {
				_, err := p.Wait(ctx)
				if err != nil {
					errOnce.Do(func() { firstErr = err })
				}
				return err
			}, nil
		},
		func(k int, sent, done time.Duration) { f.acked(sessionFor(k), sent, done) })
	res := loadResult{
		attempted: len(due),
		failed:    stats.failed,
		latencies: stats.latencies,
		lags:      stats.lags,
		late:      stats.late,
		gaps:      f.stop(),
		limit:     time.Duration(a.spec.LimitUS * float64(time.Microsecond)),
	}
	if stats.failed > 0 {
		res.firstErr = fmt.Errorf("%d of %d open-loop submissions failed, first: %v", stats.failed, len(due), firstErr)
	}
	return res
}

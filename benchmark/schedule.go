package main

import (
	"math/rand"
	"sync"
	"time"
)

// loopClock is the open loop's time source, relative to the loop's start.
// The real one reads the monotonic clock and sleeps; the tests drive a
// fake.
type loopClock interface {
	Now() time.Duration
	SleepUntil(t time.Duration)
}

type wallClock struct{ start time.Time }

func (c wallClock) Now() time.Duration { return time.Since(c.start) }

func (c wallClock) SleepUntil(t time.Duration) {
	if d := t - c.Now(); d > 0 {
		time.Sleep(d)
	}
}

// lateAfter is how far behind its due time a send may start before it
// counts as late. The Go timer wakes a sleeper some tens of microseconds
// after its deadline on an idle box and a few hundred under load; a
// millisecond is well clear of that and well under the latency limit.
const lateAfter = time.Millisecond

// poissonSchedule returns n due times with exponential inter-arrival gaps
// of mean 1/ratePerS, drawn from rng: independent users arriving at a
// fixed average rate.
func poissonSchedule(rng *rand.Rand, n int, ratePerS float64) []time.Duration {
	due := make([]time.Duration, n)
	t := 0.0
	for i := range due {
		t += rng.ExpFloat64() / ratePerS
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}

// openLoopStats is what one open-loop run observed.
type openLoopStats struct {
	latencies []time.Duration // ack time minus DUE time, per acknowledged request
	lags      []time.Duration // send start minus due time, per request sent
	late      int             // sends that started more than lateAfter behind
	failed    int
}

// runOpenLoop sends request k at due[k] whether or not earlier requests
// have been acknowledged. Requests are dealt round-robin over lanes (one
// per connection); each lane has a sender that never waits for an ack and
// a collector that does nothing else. send starts request k and returns
// the function that waits for its ack. acked, if non-nil, is told when
// each request was sent and acknowledged.
//
// Latency is charged from the due time, not the send time: if the sender
// stalls, the requests queued behind the stall waited that long from the
// point of view of the users who issued them.
func runOpenLoop(clk loopClock, due []time.Duration, lanes int,
	send func(lane, k int) (wait func() error, err error),
	acked func(k int, sent, done time.Duration)) openLoopStats {

	type inFlight struct {
		k    int
		sent time.Duration
		wait func() error
	}
	perLane := make([]openLoopStats, lanes)
	var wg sync.WaitGroup
	for lane := 0; lane < lanes; lane++ {
		// Sized to the lane's whole share of the schedule: the sender must
		// never block on its collector, or the loop would close.
		share := len(due)/lanes + 1
		queue := make(chan inFlight, share)
		st := &perLane[lane]
		st.lags = make([]time.Duration, 0, share)
		wg.Add(2)
		go func(lane int) {
			defer wg.Done()
			defer close(queue)
			for k := lane; k < len(due); k += lanes {
				clk.SleepUntil(due[k])
				sent := clk.Now()
				lag := sent - due[k]
				st.lags = append(st.lags, lag)
				if lag > lateAfter {
					st.late++
				}
				wait, err := send(lane, k)
				if err != nil {
					queue <- inFlight{k: k, sent: sent, wait: func() error { return err }}
					continue
				}
				queue <- inFlight{k: k, sent: sent, wait: wait}
			}
		}(lane)
		go func() {
			defer wg.Done()
			// The collector owns failed and latencies; the sender owns
			// lags and late. They meet only after wg.Wait.
			var failed int
			latencies := make([]time.Duration, 0, share)
			for f := range queue {
				if err := f.wait(); err != nil {
					failed++
					continue
				}
				done := clk.Now()
				latencies = append(latencies, done-due[f.k])
				if acked != nil {
					acked(f.k, f.sent, done)
				}
			}
			st.failed, st.latencies = failed, latencies
		}()
	}
	wg.Wait()
	var out openLoopStats
	for _, st := range perLane {
		out.latencies = append(out.latencies, st.latencies...)
		out.lags = append(out.lags, st.lags...)
		out.late += st.late
		out.failed += st.failed
	}
	return out
}

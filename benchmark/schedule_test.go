package main

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// fakeClock is a loopClock the test advances by hand: SleepUntil jumps
// straight to the deadline, and stall models a sender that was held up.
type fakeClock struct {
	mu  sync.Mutex
	now time.Duration
}

func (c *fakeClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(t time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.now {
		c.now = t
	}
}

func (c *fakeClock) stall(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += d
}

func TestOpenLoopChargesLatencyFromDueTime(t *testing.T) {
	const n = 200
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i+1) * time.Millisecond
	}
	// The service is instantaneous; the only delay in the system is a 50 ms
	// stall of the sender at request 20.
	const stallAt, stall = 20, 50 * time.Millisecond
	run := func(stalled bool) openLoopStats {
		clk := &fakeClock{}
		return runOpenLoop(clk, due, 1,
			func(_, k int) (func() error, error) {
				if stalled && k == stallAt {
					clk.stall(stall)
				}
				return func() error { return nil }, nil
			}, nil)
	}

	smooth := run(false)
	if smooth.late != 0 || smooth.failed != 0 || len(smooth.latencies) != n {
		t.Fatalf("smooth run: late=%d failed=%d acked=%d, want 0, 0, %d", smooth.late, smooth.failed, len(smooth.latencies), n)
	}

	got := run(true)
	if len(got.latencies) != n || got.failed != 0 {
		t.Fatalf("stalled run: acked=%d failed=%d, want %d, 0", len(got.latencies), got.failed, n)
	}
	// Requests 21..69 were due during the stall: each is sent the moment
	// the sender gets back, more than lateAfter behind its due time.
	if got.late < 45 || got.late > 50 {
		t.Errorf("late sends = %d, want the ~49 requests due during the stall", got.late)
	}
	if share := float64(got.late) / float64(len(got.lags)); share <= float64(smooth.late)/n {
		t.Errorf("late share %v did not rise above the smooth run's", share)
	}
	// The request due right after the stall began waited almost all of it,
	// although the service answered instantly: latency counts from when it
	// was DUE, not from when the stalled sender got round to it.
	var worst time.Duration
	for _, l := range got.latencies {
		worst = max(worst, l)
	}
	if worst < stall-2*time.Millisecond {
		t.Errorf("worst latency %v, want about the %v stall charged to the requests queued behind it", worst, stall)
	}
	for i, l := range got.latencies {
		if l < got.lags[i] {
			t.Fatalf("request %d: latency %v is less than its send lag %v", i, l, got.lags[i])
		}
	}
}

func TestOpenLoopCountsFailuresAndKeepsSending(t *testing.T) {
	due := poissonSchedule(rand.New(rand.NewSource(7)), 100, 1e6)
	var sent int
	st := runOpenLoop(&fakeClock{}, due, 1,
		func(_, k int) (func() error, error) {
			sent++
			if k%10 == 0 {
				return nil, errTest
			}
			return func() error { return nil }, nil
		}, nil)
	if sent != 100 || st.failed != 10 || len(st.latencies) != 90 {
		t.Errorf("sent=%d failed=%d acked=%d, want 100, 10, 90", sent, st.failed, len(st.latencies))
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(42)), 1000, 3000)
	b := poissonSchedule(rand.New(rand.NewSource(42)), 1000, 3000)
	c := poissonSchedule(rand.New(rand.NewSource(43)), 1000, 3000)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different schedule at %d", i)
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("schedule goes backwards at %d", i)
		}
		same = same && a[i] == c[i]
	}
	if same {
		t.Error("different seeds gave the same schedule")
	}
	// 1000 arrivals at 3000/s take about a third of a second.
	if end := a[len(a)-1]; end < 250*time.Millisecond || end > 420*time.Millisecond {
		t.Errorf("1000 arrivals at 3000/s end at %v", end)
	}
}

type testError string

func (e testError) Error() string { return string(e) }

const errTest = testError("refused")

package middleware

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"dltprivacy/internal/ordering"
)

// isFailoverWindow reports whether an error marks a backend that is
// electing a new sequencing leader rather than one that is down: the
// shard's own failover ends the window, so a closed circuit does not count
// these errors as failures.
func isFailoverWindow(err error) bool {
	return errors.Is(err, ordering.ErrNoLeader)
}

// breakerStage is a per-backend circuit breaker: after threshold consecutive
// downstream failures for a backend, it fails fast with ErrCircuitOpen
// until the cooldown elapses, then lets a single probe through (half-open)
// and closes again only if the probe succeeds. Requests with an empty
// Backend share one circuit keyed by channel.
type breakerStage struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	mu       sync.Mutex
	circuits map[string]*circuit
}

type circuitState int

const (
	stateClosed circuitState = iota
	stateOpen
	stateHalfOpen
)

type circuit struct {
	state    circuitState
	failures int
	openedAt time.Time
	// gen increments each time the circuit opens, so a success from a
	// request admitted before the trip cannot close it (bypassing the
	// cooldown the intervening failures established).
	gen uint64
}

// newBreaker creates the circuit-breaker stage.
func newBreaker(threshold int, cooldown time.Duration, now func() time.Time) (*breakerStage, error) {
	if threshold < 1 {
		return nil, fmt.Errorf("middleware: breaker needs threshold >= 1, got %d", threshold)
	}
	if cooldown <= 0 {
		return nil, fmt.Errorf("middleware: breaker needs cooldown > 0, got %v", cooldown)
	}
	if now == nil {
		now = time.Now
	}
	return &breakerStage{threshold: threshold, cooldown: cooldown, now: now, circuits: make(map[string]*circuit)}, nil
}

// Name implements Stage.
func (b *breakerStage) Name() string { return StageBreaker }

func (b *breakerStage) key(req *Request) string {
	if req.Backend != "" {
		return req.Backend
	}
	return "channel:" + req.Channel
}

// Handle implements Stage.
func (b *breakerStage) Handle(ctx context.Context, req *Request, next Handler) error {
	key := b.key(req)
	b.mu.Lock()
	c, ok := b.circuits[key]
	if !ok {
		c = &circuit{}
		b.circuits[key] = c
	}
	switch c.state {
	case stateOpen:
		if b.now().Sub(c.openedAt) < b.cooldown {
			b.mu.Unlock()
			return fmt.Errorf("%w: %s", ErrCircuitOpen, key)
		}
		// Cooldown elapsed: admit this request as the half-open probe.
		c.state = stateHalfOpen
	case stateHalfOpen:
		// A probe is already in flight; fail fast.
		b.mu.Unlock()
		return fmt.Errorf("%w: %s (probing)", ErrCircuitOpen, key)
	}
	gen := c.gen
	b.mu.Unlock()

	err := next(ctx, req)

	b.mu.Lock()
	defer b.mu.Unlock()
	if err != nil {
		if c.state == stateClosed && isFailoverWindow(err) {
			// A shard between leaders is healing, not down: its next
			// submission or health probe elects, so these errors must not
			// accumulate toward permanently tripping a healthy backend's
			// circuit. Quorum loss (ordering.ErrNoQuorum) is NOT exempt —
			// that shard genuinely cannot serve and should fail fast.
			return err
		}
		c.failures++
		if c.state == stateOpen {
			// Already open (tripped by concurrent requests); a stale
			// failure must not reset the cooldown window.
			return err
		}
		if c.state == stateHalfOpen || c.failures >= b.threshold {
			c.state = stateOpen
			c.openedAt = b.now()
			c.gen++
		}
		return err
	}
	if c.gen != gen {
		// The circuit opened while this request was in flight; its
		// success predates the failures and must not short the cooldown.
		return nil
	}
	c.state = stateClosed
	c.failures = 0
	return nil
}

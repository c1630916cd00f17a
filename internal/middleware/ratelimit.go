package middleware

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"
)

// rateLimitStage is a per-principal token bucket: each principal accrues Rate
// tokens per second up to Burst, and every submission spends one. A
// principal that exhausts its bucket gets ErrRateLimited without the
// request travelling further down the chain.
//
// Buckets idle long enough to have refilled completely are evicted (a full
// bucket is indistinguishable from a fresh one), so the table tracks the
// active principal set instead of growing one entry per principal forever.
type rateLimitStage struct {
	rate  float64
	burst float64
	now   func() time.Time

	mu      sync.Mutex
	buckets map[string]*bucket
	sweepAt time.Time
}

type bucket struct {
	tokens float64
	last   time.Time
}

// newRateLimit creates the rate-limit stage. rate is tokens per second,
// burst the bucket capacity (burst >= 1).
func newRateLimit(rate, burst float64, now func() time.Time) (*rateLimitStage, error) {
	if rate <= 0 || burst < 1 {
		return nil, fmt.Errorf("middleware: rate limit needs rate > 0 and burst >= 1, got rate=%g burst=%g", rate, burst)
	}
	if now == nil {
		now = time.Now
	}
	return &rateLimitStage{rate: rate, burst: burst, now: now, buckets: make(map[string]*bucket)}, nil
}

// Name implements Stage.
func (r *rateLimitStage) Name() string { return StageRateLimit }

// Handle implements Stage.
func (r *rateLimitStage) Handle(ctx context.Context, req *Request, next Handler) error {
	if !r.allow(req.Principal) {
		return fmt.Errorf("%w: principal %s", ErrRateLimited, req.Principal)
	}
	return next(ctx, req)
}

// refillWindow is how long a drained bucket takes to fill back to burst —
// past that idle time the bucket carries no information and is evictable.
func (r *rateLimitStage) refillWindow() time.Duration {
	secs := r.burst / r.rate
	if secs > float64(math.MaxInt64)/float64(time.Second) {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(secs * float64(time.Second))
}

// sweepLocked drops buckets idle past the refill window. Amortized: it
// runs at most once per window, so steady traffic pays O(1) per request.
func (r *rateLimitStage) sweepLocked(t time.Time) {
	window := r.refillWindow()
	if !r.sweepAt.IsZero() && t.Sub(r.sweepAt) < window {
		return
	}
	r.sweepAt = t
	for principal, b := range r.buckets {
		if t.Sub(b.last) >= window {
			delete(r.buckets, principal)
		}
	}
}

func (r *rateLimitStage) allow(principal string) bool {
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sweepLocked(t)
	b, ok := r.buckets[principal]
	if !ok {
		b = &bucket{tokens: r.burst, last: t}
		r.buckets[principal] = b
	}
	elapsed := t.Sub(b.last).Seconds()
	if elapsed > 0 {
		b.tokens += elapsed * r.rate
		if b.tokens > r.burst {
			b.tokens = r.burst
		}
		b.last = t
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

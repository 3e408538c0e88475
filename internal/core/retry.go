package core

import (
	"context"
	"fmt"
	"math/rand"
	"time"
)

// RetryPolicy drives retries of live-path operations with capped
// exponential backoff and deterministic jitter. The zero value is not
// useful; start from DefaultRetryPolicy and override fields. A policy is a
// value type: copying it is cheap and every Do call that backs off derives
// its own jitter RNG from Seed, so a shared policy is safe for concurrent
// use and retry schedules are reproducible run-to-run.
type RetryPolicy struct {
	// MaxAttempts bounds the total number of attempts, including the
	// first (<= 0 means 1: no retries).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry.
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth.
	MaxDelay time.Duration
	// Multiplier scales the delay between consecutive retries (values
	// below 1 are treated as 1).
	Multiplier float64
	// Jitter is the fraction of each delay randomized away, in [0, 1]:
	// the slept delay is d * (1 - Jitter*u) for uniform u. Deterministic
	// given Seed.
	Jitter float64
	// Seed seeds the jitter RNG. Two Do calls with equal policies produce
	// identical schedules.
	Seed int64
	// Budget bounds the total time spent across attempts and backoffs
	// (0 = unlimited). Once exceeded, Do stops retrying.
	Budget time.Duration

	// now and sleep are test seams; nil means the real clock.
	now   func() time.Time
	sleep func(ctx context.Context, d time.Duration) error
}

// DefaultRetryPolicy returns the live clients' retry settings: four
// attempts, 50 ms initial backoff doubling to a 2 s cap with 50% jitter,
// and a 10 s overall budget.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   50 * time.Millisecond,
		MaxDelay:    2 * time.Second,
		Multiplier:  2,
		Jitter:      0.5,
		Seed:        1,
		Budget:      10 * time.Second,
	}
}

// Delay returns the backoff before retry number `retry` (0-based), before
// jitter. Exported for tests and for documentation of the schedule.
func (p RetryPolicy) Delay(retry int) time.Duration {
	d := float64(p.BaseDelay)
	mult := p.Multiplier
	if mult < 1 {
		mult = 1
	}
	for i := 0; i < retry; i++ {
		d *= mult
		if p.MaxDelay > 0 && d >= float64(p.MaxDelay) {
			return p.MaxDelay
		}
	}
	if p.MaxDelay > 0 && d > float64(p.MaxDelay) {
		return p.MaxDelay
	}
	return time.Duration(d)
}

// jittered applies the policy's jitter to a delay using rng.
func (p RetryPolicy) jittered(d time.Duration, rng *rand.Rand) time.Duration {
	if p.Jitter <= 0 || d <= 0 {
		return d
	}
	j := p.Jitter
	if j > 1 {
		j = 1
	}
	return time.Duration(float64(d) * (1 - j*rng.Float64()))
}

func (p RetryPolicy) clock() func() time.Time {
	if p.now != nil {
		return p.now
	}
	return time.Now
}

func (p RetryPolicy) sleeper() func(context.Context, time.Duration) error {
	if p.sleep != nil {
		return p.sleep
	}
	return func(ctx context.Context, d time.Duration) error {
		if d <= 0 {
			return ctx.Err()
		}
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
			return nil
		}
	}
}

// Do runs fn until it succeeds, the context is done, or the policy's
// attempt/time budget runs out. On exhaustion the returned error wraps
// both ErrRetryBudgetExhausted and the last attempt's error, so callers
// can test either with errors.Is. op names the operation in error text.
func (p RetryPolicy) Do(ctx context.Context, op string, fn func(ctx context.Context) error) error {
	attempts := p.MaxAttempts
	if attempts <= 0 {
		attempts = 1
	}
	// The jitter source is built at the first backoff: seeding it costs
	// microseconds and kilobytes, and an attempt that succeeds never draws.
	var rng *rand.Rand
	now := p.clock()
	sleep := p.sleeper()
	start := now()

	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: %s canceled: %w", op, err)
		}
		lastErr = fn(ctx)
		if lastErr == nil {
			return nil
		}
		if attempt == attempts-1 {
			break
		}
		if rng == nil {
			rng = rand.New(rand.NewSource(p.Seed))
		}
		d := p.jittered(p.Delay(attempt), rng)
		if p.Budget > 0 && now().Sub(start)+d > p.Budget {
			return fmt.Errorf("core: %s: %w after %d attempts (budget %v): %w",
				op, ErrRetryBudgetExhausted, attempt+1, p.Budget, lastErr)
		}
		if err := sleep(ctx, d); err != nil {
			return fmt.Errorf("core: %s canceled during backoff: %w", op, err)
		}
	}
	return fmt.Errorf("core: %s: %w after %d attempts: %w",
		op, ErrRetryBudgetExhausted, attempts, lastErr)
}

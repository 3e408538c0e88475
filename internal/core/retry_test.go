package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"perdnn/internal/raceguard"
)

// fakeClock drives a RetryPolicy without real sleeping, recording the
// backoff schedule.
type fakeClock struct {
	t      time.Time
	slept  []time.Duration
	cancel func() // invoked before sleeping, to model mid-backoff cancel
}

func (c *fakeClock) install(p *RetryPolicy) {
	p.now = func() time.Time { return c.t }
	p.sleep = func(ctx context.Context, d time.Duration) error {
		if c.cancel != nil {
			c.cancel()
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		c.slept = append(c.slept, d)
		c.t = c.t.Add(d)
		return nil
	}
}

func TestRetryDelaySchedule(t *testing.T) {
	p := DefaultRetryPolicy()
	want := []time.Duration{50 * time.Millisecond, 100 * time.Millisecond,
		200 * time.Millisecond, 400 * time.Millisecond, 800 * time.Millisecond,
		1600 * time.Millisecond, 2 * time.Second, 2 * time.Second}
	for i, w := range want {
		if got := p.Delay(i); got != w {
			t.Errorf("Delay(%d) = %v, want %v", i, got, w)
		}
	}
}

func TestRetrySucceedsAfterFailures(t *testing.T) {
	p := DefaultRetryPolicy()
	var clk fakeClock
	clk.install(&p)
	calls := 0
	err := p.Do(context.Background(), "op", func(context.Context) error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
	if len(clk.slept) != 2 {
		t.Fatalf("slept %d times, want 2", len(clk.slept))
	}
	// Jitter keeps each delay within (1-Jitter)*d .. d.
	for i, d := range clk.slept {
		base := p.Delay(i)
		if d > base || d < time.Duration(float64(base)*(1-p.Jitter)) {
			t.Errorf("backoff %d = %v outside [%v, %v]", i,
				d, time.Duration(float64(base)*(1-p.Jitter)), base)
		}
	}
}

func TestRetryDeterministicJitter(t *testing.T) {
	schedule := func() []time.Duration {
		p := DefaultRetryPolicy()
		var clk fakeClock
		clk.install(&p)
		_ = p.Do(context.Background(), "op", func(context.Context) error {
			return errors.New("always")
		})
		return clk.slept
	}
	a, b := schedule(), schedule()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("schedules %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("backoff %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestRetryScheduleGolden pins the slept delays of an always-failing Do as
// literals: the schedule for a given policy is part of the contract (runs
// are reproducible from Seed), so a change to the jitter source, its seeding
// or its draw order must show up here.
func TestRetryScheduleGolden(t *testing.T) {
	cases := []struct {
		name   string
		policy RetryPolicy
		want   []time.Duration
	}{
		{"default", DefaultRetryPolicy(),
			[]time.Duration{34883492, 52974545, 133543994}},
		{"full jitter, capped", RetryPolicy{MaxAttempts: 6, BaseDelay: 10 * time.Millisecond,
			MaxDelay: 100 * time.Millisecond, Multiplier: 3, Jitter: 1, Seed: 42},
			[]time.Duration{6269716, 28019985, 35631553, 79118129, 95618154}},
		{"negative seed, quarter jitter", RetryPolicy{MaxAttempts: 5, BaseDelay: 20 * time.Millisecond,
			MaxDelay: time.Second, Multiplier: 1.5, Jitter: 0.25, Seed: -7, Budget: time.Minute},
			[]time.Duration{19594992, 24239037, 36467130, 66009599}},
	}
	for _, tc := range cases {
		p := tc.policy
		var clk fakeClock
		clk.install(&p)
		_ = p.Do(context.Background(), "op", func(context.Context) error {
			return errors.New("always")
		})
		if !slices.Equal(clk.slept, tc.want) {
			t.Errorf("%s: slept %d, want %d (ns)", tc.name, clk.slept, tc.want)
		}
	}
}

func succeed(context.Context) error { return nil }

// TestRetryDoHealthyPathAllocs: a Do whose first attempt succeeds draws no
// jitter, so it must not pay for the jitter source (one 4.9 KB allocation
// and ~10 µs of seeding) — the live client wraps every query in a Do.
func TestRetryDoHealthyPathAllocs(t *testing.T) {
	if raceguard.Enabled {
		t.Skip("race detector instrumentation allocates; gate runs in non-race builds")
	}
	p := DefaultRetryPolicy()
	ctx := context.Background()
	if n := testing.AllocsPerRun(200, func() {
		if err := p.Do(ctx, "op", succeed); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Do with a first-attempt success allocates %.1f/op, want 0", n)
	}
}

func BenchmarkRetryDoSuccess(b *testing.B) {
	p := DefaultRetryPolicy()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := p.Do(ctx, "op", succeed); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	p := DefaultRetryPolicy()
	var clk fakeClock
	clk.install(&p)
	sentinel := errors.New("connection refused")
	err := p.Do(context.Background(), "upload", func(context.Context) error {
		return fmt.Errorf("dialing: %w", sentinel)
	})
	if !errors.Is(err, ErrRetryBudgetExhausted) {
		t.Errorf("err %v is not ErrRetryBudgetExhausted", err)
	}
	if !errors.Is(err, sentinel) {
		t.Errorf("err %v does not wrap the last attempt's error", err)
	}
}

func TestRetryTimeBudget(t *testing.T) {
	p := DefaultRetryPolicy()
	p.MaxAttempts = 100
	p.Budget = 120 * time.Millisecond
	p.Jitter = 0
	var clk fakeClock
	clk.install(&p)
	calls := 0
	err := p.Do(context.Background(), "op", func(context.Context) error {
		calls++
		return errors.New("down")
	})
	if !errors.Is(err, ErrRetryBudgetExhausted) {
		t.Fatalf("err = %v", err)
	}
	// 50ms + 100ms fits in no budget beyond the first backoff: attempt 1,
	// sleep 50ms, attempt 2, next backoff 100ms would overrun 120ms.
	if calls != 2 {
		t.Errorf("calls = %d, want 2 (budget should stop the third)", calls)
	}
}

func TestRetryContextCancel(t *testing.T) {
	p := DefaultRetryPolicy()
	ctx, cancel := context.WithCancel(context.Background())
	clk := fakeClock{cancel: cancel}
	clk.install(&p)
	calls := 0
	err := p.Do(ctx, "op", func(context.Context) error {
		calls++
		return errors.New("down")
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Errorf("calls = %d, want 1", calls)
	}
}

func TestRetryNoRetriesPolicy(t *testing.T) {
	p := RetryPolicy{} // zero value: one attempt
	calls := 0
	err := p.Do(context.Background(), "op", func(context.Context) error {
		calls++
		return errors.New("down")
	})
	if calls != 1 {
		t.Errorf("calls = %d, want 1", calls)
	}
	if !errors.Is(err, ErrRetryBudgetExhausted) {
		t.Errorf("err = %v", err)
	}
}

func TestSentinelsDistinct(t *testing.T) {
	sentinels := []error{ErrServerDown, ErrMasterDown, ErrRetryBudgetExhausted, ErrLocalFallback}
	for i, a := range sentinels {
		for j, b := range sentinels {
			if (i == j) != errors.Is(a, b) {
				t.Errorf("sentinel identity broken between %v and %v", a, b)
			}
		}
	}
}

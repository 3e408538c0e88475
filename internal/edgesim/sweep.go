package edgesim

import (
	"context"
	"runtime"
	"sync"
)

// SweepRun pairs a prepared environment with one city-run configuration —
// one cell of an experiment sweep (dataset × model × mode × radius).
type SweepRun struct {
	Env *Env
	Cfg CityConfig
}

// SweepOutcome is the result of one sweep cell, stored at the same index
// as its SweepRun. Exactly one of Result and Err is non-nil.
type SweepOutcome struct {
	Run    SweepRun
	Result *CityResult
	Err    error
}

// SweepConfigs builds sweep runs for several configurations against one
// environment, preserving order.
func SweepConfigs(env *Env, cfgs ...CityConfig) []SweepRun {
	runs := make([]SweepRun, 0, len(cfgs))
	for _, cfg := range cfgs {
		runs = append(runs, SweepRun{Env: env, Cfg: cfg})
	}
	return runs
}

// RunSweepContext executes the given simulation runs concurrently on a
// bounded worker pool and returns their outcomes in input order. workers
// <= 0 uses GOMAXPROCS. Each run is the same deterministic RunCityContext
// call it would be sequentially — environments are read-only, every run
// owns its servers and planner state, and the shared plan cache returns
// identical immutable entries to every run — so the outcomes are
// byte-identical for every worker count, including 1. With more than one
// worker a run whose Shards is 0 runs on one engine: the pool's other runs
// already fill the cores (see shardCount).
//
// One run's failure does not stop the others; callers inspect per-outcome
// errors (or use SweepErr for the first one). Runs already in flight when
// the context is canceled abort at their next movement tick, runs not yet
// started fail immediately, and every outcome whose run was cut short
// carries the context error.
func RunSweepContext(ctx context.Context, runs []SweepRun, workers int) []SweepOutcome {
	out := make([]SweepOutcome, len(runs))
	pool := poolSize(len(runs), workers)
	forEachOrdered(len(runs), pool, func(i int) {
		if err := ctx.Err(); err != nil {
			out[i] = SweepOutcome{Run: runs[i], Err: err}
			return
		}
		cfg := runs[i].Cfg
		if env := runs[i].Env; env != nil {
			cfg.Shards = shardCount(cfg, env.Placement.Len(), pool)
		}
		res, err := RunCityContext(ctx, runs[i].Env, cfg)
		out[i] = SweepOutcome{Run: runs[i], Result: res, Err: err}
	})
	return out
}

// forEachOrdered calls do(i) for every i in [0, n) on a pool of workers
// goroutines (<= 0 means GOMAXPROCS, and never more than n), handing out
// indexes in increasing order; it returns when every call has. Callers
// store results by index, so the output order is the input order at every
// worker count.
func forEachOrdered(n, workers int, do func(i int)) {
	workers = poolSize(n, workers)
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				do(i)
			}
		}()
	}
	wg.Wait()
}

// poolSize is the number of goroutines forEachOrdered runs for n calls
// on workers (<= 0 means GOMAXPROCS): never more than n.
func poolSize(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, n)
}

// SweepErr returns the first error among the outcomes, or nil.
func SweepErr(outs []SweepOutcome) error {
	for _, o := range outs {
		if o.Err != nil {
			return o.Err
		}
	}
	return nil
}

package edgesim

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"perdnn/internal/dnn"
)

// sweepCfgs is a small but varied sweep: three models, all four modes, two
// radii, capped playback so the whole matrix stays fast.
func sweepCfgs() []CityConfig {
	specs := []struct {
		model  dnn.ModelName
		mode   Mode
		radius float64
	}{
		{dnn.ModelMobileNet, ModeIONN, 0},
		{dnn.ModelMobileNet, ModePerDNN, 50},
		{dnn.ModelResNet, ModePerDNN, 100},
		{dnn.ModelResNet, ModeOptimal, 0},
		{dnn.ModelInception, ModeRouting, 0},
	}
	cfgs := make([]CityConfig, 0, len(specs))
	for _, s := range specs {
		cfg := DefaultCityConfig(s.model, s.mode, s.radius)
		cfg.MaxSteps = 40
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// TestRunSweepMatchesSequential: the parallel sweep must produce results
// byte-identical to the same RunCity calls made one after another, at any
// worker count.
func TestRunSweepMatchesSequential(t *testing.T) {
	env := smallEnv(t)
	cfgs := sweepCfgs()

	seq := make([]*CityResult, len(cfgs))
	for i, cfg := range cfgs {
		res, err := RunCity(env, cfg)
		if err != nil {
			t.Fatalf("sequential run %d: %v", i, err)
		}
		seq[i] = res
	}

	for _, workers := range []int{1, 4} {
		outs := RunSweepContext(context.Background(), SweepConfigs(env, cfgs...), workers)
		if len(outs) != len(cfgs) {
			t.Fatalf("workers=%d: %d outcomes for %d runs", workers, len(outs), len(cfgs))
		}
		if err := SweepErr(outs); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, o := range outs {
			if o.Run.Cfg.Model != cfgs[i].Model || o.Run.Cfg.Mode != cfgs[i].Mode {
				t.Fatalf("workers=%d: outcome %d out of order", workers, i)
			}
			if !reflect.DeepEqual(o.Result, seq[i]) {
				t.Errorf("workers=%d: run %d (%s/%s) diverged from sequential",
					workers, i, cfgs[i].Model, cfgs[i].Mode)
			}
		}
	}
}

// TestRunSweepPerRunErrors: one bad configuration fails its own cell and
// leaves the rest of the sweep intact, in order.
func TestRunSweepPerRunErrors(t *testing.T) {
	env := smallEnv(t)
	good := DefaultCityConfig(dnn.ModelMobileNet, ModeIONN, 0)
	good.MaxSteps = 20
	bad := DefaultCityConfig("bogus", ModeIONN, 0)
	bad.MaxSteps = 20

	outs := RunSweepContext(context.Background(), SweepConfigs(env, good, bad, good), 2)
	if outs[0].Err != nil || outs[2].Err != nil {
		t.Fatalf("good runs failed: %v, %v", outs[0].Err, outs[2].Err)
	}
	if outs[1].Err == nil {
		t.Fatal("bad run did not fail")
	}
	if outs[1].Result != nil {
		t.Fatal("failed run has a result")
	}
	if SweepErr(outs) == nil {
		t.Fatal("SweepErr missed the failure")
	}
	if !reflect.DeepEqual(outs[0].Result, outs[2].Result) {
		t.Error("identical configs produced different results")
	}
}

// TestRunSweepEmptyAndWorkerClamp: degenerate inputs are harmless.
func TestRunSweepEmptyAndWorkerClamp(t *testing.T) {
	if outs := RunSweepContext(context.Background(), nil, 8); len(outs) != 0 {
		t.Fatalf("empty sweep returned %d outcomes", len(outs))
	}
	env := smallEnv(t)
	cfg := DefaultCityConfig(dnn.ModelMobileNet, ModeOptimal, 0)
	cfg.MaxSteps = 10
	outs := RunSweepContext(context.Background(), SweepConfigs(env, cfg), 64) // workers ≫ runs
	if len(outs) != 1 || outs[0].Err != nil {
		t.Fatalf("single-run sweep: %+v", outs)
	}
}

// TestConcurrentRunCitySharedEnv drives several RunCity calls over one Env
// from separate goroutines — the invariant RunSweepContext relies on, and the
// scenario the race detector checks in CI. Identical configs must agree.
func TestConcurrentRunCitySharedEnv(t *testing.T) {
	env := smallEnv(t)
	cfg := DefaultCityConfig(dnn.ModelResNet, ModePerDNN, 100)
	cfg.MaxSteps = 30

	const n = 4
	results := make([]*CityResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = RunCity(env, cfg)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Errorf("run %d diverged from run 0 on a shared Env", i)
		}
	}
}

package edgesim

import (
	"context"
	"sync"
	"testing"
	"time"

	"perdnn/internal/dnn"
	"perdnn/internal/trace"
)

// smallEnvOnce caches a reduced KAIST-like environment: it keeps city
// tests fast while exercising every code path, and is safe to share
// because RunCity never mutates its Env.
var smallEnvOnce = sync.OnceValues(func() (*Env, error) {
	cfg := trace.KAISTConfig()
	cfg.TrainUsers = 10
	cfg.TestUsers = 8
	cfg.Duration = 50 * time.Minute
	base, err := trace.Generate(cfg)
	if err != nil {
		return nil, err
	}
	ecfg := DefaultEnvConfig()
	ecfg.MaxTrainWindows = 4000
	return PrepareEnv(base, ecfg)
})

func smallEnv(t *testing.T) *Env {
	t.Helper()
	env, err := smallEnvOnce()
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestRunCityValidation(t *testing.T) {
	env := smallEnv(t)
	if _, err := RunCity(nil, DefaultCityConfig(dnn.ModelMobileNet, ModeIONN, 0)); err == nil {
		t.Error("nil env accepted")
	}
	cfg := DefaultCityConfig(dnn.ModelMobileNet, Mode(0), 0)
	if _, err := RunCity(env, cfg); err == nil {
		t.Error("invalid mode accepted")
	}
	cfg = DefaultCityConfig("bogus", ModeIONN, 0)
	if _, err := RunCity(env, cfg); err == nil {
		t.Error("unknown model accepted")
	}
	cfg = DefaultCityConfig(dnn.ModelMobileNet, ModeIONN, 0)
	cfg.TTLIntervals = 0
	if _, err := RunCity(env, cfg); err == nil {
		t.Error("zero TTL accepted")
	}
}

func TestCityModesOrdering(t *testing.T) {
	env := smallEnv(t)
	run := func(mode Mode, radius float64) *CityResult {
		cfg := DefaultCityConfig(dnn.ModelResNet, mode, radius)
		res, err := RunCity(env, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ionn := run(ModeIONN, 0)
	pm50 := run(ModePerDNN, 50)
	pm100 := run(ModePerDNN, 100)
	opt := run(ModeOptimal, 0)

	if ionn.HitRatio() != 0 {
		t.Errorf("IONN hit ratio %v, want 0", ionn.HitRatio())
	}
	if opt.HitRatio() != 1 {
		t.Errorf("Optimal hit ratio %v, want 1", opt.HitRatio())
	}
	if pm50.HitRatio() <= 0 {
		t.Error("PerDNN r=50 has zero hit ratio")
	}
	if pm100.HitRatio() < pm50.HitRatio() {
		t.Errorf("hit ratio r=100 (%v) below r=50 (%v)", pm100.HitRatio(), pm50.HitRatio())
	}
	// Fig 9 ordering: baseline <= PerDNN <= optimal on cold-start-window
	// queries (small slack for stochastic GPU noise).
	if float64(pm100.WindowQueries) < float64(ionn.WindowQueries)*1.02 {
		t.Errorf("PerDNN window queries %d not above IONN %d", pm100.WindowQueries, ionn.WindowQueries)
	}
	if pm100.WindowQueries > opt.WindowQueries*101/100 {
		t.Errorf("PerDNN window queries %d exceed optimal %d", pm100.WindowQueries, opt.WindowQueries)
	}
	// All modes see the same movement, hence the same connection count.
	if ionn.Connections != pm100.Connections || opt.Connections != ionn.Connections {
		t.Errorf("connection counts differ: %d/%d/%d", ionn.Connections, pm100.Connections, opt.Connections)
	}
	// Only PerDNN uses the backhaul.
	if up, down := ionn.Traffic.TotalBytes(); up != 0 || down != 0 {
		t.Error("baseline generated backhaul traffic")
	}
	if up, _ := pm100.Traffic.TotalBytes(); up == 0 {
		t.Error("PerDNN generated no backhaul traffic")
	}
	if up, down := pm100.Traffic.TotalBytes(); up != down {
		t.Errorf("backhaul bytes asymmetric: up %d down %d", up, down)
	}
}

func TestCityDeterministic(t *testing.T) {
	env := smallEnv(t)
	cfg := DefaultCityConfig(dnn.ModelMobileNet, ModePerDNN, 100)
	a, err := RunCity(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCity(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.WindowQueries != b.WindowQueries || a.TotalQueries != b.TotalQueries ||
		a.Hits != b.Hits || a.Misses != b.Misses {
		t.Errorf("runs differ: %+v vs %+v", a, b)
	}
}

func TestCityMaxSteps(t *testing.T) {
	env := smallEnv(t)
	cfg := DefaultCityConfig(dnn.ModelMobileNet, ModeIONN, 0)
	cfg.MaxSteps = 10
	short, err := RunCity(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxSteps = 0
	full, err := RunCity(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if short.TotalQueries >= full.TotalQueries {
		t.Errorf("truncated run executed %d >= full %d", short.TotalQueries, full.TotalQueries)
	}
}

func TestCityTTLAblation(t *testing.T) {
	env := smallEnv(t)
	run := func(ttl int) *CityResult {
		cfg := DefaultCityConfig(dnn.ModelResNet, ModePerDNN, 100)
		cfg.TTLIntervals = ttl
		res, err := RunCity(env, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	short := run(1)
	long := run(5)
	if long.HitRatio() < short.HitRatio() {
		t.Errorf("longer TTL lowered hit ratio: %v -> %v", short.HitRatio(), long.HitRatio())
	}
}

func TestRunFractional(t *testing.T) {
	env := smallEnv(t)
	cfg := DefaultCityConfig(dnn.ModelInception, ModePerDNN, 100)
	m := dnn.Inception21k()
	out, err := RunFractional(context.Background(), env, cfg, 0.06, m.TotalWeightBytes()/3)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Crowded) == 0 {
		t.Fatal("no crowded servers selected")
	}
	_, fullPeak := out.Full.Traffic.PeakUp()
	_, cappedPeak := out.Capped.Traffic.PeakUp()
	if cappedPeak >= fullPeak {
		t.Errorf("fractional migration did not cut peak: %v -> %v", fullPeak, cappedPeak)
	}
	if red := out.PeakUplinkReduction(); red <= 0 || red >= 1 {
		t.Errorf("peak reduction %v out of (0,1)", red)
	}
	// Query loss must be modest (the paper reports 1-2%; allow more slack
	// on the tiny test environment).
	if loss := out.QueryLoss(); loss > 0.15 {
		t.Errorf("query loss %v too large", loss)
	}
}

func TestRunFractionalValidation(t *testing.T) {
	env := smallEnv(t)
	cfg := DefaultCityConfig(dnn.ModelInception, ModeIONN, 0)
	if _, err := RunFractional(context.Background(), env, cfg, 0.06, 1<<20); err == nil {
		t.Error("non-PerDNN mode accepted")
	}
	cfg = DefaultCityConfig(dnn.ModelInception, ModePerDNN, 100)
	if _, err := RunFractional(context.Background(), env, cfg, 0, 1<<20); err == nil {
		t.Error("zero share accepted")
	}
	if _, err := RunFractional(context.Background(), env, cfg, 0.06, 0); err == nil {
		t.Error("zero cap accepted")
	}
}

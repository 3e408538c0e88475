package mobility

import (
	"testing"
	"time"

	"perdnn/internal/geo"
	"perdnn/internal/trace"
)

func sensitivityDataset(t *testing.T) *trace.Dataset {
	t.Helper()
	cfg := trace.GeolifeConfig()
	cfg.TrainUsers = 8
	cfg.TestUsers = 5
	cfg.Duration = 50 * time.Minute
	base, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return base
}

func TestRunSensitivityShapes(t *testing.T) {
	base := sensitivityDataset(t)
	cfg := SensitivityConfig{
		Ns:              []int{1, 2, 5},
		NIntervals:      []time.Duration{20 * time.Second},
		TIntervals:      []time.Duration{15 * time.Second, 30 * time.Second, 60 * time.Second},
		NFixed:          5,
		MaxTrainWindows: 3000,
	}
	res, err := RunSensitivity(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Left plot: n=1 must be much worse than n=2 (the paper's key finding:
	// "the prediction error dropped when n is two").
	maes := res.MAEByN[20*time.Second]
	if len(maes) != 3 {
		t.Fatalf("MAE series length %d", len(maes))
	}
	if maes[0] < maes[1]*1.5 {
		t.Errorf("n=1 MAE %.1f not clearly worse than n=2 %.1f", maes[0], maes[1])
	}
	// Right plot: futility decreases with the interval; MAE increases.
	for i := 1; i < len(res.Intervals); i++ {
		if res.FutileRatio[i] > res.FutileRatio[i-1] {
			t.Errorf("futile ratio rose with interval: %v", res.FutileRatio)
		}
		if res.MAEByInterval[i] < res.MAEByInterval[i-1] {
			t.Errorf("MAE fell with interval: %v", res.MAEByInterval)
		}
	}
	// A best interval was selected from the sweep.
	found := false
	for _, it := range cfg.TIntervals {
		if res.BestInterval == it {
			found = true
		}
	}
	if !found {
		t.Errorf("best interval %v not among swept values", res.BestInterval)
	}
	for _, bc := range res.BenefitCost {
		if bc < 0 || bc > 1 {
			t.Errorf("benefit/cost %v out of [0,1]", bc)
		}
	}
}

func TestRunSensitivityDefaultsOnBadConfig(t *testing.T) {
	base := sensitivityDataset(t)
	// A truncated version of the default sweep runs without error.
	cfg := DefaultSensitivityConfig()
	cfg.Ns = cfg.Ns[:2]
	cfg.NIntervals = cfg.NIntervals[:1]
	cfg.TIntervals = cfg.TIntervals[:2]
	cfg.MaxTrainWindows = 1500
	if _, err := RunSensitivity(base, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestRunSensitivityRejectsEmptyNs: a config without trajectory lengths is
// an error, not a silent switch to the default sweep.
func TestRunSensitivityRejectsEmptyNs(t *testing.T) {
	cfg := DefaultSensitivityConfig()
	cfg.Ns = nil
	if res, err := RunSensitivity(sensitivityDataset(t), cfg); err == nil {
		t.Fatalf("empty Ns accepted: %+v", res)
	}
}

func TestLinearPredictor(t *testing.T) {
	l := &Linear{}
	if _, ok := l.PredictPoint(nil); ok {
		t.Error("empty history predicted")
	}
	pt, ok := l.PredictPoint([]geo.Point{{X: 1, Y: 1}, {X: 3, Y: 2}})
	if !ok {
		t.Fatal("no prediction")
	}
	if pt != (geo.Point{X: 5, Y: 3}) {
		t.Errorf("dead reckoning = %v, want (5,3)", pt)
	}
	// Single point: predicted to stay.
	pt, ok = l.PredictPoint([]geo.Point{{X: 2, Y: 2}})
	if !ok || pt != (geo.Point{X: 2, Y: 2}) {
		t.Errorf("single-point prediction = %v", pt)
	}
	// Without a placement, Rank returns nothing.
	if got := l.Rank([]geo.Point{{X: 1, Y: 1}, {X: 2, Y: 2}}, 2); got != nil {
		t.Errorf("rank without placement = %v", got)
	}
	pl := geo.NewPlacement(geo.NewHexGrid(50), []geo.Point{{}, {X: 500, Y: 0}})
	l.FitPlacement(pl)
	ranked := l.Rank([]geo.Point{{X: 400, Y: 0}, {X: 450, Y: 0}}, 1)
	if len(ranked) != 1 || ranked[0] != pl.ServerAt(geo.Point{X: 500, Y: 0}) {
		t.Errorf("rank = %v", ranked)
	}
}

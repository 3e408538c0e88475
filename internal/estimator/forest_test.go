package estimator

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// makeNonlinear generates y = x0^2 + 3*x1 + noise, a function a linear model
// cannot fit but a forest can.
func makeNonlinear(seed int64, n int) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, 0, n)
	y := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		row := []float64{rng.Float64()*4 - 2, rng.Float64()*4 - 2, rng.Float64()} // third feature is noise
		x = append(x, row)
		y = append(y, row[0]*row[0]+3*row[1]+rng.NormFloat64()*0.05)
	}
	return x, y
}

func mae(pred func([]float64) float64, x [][]float64, y []float64) float64 {
	var sum float64
	for i := range x {
		sum += math.Abs(pred(x[i]) - y[i])
	}
	return sum / float64(len(x))
}

func TestForestFitsNonlinearFunction(t *testing.T) {
	xTr, yTr := makeNonlinear(1, 800)
	xTe, yTe := makeNonlinear(2, 200)
	f, err := trainForest(xTr, yTr, ForestConfig{NumTrees: 40, MaxDepth: 12, MinLeaf: 3, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := mae(f.Predict, xTe, yTe); got > 0.35 {
		t.Errorf("forest MAE = %v, want <= 0.35", got)
	}
}

func TestForestBeatsLinearOnNonlinearData(t *testing.T) {
	xTr, yTr := makeNonlinear(3, 800)
	xTe, yTe := makeNonlinear(4, 200)
	f, err := trainForest(xTr, yTr, ForestConfig{NumTrees: 40, MaxDepth: 12, MinLeaf: 3, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	lin, err := TrainRidge(xTr, yTr, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	fm := mae(f.Predict, xTe, yTe)
	lm := mae(lin.Predict, xTe, yTe)
	if fm >= lm {
		t.Errorf("forest MAE %v not better than linear %v", fm, lm)
	}
}

func TestForestImportanceFindsSignalFeatures(t *testing.T) {
	x, y := makeNonlinear(5, 1000)
	f, err := trainForest(x, y, ForestConfig{NumTrees: 30, MaxDepth: 10, MinLeaf: 3, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	imp := f.Importance()
	var total float64
	for _, v := range imp {
		total += v
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("importances sum to %v", total)
	}
	// Feature 2 is pure noise; it must get far less importance than the
	// signal features.
	if imp[2] > imp[0] || imp[2] > imp[1] {
		t.Errorf("noise feature importance %v exceeds signal %v/%v", imp[2], imp[0], imp[1])
	}
}

func TestForestDeterministicWithSeed(t *testing.T) {
	x, y := makeNonlinear(6, 300)
	f1, err := trainForest(x, y, ForestConfig{NumTrees: 10, MaxDepth: 8, MinLeaf: 3, Seed: 9}, nil)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := trainForest(x, y, ForestConfig{NumTrees: 10, MaxDepth: 8, MinLeaf: 3, Seed: 9}, nil)
	if err != nil {
		t.Fatal(err)
	}
	probe := []float64{0.5, -0.3, 0.2}
	if f1.Predict(probe) != f2.Predict(probe) {
		t.Error("forest training is not deterministic")
	}
}

// TestForestDeterministicAcrossParallelism: per-tree seeding and ordered
// merging make training a pure function of the config, whatever the worker
// count. Train under GOMAXPROCS=1 and a larger setting and compare the
// ensembles exactly.
func TestForestDeterministicAcrossParallelism(t *testing.T) {
	x, y := makeNonlinear(8, 400)
	cfg := ForestConfig{NumTrees: 12, MaxDepth: 8, MinLeaf: 3, Seed: 5}

	old := runtime.GOMAXPROCS(1)
	f1, err := trainForest(x, y, cfg, nil)
	runtime.GOMAXPROCS(4)
	f2, err2 := trainForest(x, y, cfg, nil)
	runtime.GOMAXPROCS(old)
	if err != nil {
		t.Fatal(err)
	}
	if err2 != nil {
		t.Fatal(err2)
	}

	probes, _ := makeNonlinear(9, 50)
	for _, p := range probes {
		if f1.Predict(p) != f2.Predict(p) {
			t.Fatal("parallel training changed predictions")
		}
	}
	i1, i2 := f1.Importance(), f2.Importance()
	for j := range i1 {
		if i1[j] != i2[j] {
			t.Errorf("importance[%d] diverged: %v vs %v", j, i1[j], i2[j])
		}
	}
}

func TestForestErrors(t *testing.T) {
	if _, err := trainForest(nil, nil, ForestConfig{}, nil); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := trainForest([][]float64{{1}}, []float64{1, 2}, ForestConfig{}, nil); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := trainForest([][]float64{{1, 2}, {1}}, []float64{1, 2}, ForestConfig{}, nil); err == nil {
		t.Error("ragged rows accepted")
	}
	// A non-finite feature or target is named by row and column.
	for _, c := range []struct {
		x    [][]float64
		y    []float64
		want string
	}{
		{[][]float64{{1, 2}, {3, math.NaN()}}, []float64{1, 2}, "row 1 column 1 is NaN"},
		{[][]float64{{math.Inf(1), 2}, {3, 4}}, []float64{1, 2}, "row 0 column 0 is +Inf"},
		{[][]float64{{1, 2}, {3, 4}}, []float64{1, math.NaN()}, "row 1 target is NaN"},
		{[][]float64{{1, 2}, {3, 4}}, []float64{math.Inf(-1), 2}, "row 0 target is -Inf"},
	} {
		if _, err := trainForest(c.x, c.y, ForestConfig{}, nil); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("trainForest(%v, %v) error = %v, want %q", c.x, c.y, err, c.want)
		}
	}
}

func TestForestPredictPanicsOnMismatch(t *testing.T) {
	x, y := makeNonlinear(7, 50)
	f, err := trainForest(x, y, ForestConfig{NumTrees: 5, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f.Predict([]float64{1})
}

func TestForestConstantTarget(t *testing.T) {
	x := [][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}, {2, 2}, {4, 4}}
	y := []float64{5, 5, 5, 5, 5, 5}
	f, err := trainForest(x, y, ForestConfig{NumTrees: 5, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Predict([]float64{10, 10}); got != 5 {
		t.Errorf("constant prediction = %v, want 5", got)
	}
}

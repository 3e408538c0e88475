package estimator

import (
	"slices"
	"testing"
	"time"

	"perdnn/internal/dnn"
	"perdnn/internal/gpusim"
	"perdnn/internal/profile"
)

func smallProfilingRun(t *testing.T) []gpusim.Sample {
	t.Helper()
	layers := gpusim.ConvLayerCorpus(1, 12)
	cfg := gpusim.ProfilingConfig{MaxClients: 8, SamplesPerLevel: 20, DwellPerSample: time.Second, Seed: 1}
	return gpusim.ProfilingRun(profile.ServerTitanXp(), gpusim.DefaultParams(), layers, cfg)
}

func TestFeatureVectorsAligned(t *testing.T) {
	layers := gpusim.ConvLayerCorpus(1, 1)
	st := gpusim.Stats{ActiveClients: 3, KernelUtil: 0.4, MemUtil: 0.2, MemUsedMB: 2000, TempC: 50}
	lf := LayerFeatures(&layers[0])
	wf := LoadFeatures(st)
	cf := CombinedFeatures(&layers[0], st)
	if len(lf) != len(LayerFeatureNames()) {
		t.Errorf("layer features %d vs names %d", len(lf), len(LayerFeatureNames()))
	}
	if len(wf) != len(LoadFeatureNames()) {
		t.Errorf("load features %d vs names %d", len(wf), len(LoadFeatureNames()))
	}
	if len(cf) != len(CombinedFeatureNames()) {
		t.Errorf("combined features %d vs names %d", len(cf), len(CombinedFeatureNames()))
	}
	if cf[0] != lf[0] || cf[len(lf)] != wf[0] {
		t.Error("combined features not in layer-then-load order")
	}
}

func TestLogAugmentDoubles(t *testing.T) {
	f := []float64{1, 2, -3}
	out := logAugment(f)
	if len(out) != 6 {
		t.Fatalf("len = %d", len(out))
	}
	if out[5] != 0 {
		t.Errorf("negative feature log = %v, want 0 (clamped)", out[5])
	}
}

func TestTimeModelsTrainAndPredict(t *testing.T) {
	samples := smallProfilingRun(t)
	models := []TimeModel{
		&LLPerLoad{},
		&LLWithLoad{},
		&RFWithLoad{Config: ForestConfig{NumTrees: 15, Seed: 1}},
	}
	for _, m := range models {
		if err := m.Train(samples); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		pred := m.Predict(samples[0].Layer, samples[0].Stats)
		if pred < 0 {
			t.Errorf("%s: negative prediction %v", m.Name(), pred)
		}
		// Predictions should be in the right order of magnitude.
		truth := samples[0].Time.Seconds()
		if pred > truth*20 || pred < truth/20 {
			t.Errorf("%s: prediction %v vs truth %v off by >20x", m.Name(), pred, truth)
		}
	}
}

func TestLLPerLoadFallsBackToNearestLoad(t *testing.T) {
	samples := smallProfilingRun(t)
	m := &LLPerLoad{}
	if err := m.Train(samples); err != nil {
		t.Fatal(err)
	}
	// Load 50 was never profiled; prediction must still work via the
	// nearest profiled level.
	st := samples[len(samples)-1].Stats
	st.ActiveClients = 50
	if pred := m.Predict(samples[0].Layer, st); pred < 0 {
		t.Errorf("fallback prediction %v", pred)
	}
}

// TestRFWithLoadKeepsSeed checks that Train fills only the zero fields of
// Config: a zero config trains DefaultForestConfig's seed, and an explicit
// seed is the one trained, as RunFig4 relies on.
func TestRFWithLoadKeepsSeed(t *testing.T) {
	samples := smallProfilingRun(t)
	hash := func(cfg ForestConfig) string {
		t.Helper()
		m := &RFWithLoad{Config: cfg}
		var trees [][]treeNode
		if err := m.train(samples, func(nodes []treeNode) { trees = append(trees, slices.Clone(nodes)) }); err != nil {
			t.Fatal(err)
		}
		return forestHash(m.forest, trees)
	}
	zero, seed1, seed3 := hash(ForestConfig{}), hash(ForestConfig{Seed: 1}), hash(ForestConfig{Seed: 3})
	if zero != seed1 {
		t.Errorf("zero config trained %s, want the seed-1 forest %s", zero, seed1)
	}
	if seed3 == seed1 {
		t.Errorf("Seed 3 trained the seed-1 forest %s", seed1)
	}
}

func TestRunFig4ReproducesShape(t *testing.T) {
	cfg := Fig4Config{
		CorpusSize: 16,
		Profiling: gpusim.ProfilingConfig{
			MaxClients: 12, SamplesPerLevel: 25, DwellPerSample: time.Second, Seed: 3,
		},
		Seed: 3,
	}
	res, err := RunFig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clients) == 0 {
		t.Fatal("no load levels evaluated")
	}
	ll := res.MAEMicros["LL"]
	llLoad := res.MAEMicros["LL w/ server load info"]
	rf := res.MAEMicros["RF w/ server load info"]
	if len(ll) != len(res.Clients) || len(llLoad) != len(res.Clients) || len(rf) != len(res.Clients) {
		t.Fatal("MAE series lengths mismatch")
	}

	last := len(res.Clients) - 1
	// Fig 4 shape: at high load, LL is the worst and the GPU-aware models
	// are clearly better; the RF beats plain LL substantially.
	if ll[last] < llLoad[last] {
		t.Errorf("at %d clients LL (%.0fus) should be worse than LL w/ load (%.0fus)",
			res.Clients[last], ll[last], llLoad[last])
	}
	if rf[last] > ll[last]*0.6 {
		t.Errorf("at %d clients RF MAE %.0fus not clearly better than LL %.0fus",
			res.Clients[last], rf[last], ll[last])
	}
	// LL error must grow with load (the "surge").
	if ll[last] < ll[0]*2 {
		t.Errorf("LL MAE did not surge with load: %.0fus -> %.0fus", ll[0], ll[last])
	}
	// Paper: single-layer MAE is sub-millisecond ("at most ~800 us").
	if rf[last] > 2000 {
		t.Errorf("RF MAE %v us implausibly large", rf[last])
	}

	// Feature importances (right of Fig 4). The paper reports workload
	// features dominating layer hyperparameters; our corpus spans a wider
	// range of layer sizes than a per-type profiling set, so the size
	// features keep some mass. We assert the robust form of the claim:
	// workload features carry a substantial share and outrank every
	// non-size layer hyperparameter.
	if share := res.WorkloadImportanceShare(); share < 0.25 {
		t.Errorf("workload importance share %.2f, want substantial", share)
	}
	imp := make(map[string]float64, len(res.Importance))
	for i, name := range res.ImportanceNames {
		imp[name] = res.Importance[i]
	}
	for _, shapeFeat := range []string{"kernel", "stride", "in_ch", "out_ch", "in_hw"} {
		if imp["kernel_util"] <= imp[shapeFeat] {
			t.Errorf("kernel_util importance %.3f not above %s %.3f",
				imp["kernel_util"], shapeFeat, imp[shapeFeat])
		}
	}
}

func TestServerEstimatorTracksContention(t *testing.T) {
	est, err := TrainServerEstimator(profile.ServerTitanXp(), gpusim.DefaultParams(), 11)
	if err != nil {
		t.Fatal(err)
	}
	idle := gpusim.Stats{ActiveClients: 1, KernelUtil: 0.15, MemUtil: 0.1, MemUsedMB: 1200, TempC: 36}
	busy := gpusim.Stats{ActiveClients: 10, KernelUtil: 0.75, MemUtil: 0.45, MemUsedMB: 8200, TempC: 86}
	si, sb := est.EstimateSlowdown(idle), est.EstimateSlowdown(busy)
	if si < 1 {
		t.Errorf("idle slowdown %v < 1", si)
	}
	if sb < 2*si {
		t.Errorf("busy slowdown %v not clearly above idle %v", sb, si)
	}

	m := dnn.MobileNetV1()
	l := m.Layer(0)
	ti, tb := est.LayerTime(l, idle), est.LayerTime(l, busy)
	if tb <= ti {
		t.Errorf("layer time under load %v <= idle %v", tb, ti)
	}
}

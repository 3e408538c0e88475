package estimator

import (
	"fmt"
	"math"
	"sort"
	"time"

	"perdnn/internal/dnn"
	"perdnn/internal/gpusim"
	"perdnn/internal/profile"
)

// TimeModel is a trained predictor of layer execution time under load — the
// subject of Fig 4. Predictions are in seconds.
type TimeModel interface {
	// Name identifies the model in reports ("RF w/ server load info", ...).
	Name() string
	// Train fits the model to profiling samples.
	Train(samples []gpusim.Sample) error
	// Predict estimates the execution time of layer l given GPU stats.
	Predict(l *dnn.Layer, st gpusim.Stats) float64
}

// RFWithLoad is PerDNN's estimator: a random forest over layer
// hyperparameters and GPU statistics.
type RFWithLoad struct {
	Config ForestConfig
	forest *Forest
}

var _ TimeModel = (*RFWithLoad)(nil)

// Name implements TimeModel.
func (m *RFWithLoad) Name() string { return "RF w/ server load info" }

// Train implements TimeModel. Zero fields of Config mean
// DefaultForestConfig's values; set fields, Seed included, are kept.
func (m *RFWithLoad) Train(samples []gpusim.Sample) error { return m.train(samples, nil) }

// train is Train, handing each tree's nodes to onTree as trainForest does.
func (m *RFWithLoad) train(samples []gpusim.Sample, onTree func([]treeNode)) error {
	cfg := m.Config
	if cfg.Seed == 0 {
		// TrainForest fills every other zero field with the same default.
		cfg.Seed = defaultForest.Seed
	}
	x := make([][]float64, 0, len(samples))
	y := make([]float64, 0, len(samples))
	for i := range samples {
		x = append(x, CombinedFeatures(samples[i].Layer, samples[i].Stats))
		y = append(y, samples[i].Time.Seconds())
	}
	f, err := trainForest(x, y, cfg, onTree)
	if err != nil {
		return fmt.Errorf("estimator: training RF: %w", err)
	}
	m.forest = f
	return nil
}

// Predict implements TimeModel. The feature vector lives in a fixed-size
// stack buffer, so prediction does not allocate.
func (m *RFWithLoad) Predict(l *dnn.Layer, st gpusim.Stats) float64 {
	var buf [numLayerFeatures + numLoadFeatures]float64
	return math.Max(0, m.forest.Predict(CombinedFeaturesInto(buf[:], l, st)))
}

// Importance returns the trained forest's normalized feature importances,
// indexed like CombinedFeatureNames.
func (m *RFWithLoad) Importance() []float64 { return m.forest.Importance() }

// LLPerLoad is the NeuroSurgeon baseline: linear/logarithmic regression on
// layer hyperparameters only, with a separate model per server load level
// (number of concurrent clients). It cannot see the GPU counters, so it can
// only predict the per-load mean.
type LLPerLoad struct {
	models map[int]*ScaledRidge
	loads  []int
}

var _ TimeModel = (*LLPerLoad)(nil)

// Name implements TimeModel.
func (m *LLPerLoad) Name() string { return "LL" }

// Train implements TimeModel.
func (m *LLPerLoad) Train(samples []gpusim.Sample) error {
	byLoad := make(map[int][]int, 16)
	for i := range samples {
		k := samples[i].Stats.ActiveClients
		byLoad[k] = append(byLoad[k], i)
	}
	m.models = make(map[int]*ScaledRidge, len(byLoad))
	m.loads = m.loads[:0]
	for k, idx := range byLoad {
		x := make([][]float64, 0, len(idx))
		y := make([]float64, 0, len(idx))
		for _, i := range idx {
			x = append(x, logAugment(LayerFeatures(samples[i].Layer)))
			y = append(y, samples[i].Time.Seconds())
		}
		r, err := TrainScaledRidge(x, y, 1e-4)
		if err != nil {
			return fmt.Errorf("estimator: training LL at load %d: %w", k, err)
		}
		m.models[k] = r
		m.loads = append(m.loads, k)
	}
	sort.Ints(m.loads)
	return nil
}

// Predict implements TimeModel. If the exact load level was never profiled,
// the nearest profiled level is used.
func (m *LLPerLoad) Predict(l *dnn.Layer, st gpusim.Stats) float64 {
	k := st.ActiveClients
	model, ok := m.models[k]
	if !ok {
		best := m.loads[0]
		for _, lv := range m.loads {
			if abs(lv-k) < abs(best-k) {
				best = lv
			}
		}
		model = m.models[best]
	}
	return math.Max(0, model.Predict(logAugment(LayerFeatures(l))))
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// LLWithLoad is the intermediate baseline of Fig 4: the same linear/log
// regression but with the GPU statistics appended to the feature vector.
// Execution time under contention is multiplicative (base time x slowdown),
// so the model is fit in log space — the "logarithmic" half of
// NeuroSurgeon's linear/logarithmic family — where the product becomes a
// sum a linear model can represent.
type LLWithLoad struct {
	model *ScaledRidge
}

var _ TimeModel = (*LLWithLoad)(nil)

// Name implements TimeModel.
func (m *LLWithLoad) Name() string { return "LL w/ server load info" }

// Train implements TimeModel.
func (m *LLWithLoad) Train(samples []gpusim.Sample) error {
	x := make([][]float64, 0, len(samples))
	y := make([]float64, 0, len(samples))
	for i := range samples {
		if samples[i].Time <= 0 {
			continue
		}
		x = append(x, logAugment(CombinedFeatures(samples[i].Layer, samples[i].Stats)))
		y = append(y, math.Log(samples[i].Time.Seconds()))
	}
	r, err := TrainScaledRidge(x, y, 1e-4)
	if err != nil {
		return fmt.Errorf("estimator: training LL w/ load: %w", err)
	}
	m.model = r
	return nil
}

// Predict implements TimeModel.
func (m *LLWithLoad) Predict(l *dnn.Layer, st gpusim.Stats) float64 {
	return math.Exp(m.model.Predict(logAugment(CombinedFeatures(l, st))))
}

// ServerEstimator is the runtime estimator the partitioner uses: a random
// forest that predicts the *slowdown factor* of a server's GPU from its
// current statistics, multiplied by contention-free base layer times. One
// is trained offline per edge server (Section III.C.1: "the execution time
// estimator of each edge server is trained offline").
type ServerEstimator struct {
	dev    profile.Device
	forest *Forest
	// memo caches slowdown predictions on quantized GPU-state buckets; nil
	// disables caching (EstimateSlowdown then predicts on the raw stats).
	memo *slowdownMemo
}

// TrainServerEstimator profiles a simulated GPU with the given device and
// contention parameters and fits the slowdown forest.
func TrainServerEstimator(dev profile.Device, params gpusim.Params, seed int64) (*ServerEstimator, error) {
	return trainServerEstimator(dev, params, seed, nil)
}

// trainServerEstimator is TrainServerEstimator, handing each tree's nodes
// to onTree as trainForest does.
func trainServerEstimator(dev profile.Device, params gpusim.Params, seed int64, onTree func([]treeNode)) (*ServerEstimator, error) {
	x, y := serverTrainingSet(dev, params, seed)
	fc := DefaultForestConfig()
	fc.Seed = seed
	fc.NumTrees = 40
	f, err := trainForest(x, y, fc, onTree)
	if err != nil {
		return nil, fmt.Errorf("estimator: training server estimator: %w", err)
	}
	return &ServerEstimator{dev: dev, forest: f, memo: &slowdownMemo{}}, nil
}

// serverTrainingSet profiles the GPU and returns the slowdown forest's
// rows: load features against measured over contention-free layer time.
func serverTrainingSet(dev profile.Device, params gpusim.Params, seed int64) ([][]float64, []float64) {
	layers := gpusim.ConvLayerCorpus(seed, 24)
	cfg := gpusim.DefaultProfilingConfig()
	cfg.Seed = seed
	cfg.SamplesPerLevel = 30
	samples := gpusim.ProfilingRun(dev, params, layers, cfg)

	// The rows share one backing array.
	flat := make([]float64, len(samples)*numLoadFeatures)
	x := make([][]float64, 0, len(samples))
	y := make([]float64, 0, len(samples))
	for i := range samples {
		base := dev.LayerTime(samples[i].Layer)
		if base <= 0 {
			continue
		}
		row := flat[len(x)*numLoadFeatures:]
		x = append(x, LoadFeaturesInto(row[:numLoadFeatures:numLoadFeatures], samples[i].Stats))
		y = append(y, samples[i].Time.Seconds()/base.Seconds())
	}
	return x, y
}

// EstimateSlowdown predicts the multiplicative slowdown at the given GPU
// state. The result is clamped to >= 1: contention never speeds a GPU up.
//
// Predictions are memoized on quantized GPU-state buckets (client count
// exact; utilizations in 1/256 steps; memory in 16 MiB steps; temperature
// in 0.25 degC steps — well below the forest's resolution) and the forest
// is evaluated at the bucket's canonical state, so the cached value is a
// pure function of the bucket: results do not depend on call order or on
// cache hits versus misses. The master calls this for every (client,
// server) pair on every planning tick against slowly-drifting stats, so
// the hit rate is high.
func (e *ServerEstimator) EstimateSlowdown(st gpusim.Stats) float64 {
	if e.memo == nil {
		return e.slowdownAt(st)
	}
	return e.memo.lookup(e, st)
}

// slowdownAt runs the forest on the given stats without consulting the
// memo. The feature vector lives in a stack buffer, so it does not
// allocate.
func (e *ServerEstimator) slowdownAt(st gpusim.Stats) float64 {
	var buf [numLoadFeatures]float64
	s := e.forest.Predict(LoadFeaturesInto(buf[:], st))
	if s < 1 {
		return 1
	}
	return s
}

// LayerTime predicts the execution time of layer l on this server at GPU
// state st.
func (e *ServerEstimator) LayerTime(l *dnn.Layer, st gpusim.Stats) time.Duration {
	base := e.dev.LayerTime(l)
	return time.Duration(float64(base) * e.EstimateSlowdown(st))
}

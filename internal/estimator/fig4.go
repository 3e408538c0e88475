package estimator

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"perdnn/internal/gpusim"
	"perdnn/internal/profile"
)

// Fig4Config controls the estimation-accuracy experiment of Fig 4.
type Fig4Config struct {
	// CorpusSize is the number of distinct conv layers profiled.
	CorpusSize int
	// Profiling configures the measurement harness.
	Profiling gpusim.ProfilingConfig
	// Seed drives corpus generation and the train/test split.
	Seed int64
}

// DefaultFig4Config returns the configuration matching the paper's setup:
// conv layers profiled from 1 to 16 concurrent clients.
func DefaultFig4Config() Fig4Config {
	return Fig4Config{
		CorpusSize: 30,
		Profiling:  gpusim.DefaultProfilingConfig(),
		Seed:       1,
	}
}

// Fig4Result holds the experiment outputs: per-model MAE as a function of
// concurrent clients (the left plot) and the random forest's feature
// importances (the right plot).
type Fig4Result struct {
	// Clients lists the evaluated load levels in increasing order.
	Clients []int
	// MAEMicros[name][i] is model name's mean absolute error in
	// microseconds at load Clients[i].
	MAEMicros map[string][]float64
	// ModelNames lists models in presentation order (LL, LL w/ load, RF).
	ModelNames []string
	// ImportanceNames and Importance describe the RF feature importances.
	ImportanceNames []string
	Importance      []float64
}

// RunFig4 reproduces the Fig 4 experiment: profile a conv-layer corpus on a
// simulated shared GPU across load levels, train the three estimators on a
// split of the samples, and measure held-out MAE per load level.
func RunFig4(cfg Fig4Config) (*Fig4Result, error) {
	if cfg.CorpusSize <= 0 {
		cfg = DefaultFig4Config()
	}
	layers := gpusim.ConvLayerCorpus(cfg.Seed, cfg.CorpusSize)
	samples := gpusim.ProfilingRun(profile.ServerTitanXp(), gpusim.DefaultParams(), layers, cfg.Profiling)

	const testFraction = 0.3 // of the samples, held out for MAE evaluation
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	perm := rng.Perm(len(samples))
	nTest := int(float64(len(samples)) * testFraction)
	if nTest < 1 || nTest >= len(samples) {
		return nil, fmt.Errorf("estimator: test fraction %v of %d samples is empty", testFraction, len(samples))
	}
	test := make([]gpusim.Sample, 0, nTest)
	train := make([]gpusim.Sample, 0, len(samples)-nTest)
	for i, pi := range perm {
		if i < nTest {
			test = append(test, samples[pi])
		} else {
			train = append(train, samples[pi])
		}
	}

	rf := &RFWithLoad{Config: ForestConfig{Seed: cfg.Seed}}
	models := []TimeModel{&LLPerLoad{}, &LLWithLoad{}, rf}
	res := &Fig4Result{
		MAEMicros:  make(map[string][]float64, len(models)),
		ModelNames: make([]string, 0, len(models)),
	}
	for _, m := range models {
		if err := m.Train(train); err != nil {
			return nil, fmt.Errorf("estimator: fig4: %w", err)
		}
		res.ModelNames = append(res.ModelNames, m.Name())
	}

	// Group test samples by load level.
	byLoad := make(map[int][]int, 16)
	for i := range test {
		k := test[i].Stats.ActiveClients
		byLoad[k] = append(byLoad[k], i)
	}
	res.Clients = make([]int, 0, len(byLoad))
	for k := range byLoad {
		res.Clients = append(res.Clients, k)
	}
	sort.Ints(res.Clients)

	for _, m := range models {
		maes := make([]float64, 0, len(res.Clients))
		for _, k := range res.Clients {
			var sum float64
			for _, i := range byLoad[k] {
				pred := m.Predict(test[i].Layer, test[i].Stats)
				sum += math.Abs(pred - test[i].Time.Seconds())
			}
			maes = append(maes, sum/float64(len(byLoad[k]))*1e6)
		}
		res.MAEMicros[m.Name()] = maes
	}

	res.ImportanceNames = CombinedFeatureNames()
	res.Importance = rf.Importance()
	return res, nil
}

// WorkloadImportanceShare returns the total importance mass on the workload
// features — the paper reports these dominate the layer hyperparameters.
func (r *Fig4Result) WorkloadImportanceShare() float64 {
	var share float64
	for i, name := range r.ImportanceNames {
		for _, wf := range LoadFeatureNames() {
			if name == wf {
				share += r.Importance[i]
			}
		}
	}
	return share
}

package gpusim

import (
	"math/rand"
	"time"

	"perdnn/internal/dnn"
	"perdnn/internal/profile"
)

// Sample is one estimator training example: the layer being measured (in
// the slice ProfilingRun was given), the GPU statistics recorded when its
// request arrived, and the measured execution time. This mirrors the
// paper's extended perf_client harness, which "records its GPU statistics
// whenever receiving a DNN request".
type Sample struct {
	Layer *dnn.Layer    `json:"layer"`
	Stats Stats         `json:"stats"`
	Time  time.Duration `json:"time"`
}

// ProfilingConfig controls a profiling run.
type ProfilingConfig struct {
	// MaxClients is the highest concurrency level profiled (the paper
	// sweeps the number of perf_client instances).
	MaxClients int
	// SamplesPerLevel is the number of measurements taken per layer per
	// concurrency level.
	SamplesPerLevel int
	// DwellPerSample is the virtual time between measurements; it lets the
	// thermal model reach load-dependent steady states.
	DwellPerSample time.Duration
	// Seed makes the run reproducible.
	Seed int64
}

// DefaultProfilingConfig returns the configuration used by the Fig 4
// experiment: loads from 1 to 16 clients, enough samples per level to train
// the random forest.
func DefaultProfilingConfig() ProfilingConfig {
	return ProfilingConfig{
		MaxClients:      16,
		SamplesPerLevel: 60,
		DwellPerSample:  2 * time.Second,
		Seed:            1,
	}
}

// ProfilingRun measures the given layers on a fresh simulated GPU at every
// concurrency level from 1 to cfg.MaxClients and returns the collected
// samples. Competing clients are simulated as persistent in-flight
// inferences whose instantaneous activity the GPU tracks internally.
func ProfilingRun(dev profile.Device, params Params, layers []dnn.Layer, cfg ProfilingConfig) []Sample {
	if cfg.MaxClients < 1 {
		cfg.MaxClients = 1
	}
	if cfg.SamplesPerLevel < 1 {
		cfg.SamplesPerLevel = 1
	}
	gpu := New(dev, params, cfg.Seed)
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	out := make([]Sample, 0, cfg.MaxClients*cfg.SamplesPerLevel*len(layers))
	now := time.Duration(0)

	for level := 1; level <= cfg.MaxClients; level++ {
		// Bring up `level` persistent competing streams (one of them is
		// the measured client itself, matching how perf_client levels
		// count total concurrency).
		for i := 0; i < level; i++ {
			gpu.Begin(now)
		}
		// Let the thermal model settle toward this load level.
		now += 90 * time.Second
		for s := 0; s < cfg.SamplesPerLevel; s++ {
			for _, li := range rng.Perm(len(layers)) {
				l := &layers[li]
				stats := gpu.Sample(now)
				t := gpu.LayerTime(l, now)
				out = append(out, Sample{Layer: l, Stats: stats, Time: t})
				now += cfg.DwellPerSample
			}
			// Resample the competing streams' activity between rounds;
			// each request sees an independent instantaneous load.
			gpu.Churn()
		}
		for i := 0; i < level; i++ {
			gpu.End()
		}
		// Cool-down gap between levels.
		now += 5 * time.Minute
	}
	return out
}

// ConvLayerCorpus returns a spread of convolution layers with varied
// hyperparameters (channels, kernel size, stride, spatial size) for
// estimator training and the Fig 4 evaluation. All geometry is generated
// deterministically from the seed.
func ConvLayerCorpus(seed int64, n int) []dnn.Layer {
	rng := rand.New(rand.NewSource(seed))
	kernels := []int{1, 3, 5, 7}
	spatial := []int{7, 14, 28, 56, 112}
	channels := []int{16, 32, 64, 128, 256, 512}
	out := make([]dnn.Layer, 0, n)
	for i := 0; i < n; i++ {
		k := kernels[rng.Intn(len(kernels))]
		hw := spatial[rng.Intn(len(spatial))]
		inC := channels[rng.Intn(len(channels))]
		outC := channels[rng.Intn(len(channels))]
		stride := 1
		if rng.Float64() < 0.25 {
			stride = 2
		}
		b := dnn.NewBuilder("corpus", dnn.Shape{C: inC, H: hw, W: hw})
		b.Conv("conv", outC, k, stride, k/2)
		out = append(out, *b.Build().Layer(0))
	}
	return out
}

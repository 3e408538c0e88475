package perdnn_test

// Profile entry points for the hot code the paper's experiments share: the
// Fig 5 partitioner, one city-simulator round and start-up estimator
// training. The tables and figures themselves are regenerated once, by
// cmd/perdnn-bench, and pinned by its TestQuickGolden; to profile one of
// them, run
//
//	go test -run 'TestQuickGolden/fig9' -cpuprofile cpu.out ./cmd/perdnn-bench

import (
	"testing"

	"perdnn/internal/dnn"
	"perdnn/internal/edgesim"
	"perdnn/internal/estimator"
	"perdnn/internal/gpusim"
	"perdnn/internal/partition"
	"perdnn/internal/profile"
	"perdnn/internal/trace"
)

// BenchmarkFig5Partitioning runs the shortest-path partitioner per model.
func BenchmarkFig5Partitioning(b *testing.B) {
	b.ReportAllocs()
	for _, name := range dnn.ZooNames() {
		m, err := dnn.ZooModel(name)
		if err != nil {
			b.Fatal(err)
		}
		prof := profile.NewModelProfile(m, profile.ClientODROID(), profile.ServerTitanXp())
		req := partition.Request{Profile: prof, Slowdown: 2, Link: partition.LabWiFi()}
		b.Run(string(name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := partition.Partition(req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCityRound is the profile entry point for the city simulator: one
// round of the repo benchmark's city-sim workload (seed-1 Geolife env,
// PerDNN, r = 100, MaxSteps 40, every zoo model once), so
//
//	go test -run '^$' -bench CityRound/plain -cpuprofile cpu.out .
//
// names where a simulated query's host time goes without touching bench/.
// The plain sub-benchmark records nothing, as the workload does; spans
// sets RecordSpans, so the pair prices a traced round.
func BenchmarkCityRound(b *testing.B) {
	tcfg := trace.GeolifeConfig()
	tcfg.Seed = 1 // the seed of bench/golden/city-seed1.json
	ds, err := trace.Generate(tcfg)
	if err != nil {
		b.Fatal(err)
	}
	env, err := edgesim.PrepareEnv(ds, edgesim.DefaultEnvConfig())
	if err != nil {
		b.Fatal(err)
	}
	for _, spans := range []bool{false, true} {
		name := "plain"
		if spans {
			name = "spans"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			round := func() (queries int) {
				for _, model := range dnn.ZooNames() {
					cfg := edgesim.DefaultCityConfig(model, edgesim.ModePerDNN, 100)
					cfg.MaxSteps = 40
					cfg.RecordSpans = spans
					res, err := edgesim.RunCity(env, cfg)
					if err != nil {
						b.Fatal(err)
					}
					queries += res.TotalQueries
				}
				return queries
			}
			round() // fill the process-wide plan cache, as the benchmark's set-up does
			queries := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				queries += round()
			}
			b.ReportMetric(float64(queries)/b.Elapsed().Seconds(), "queries/s")
		})
	}
}

// BenchmarkTrainServerEstimator is the profile entry point for start-up:
// the slowdown forest every master, env and figure script trains before it
// does anything else (the repo benchmark's estimator.train_s), so
//
//	go test -run '^$' -bench TrainServerEstimator -cpuprofile cpu.out .
//
// names where setup_s goes without touching bench/.
func BenchmarkTrainServerEstimator(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := estimator.TrainServerEstimator(profile.ServerTitanXp(), gpusim.DefaultParams(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

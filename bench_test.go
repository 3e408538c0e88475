package perdnn_test

// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark runs a compact version of the corresponding experiment and
// reports its headline quantity as a custom metric, so `go test -bench=.`
// doubles as a regression harness for the reproduction. The full-size runs
// (and the numbers recorded in EXPERIMENTS.md) come from cmd/perdnn-bench.

import (
	"context"
	"strconv"
	"sync"
	"testing"
	"time"

	"perdnn/internal/dnn"
	"perdnn/internal/edgesim"
	"perdnn/internal/estimator"
	"perdnn/internal/gpusim"
	"perdnn/internal/mobility"
	"perdnn/internal/partition"
	"perdnn/internal/profile"
	"perdnn/internal/trace"
)

// benchEnv caches a reduced KAIST-like city environment across benchmarks.
var benchEnv = sync.OnceValues(func() (*edgesim.Env, error) {
	cfg := trace.KAISTConfig()
	cfg.TrainUsers = 16
	cfg.TestUsers = 12
	cfg.Duration = time.Hour
	base, err := trace.Generate(cfg)
	if err != nil {
		return nil, err
	}
	ecfg := edgesim.DefaultEnvConfig()
	ecfg.MaxTrainWindows = 6000
	return edgesim.PrepareEnv(base, ecfg)
})

func mustEnv(b *testing.B) *edgesim.Env {
	b.Helper()
	env, err := benchEnv()
	if err != nil {
		b.Fatal(err)
	}
	return env
}

// BenchmarkTable1ModelZoo rebuilds the three evaluation models.
func BenchmarkTable1ModelZoo(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, name := range dnn.ZooNames() {
			m, err := dnn.ZooModel(name)
			if err != nil {
				b.Fatal(err)
			}
			_ = m.TotalWeightBytes()
		}
	}
}

// BenchmarkFig1ColdStart replays the 40-query IONN cold-start scenario.
func BenchmarkFig1ColdStart(b *testing.B) {
	b.ReportAllocs()
	var peak time.Duration
	for i := 0; i < b.N; i++ {
		res, err := edgesim.RunSingle(edgesim.DefaultSingleConfig(dnn.ModelInception))
		if err != nil {
			b.Fatal(err)
		}
		peak = res.PeakAfterSwitch()
	}
	b.ReportMetric(peak.Seconds()*1e3, "peak-ms")
}

// BenchmarkFig4Estimator trains and evaluates the three execution-time
// estimators on a contended-GPU profiling corpus.
func BenchmarkFig4Estimator(b *testing.B) {
	b.ReportAllocs()
	cfg := estimator.Fig4Config{
		CorpusSize: 10,
		Profiling: gpusim.ProfilingConfig{
			MaxClients: 8, SamplesPerLevel: 20, DwellPerSample: time.Second, Seed: 3,
		},
		TestFraction: 0.3,
		Seed:         3,
	}
	var gap float64
	for i := 0; i < b.N; i++ {
		res, err := estimator.RunFig4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last := len(res.Clients) - 1
		gap = res.MAEMicros["LL"][last] - res.MAEMicros["RF w/ server load info"][last]
	}
	b.ReportMetric(gap, "rf-advantage-us")
}

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

// BenchmarkFig6Sensitivity sweeps trajectory length and interval.
func BenchmarkFig6Sensitivity(b *testing.B) {
	b.ReportAllocs()
	cfg := trace.GeolifeConfig()
	cfg.TrainUsers = 8
	cfg.TestUsers = 6
	cfg.Duration = 40 * time.Minute
	base, err := trace.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	scfg := mobility.SensitivityConfig{
		Ns:              []int{1, 2, 5},
		NIntervals:      []time.Duration{20 * time.Second},
		TIntervals:      []time.Duration{15 * time.Second, 20 * time.Second, 40 * time.Second},
		NFixed:          5,
		CellRadius:      50,
		MaxTrainWindows: 2000,
	}
	var best time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := mobility.RunSensitivity(base, scfg)
		if err != nil {
			b.Fatal(err)
		}
		best = res.BestInterval
	}
	b.ReportMetric(best.Seconds(), "best-interval-s")
}

// BenchmarkFig7ProactiveMigration measures the PM speedup at the switch.
func BenchmarkFig7ProactiveMigration(b *testing.B) {
	b.ReportAllocs()
	var speedup float64
	for i := 0; i < b.N; i++ {
		base := edgesim.DefaultSingleConfig(dnn.ModelInception)
		ionn, err := edgesim.RunSingle(base)
		if err != nil {
			b.Fatal(err)
		}
		base.MigrateFraction = 0.14
		pm, err := edgesim.RunSingle(base)
		if err != nil {
			b.Fatal(err)
		}
		speedup = ionn.PeakAfterSwitch().Seconds() / pm.PeakAfterSwitch().Seconds()
	}
	b.ReportMetric(speedup, "peak-speedup-x")
}

// BenchmarkTable2Throughput measures hit vs miss queries during upload.
func BenchmarkTable2Throughput(b *testing.B) {
	b.ReportAllocs()
	var hit, miss int
	for i := 0; i < b.N; i++ {
		res, err := edgesim.RunUploadThroughput(dnn.ModelResNet, 500*time.Millisecond, partition.LabWiFi())
		if err != nil {
			b.Fatal(err)
		}
		hit, miss = res.HitCount, res.MissCount
	}
	b.ReportMetric(float64(hit), "hit-queries")
	b.ReportMetric(float64(miss), "miss-queries")
}

// BenchmarkTable3Predictors trains and scores the SVR predictor.
func BenchmarkTable3Predictors(b *testing.B) {
	b.ReportAllocs()
	env := mustEnv(b)
	var top2 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svr := &mobility.SVR{Seed: int64(i + 1)}
		if err := svr.Fit(env.Dataset.Train, env.Placement, 5); err != nil {
			b.Fatal(err)
		}
		res, err := mobility.EvaluatePredictor(svr, env.Dataset.Test, env.Placement, 5)
		if err != nil {
			b.Fatal(err)
		}
		top2 = res.Top2
	}
	b.ReportMetric(top2, "top2-%")
}

// BenchmarkFig9LargeScale runs the compact city simulation under PerDNN.
func BenchmarkFig9LargeScale(b *testing.B) {
	b.ReportAllocs()
	env := mustEnv(b)
	var hit float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := edgesim.DefaultCityConfig(dnn.ModelResNet, edgesim.ModePerDNN, 100)
		res, err := edgesim.RunCity(env, cfg)
		if err != nil {
			b.Fatal(err)
		}
		hit = res.HitRatio()
	}
	b.ReportMetric(hit*100, "hit-%")
}

// BenchmarkFig9Sweep runs the compact city simulation across the full
// model × system matrix as one parallel sweep — the concurrent counterpart
// of BenchmarkFig9LargeScale, and the workload behind perdnn-bench -exp
// fig9. Reports aggregate hit ratio across the matrix.
func BenchmarkFig9Sweep(b *testing.B) {
	b.ReportAllocs()
	env := mustEnv(b)
	var cfgs []edgesim.CityConfig
	for _, model := range dnn.ZooNames() {
		for _, spec := range []struct {
			mode   edgesim.Mode
			radius float64
		}{{edgesim.ModeIONN, 0}, {edgesim.ModePerDNN, 100}, {edgesim.ModeOptimal, 0}} {
			cfgs = append(cfgs, edgesim.DefaultCityConfig(model, spec.mode, spec.radius))
		}
	}
	runs := edgesim.SweepConfigs(env, cfgs...)
	var hits, conns float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		outs := edgesim.RunSweepContext(context.Background(), runs, 0)
		if err := edgesim.SweepErr(outs); err != nil {
			b.Fatal(err)
		}
		hits, conns = 0, 0
		for _, o := range outs {
			hits += float64(o.Result.Hits)
			conns += float64(o.Result.Connections)
		}
	}
	if conns > 0 {
		b.ReportMetric(hits/conns*100, "hit-%")
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

// BenchmarkFig10Fractional runs the fractional-migration comparison.
func BenchmarkFig10Fractional(b *testing.B) {
	b.ReportAllocs()
	env := mustEnv(b)
	var cut float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := edgesim.DefaultCityConfig(dnn.ModelInception, edgesim.ModePerDNN, 100)
		out, err := edgesim.RunFractional(context.Background(), env, cfg, 0.06, 43<<20)
		if err != nil {
			b.Fatal(err)
		}
		cut = out.PeakUplinkReduction()
	}
	b.ReportMetric(cut*100, "peak-cut-%")
}

// BenchmarkAblationUploadOrder compares efficiency-first vs front-to-back.
func BenchmarkAblationUploadOrder(b *testing.B) {
	b.ReportAllocs()
	m := dnn.Inception21k()
	prof := profile.NewModelProfile(m, profile.ClientODROID(), profile.ServerTitanXp())
	link := partition.LabWiFi()
	req := partition.Request{Profile: prof, Slowdown: 1, Link: link}
	plan, err := partition.Partition(req)
	if err != nil {
		b.Fatal(err)
	}
	eff, err := partition.UploadSchedule(req, plan)
	if err != nil {
		b.Fatal(err)
	}
	seq := partition.SequentialSchedule(plan, 16)
	window := link.UpTime(plan.ServerBytes())
	var gain float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qe, err := edgesim.UploadReplay(dnn.ModelInception, 500*time.Millisecond, link, eff, window, 0)
		if err != nil {
			b.Fatal(err)
		}
		qs, err := edgesim.UploadReplay(dnn.ModelInception, 500*time.Millisecond, link, seq, window, 0)
		if err != nil {
			b.Fatal(err)
		}
		gain = float64(qe) - float64(qs)
	}
	b.ReportMetric(gain, "extra-queries")
}

// BenchmarkAblationGPUAware compares GPU-aware server selection (pick the
// server with the lower estimated latency) against load-blind selection
// (expected latency when the servers are indistinguishable) at high
// contention.
func BenchmarkAblationGPUAware(b *testing.B) {
	b.ReportAllocs()
	m := dnn.Inception21k()
	prof := profile.NewModelProfile(m, profile.ClientODROID(), profile.ServerTitanXp())
	est, err := estimator.TrainServerEstimator(profile.ServerTitanXp(), gpusim.DefaultParams(), 1)
	if err != nil {
		b.Fatal(err)
	}
	link := partition.LabWiFi()
	latAt := func(gpu *gpusim.GPU) time.Duration {
		slow := est.EstimateSlowdown(gpu.Sample(5 * time.Minute))
		plan, err := partition.Partition(partition.Request{Profile: prof, Slowdown: slow, Link: link})
		if err != nil {
			b.Fatal(err)
		}
		truth := gpu.MeanSlowdown(0.3, 5*time.Minute)
		return partition.Decompose(prof, plan.Loc).Latency(link, truth)
	}
	var advantage float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idle := gpusim.New(profile.ServerTitanXp(), gpusim.DefaultParams(), 1)
		idle.Begin(0)
		crowded := gpusim.New(profile.ServerTitanXp(), gpusim.DefaultParams(), 2)
		for j := 0; j < 14; j++ {
			crowded.Begin(0)
		}
		idleLat, crowdedLat := latAt(idle), latAt(crowded)
		aware := idleLat
		if crowdedLat < aware {
			aware = crowdedLat
		}
		blind := (idleLat + crowdedLat) / 2
		advantage = float64(blind) / float64(aware)
	}
	b.ReportMetric(advantage, "latency-advantage-x")
}

// BenchmarkAblationTTL sweeps the layer-cache TTL: all TTL settings run as
// one parallel sweep per iteration.
func BenchmarkAblationTTL(b *testing.B) {
	b.ReportAllocs()
	env := mustEnv(b)
	ttls := []int{1, 5}
	var cfgs []edgesim.CityConfig
	for _, ttl := range ttls {
		cfg := edgesim.DefaultCityConfig(dnn.ModelResNet, edgesim.ModePerDNN, 100)
		cfg.TTLIntervals = ttl
		cfgs = append(cfgs, cfg)
	}
	runs := edgesim.SweepConfigs(env, cfgs...)
	hits := make([]float64, len(ttls))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		outs := edgesim.RunSweepContext(context.Background(), runs, 0)
		if err := edgesim.SweepErr(outs); err != nil {
			b.Fatal(err)
		}
		for j, o := range outs {
			hits[j] = o.Result.HitRatio()
		}
	}
	for j, ttl := range ttls {
		b.ReportMetric(hits[j]*100, "hit-%-ttl"+strconv.Itoa(ttl))
	}
}

// BenchmarkAblationRadius sweeps the migration radius: all radii run as one
// parallel sweep per iteration.
func BenchmarkAblationRadius(b *testing.B) {
	b.ReportAllocs()
	env := mustEnv(b)
	radii := []float64{50, 150}
	var cfgs []edgesim.CityConfig
	for _, r := range radii {
		cfgs = append(cfgs, edgesim.DefaultCityConfig(dnn.ModelResNet, edgesim.ModePerDNN, r))
	}
	runs := edgesim.SweepConfigs(env, cfgs...)
	hits := make([]float64, len(radii))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		outs := edgesim.RunSweepContext(context.Background(), runs, 0)
		if err := edgesim.SweepErr(outs); err != nil {
			b.Fatal(err)
		}
		for j, o := range outs {
			hits[j] = o.Result.HitRatio()
		}
	}
	for j, r := range radii {
		b.ReportMetric(hits[j]*100, "hit-%-r"+strconv.Itoa(int(r)))
	}
}

// BenchmarkAblationPredictor plugs different predictors into the full loop.
func BenchmarkAblationPredictor(b *testing.B) {
	b.ReportAllocs()
	env := mustEnv(b)
	lin := &mobility.Linear{}
	lin.FitPlacement(env.Placement)
	preds := []mobility.Predictor{env.Predictor, lin}
	for _, p := range preds {
		p := p
		b.Run(p.Name(), func(b *testing.B) {
			b.ReportAllocs()
			pEnv := *env
			pEnv.Predictor = p
			var hit float64
			for i := 0; i < b.N; i++ {
				cfg := edgesim.DefaultCityConfig(dnn.ModelResNet, edgesim.ModePerDNN, 100)
				res, err := edgesim.RunCity(&pEnv, cfg)
				if err != nil {
					b.Fatal(err)
				}
				hit = res.HitRatio()
			}
			b.ReportMetric(hit*100, "hit-%")
		})
	}
}

// BenchmarkExtensionMultiDNN runs the multi-DNN client with the joint
// upload strategy and reports its throughput advantage over sequential.
func BenchmarkExtensionMultiDNN(b *testing.B) {
	b.ReportAllocs()
	var extra float64
	for i := 0; i < b.N; i++ {
		joint, err := edgesim.RunMultiDNN(edgesim.DefaultMultiConfig(edgesim.UploadJoint))
		if err != nil {
			b.Fatal(err)
		}
		seq, err := edgesim.RunMultiDNN(edgesim.DefaultMultiConfig(edgesim.UploadSequential))
		if err != nil {
			b.Fatal(err)
		}
		extra = float64(len(joint.Queries) - len(seq.Queries))
	}
	b.ReportMetric(extra, "extra-queries")
}

// BenchmarkExtensionRouting runs the Section III.A routing alternative.
func BenchmarkExtensionRouting(b *testing.B) {
	b.ReportAllocs()
	env := mustEnv(b)
	var misses float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := edgesim.RunCity(env, edgesim.DefaultCityConfig(dnn.ModelResNet, edgesim.ModeRouting, 0))
		if err != nil {
			b.Fatal(err)
		}
		misses = float64(res.Misses)
	}
	b.ReportMetric(misses, "cold-starts")
}

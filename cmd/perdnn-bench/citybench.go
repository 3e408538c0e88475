package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"perdnn/internal/core"
	"perdnn/internal/dnn"
	"perdnn/internal/edgesim"
	"perdnn/internal/estimator"
	"perdnn/internal/geo"
	"perdnn/internal/gpusim"
	"perdnn/internal/mobility"
	"perdnn/internal/partition"
	"perdnn/internal/profile"
	"perdnn/internal/trace"
)

// placementFor builds the 50 m hex placement of a resampled dataset.
func placementFor(ds *trace.Dataset) *geo.Placement {
	return geo.NewPlacement(geo.NewHexGrid(50), ds.AllPoints())
}

// cityEnvFns lazily prepares one simulation environment per dataset: an
// experiment that only touches Geolife never pays for the KAIST prep, and
// sync.OnceValues makes each entry safe to call from several goroutines.
var cityEnvFns = map[string]func() (*edgesim.Env, error){
	"kaist":   sync.OnceValues(func() (*edgesim.Env, error) { return prepareCityEnv(kaistBase) }),
	"geolife": sync.OnceValues(func() (*edgesim.Env, error) { return prepareCityEnv(geolifeBase) }),
}

func prepareCityEnv(gen func() (*trace.Dataset, error)) (*edgesim.Env, error) {
	base, err := gen()
	if err != nil {
		return nil, err
	}
	return edgesim.PrepareEnv(base, edgesim.DefaultEnvConfig())
}

func cityEnv(name string) (*edgesim.Env, error) {
	fn, ok := cityEnvFns[name]
	if !ok {
		return nil, fmt.Errorf("unknown dataset %q", name)
	}
	return fn()
}

// cityEnvsFor prepares several dataset environments concurrently and returns
// them in input order.
func cityEnvsFor(names ...string) ([]*edgesim.Env, error) {
	envs := make([]*edgesim.Env, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			envs[i], errs[i] = cityEnv(name)
		}(i, name)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return envs, nil
}

// cityMaxSteps shortens playback in quick mode.
func cityMaxSteps(quick bool) int {
	if quick {
		return 120 // 40 simulated minutes at t = 20 s
	}
	return 0
}

// runFig9 prints the large-scale simulation results (Fig 9). All cells of
// the dataset × model × system matrix run as one parallel sweep; results
// print in the fixed paper order regardless of completion order.
func runFig9(ctx context.Context, quick bool) error {
	datasets := []string{"kaist", "geolife"}
	envs, err := cityEnvsFor(datasets...)
	if err != nil {
		return err
	}
	specs := []struct {
		mode   edgesim.Mode
		radius float64
	}{
		{edgesim.ModeIONN, 0},
		{edgesim.ModePerDNN, 50},
		{edgesim.ModePerDNN, 100},
		{edgesim.ModeOptimal, 0},
	}
	var runs []edgesim.SweepRun
	for _, env := range envs {
		for _, model := range dnn.ZooNames() {
			for _, spec := range specs {
				cfg := edgesim.DefaultCityConfig(model, spec.mode, spec.radius)
				cfg.MaxSteps = cityMaxSteps(quick)
				runs = append(runs, edgesim.SweepRun{Env: env, Cfg: cfg})
			}
		}
	}
	outs := edgesim.RunSweepContext(ctx, runs, benchWorkers)
	if err := edgesim.SweepErr(outs); err != nil {
		return err
	}
	i := 0
	for di, dataset := range datasets {
		env := envs[di]
		fmt.Printf("--- %s: %d servers, %d clients, mean speed %.1f m/s ---\n",
			dataset, env.Placement.Len(), len(env.Dataset.Test), env.Dataset.MeanSpeed())
		fmt.Printf("%-10s %-8s %5s %10s %8s %8s %8s %8s %10s %10s %10s\n",
			"model", "system", "r", "windowQ", "hit%", "hits", "misses", "partial",
			"mean lat", "p95", "p99")
		for range dnn.ZooNames() {
			for range specs {
				res := outs[i].Result
				fmt.Printf("%-10s %-8s %5.0f %10d %7.0f%% %8d %8d %8d %10v %10v %10v\n",
					res.Model, res.Mode, res.Radius, res.WindowQueries,
					res.HitRatio()*100, res.Hits, res.Misses, res.Partials,
					res.MeanLatency().Round(time.Millisecond),
					res.P95().Round(time.Millisecond), res.P99().Round(time.Millisecond))
				i++
			}
		}
	}
	printPlanCacheStats()
	return nil
}

// printPlanCacheStats reports the process-wide plan-cache counters — how
// much the singleflight cache saved across the sweep's runs.
func printPlanCacheStats() {
	st := core.SharedPlans().Stats()
	fmt.Printf("plan cache: %d requests, %d misses, %d hits, %d coalesced (%.0f%% served cached)\n",
		st.Requests(), st.Misses, st.Hits, st.Coalesced, st.HitRatio()*100)
}

// runTraffic prints the backhaul traffic statistics (Section IV.B.4).
func runTraffic(ctx context.Context, quick bool) error {
	fmt.Printf("%-10s %-10s %5s %12s %12s %14s %10s %10s\n",
		"dataset", "model", "r", "peak up", "peak down", "share <100Mbps", "mean lat", "p95")
	datasets := []string{"kaist", "geolife"}
	envs, err := cityEnvsFor(datasets...)
	if err != nil {
		return err
	}
	radii := []float64{50, 100}
	var runs []edgesim.SweepRun
	for _, env := range envs {
		for _, r := range radii {
			cfg := edgesim.DefaultCityConfig(dnn.ModelInception, edgesim.ModePerDNN, r)
			cfg.MaxSteps = cityMaxSteps(quick)
			runs = append(runs, edgesim.SweepRun{Env: env, Cfg: cfg})
		}
	}
	outs := edgesim.RunSweepContext(ctx, runs, benchWorkers)
	if err := edgesim.SweepErr(outs); err != nil {
		return err
	}
	for i, o := range outs {
		res := o.Result
		_, up := res.Traffic.PeakUp()
		_, down := res.Traffic.PeakDown()
		fmt.Printf("%-10s %-10s %5.0f %9.0f Mbps %9.0f Mbps %13.0f%% %10v %10v\n",
			datasets[i/len(radii)], dnn.ModelInception, res.Radius, up/1e6, down/1e6,
			res.Traffic.ShareUnderBps(100e6)*100,
			res.MeanLatency().Round(time.Millisecond), res.P95().Round(time.Millisecond))
	}
	fmt.Println("\npaper: KAIST Inception peak 616/205 Mbps, Geolife 667/359 Mbps;")
	fmt.Println("       60~70% of servers needed less than 100 Mbps.")
	return nil
}

// runFig10 prints the fractional-migration results (Fig 10). The two
// model/cap specs are independent pairs of runs, so they execute
// concurrently and print in spec order.
func runFig10(ctx context.Context, quick bool) error {
	env, err := cityEnv("kaist")
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %-10s %12s %12s %10s %10s\n",
		"model", "cap", "peak full", "peak capped", "peak cut", "query loss")
	specs := []struct {
		model dnn.ModelName
		capMB int64
	}{
		// The paper caps at 43 / 56 MB; our reconstructions reach the same
		// operating points at tighter caps because continuous re-migration
		// already fragments transfers below those sizes.
		{dnn.ModelInception, 23}, // paper: 43 MB -> 67% peak cut, 2% loss
		{dnn.ModelResNet, 30},    // paper: 56 MB -> 43% peak cut, 1% loss
	}
	outs := make([]*edgesim.FractionalOutcome, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, model dnn.ModelName, capMB int64) {
			defer wg.Done()
			cfg := edgesim.DefaultCityConfig(model, edgesim.ModePerDNN, 100)
			cfg.MaxSteps = cityMaxSteps(quick)
			outs[i], errs[i] = edgesim.RunFractional(ctx, env, cfg, 0.06, capMB<<20)
		}(i, spec.model, spec.capMB)
	}
	wg.Wait()
	for i, spec := range specs {
		if errs[i] != nil {
			return errs[i]
		}
		out := outs[i]
		_, fullPeak := out.Full.Traffic.PeakUp()
		_, capPeak := out.Capped.Traffic.PeakUp()
		fmt.Printf("%-10s %7d MB %7.0f Mbps %7.0f Mbps %9.0f%% %9.1f%%\n",
			spec.model, spec.capMB, fullPeak/1e6, capPeak/1e6,
			out.PeakUplinkReduction()*100, out.QueryLoss()*100)
	}
	fmt.Println("\npaper: Inception 616->206 Mbps (-67%) at 2% query loss;")
	fmt.Println("       ResNet 469->268 Mbps (-43%) at 1% query loss.")
	return nil
}

// runAblations prints the design-choice ablations called out in DESIGN.md.
func runAblations(ctx context.Context, quick bool) error {
	if err := ablationUploadOrder(); err != nil {
		return err
	}
	if err := ablationGPUAware(); err != nil {
		return err
	}
	if err := ablationTTLAndRadius(ctx, quick); err != nil {
		return err
	}
	if err := ablationPredictor(ctx, quick); err != nil {
		return err
	}
	if err := ablationRouting(ctx, quick); err != nil {
		return err
	}
	if err := ablationSharedModels(ctx, quick); err != nil {
		return err
	}
	if err := ablationMultiDNN(); err != nil {
		return err
	}
	return ablationMinCut()
}

// ablationMinCut compares the Fig 5 frontier partitioner against the exact
// min-cut optimum (Hu et al.) across models and contention levels.
func ablationMinCut() error {
	fmt.Println("\n-- ablation: frontier (Fig 5) vs exact min-cut partitioning --")
	fmt.Printf("%-10s %9s %14s %14s %8s\n", "model", "slowdown", "frontier", "min-cut", "gap")
	link := partition.LabWiFi()
	for _, name := range dnn.ZooNames() {
		m, err := dnn.ZooModel(name)
		if err != nil {
			return err
		}
		prof := profile.NewModelProfile(m, profile.ClientODROID(), profile.ServerTitanXp())
		for _, slowdown := range []float64{1, 20, 80} {
			req := partition.Request{Profile: prof, Slowdown: slowdown, Link: link}
			frontier, minCut, err := partition.MinCutGap(req)
			if err != nil {
				return err
			}
			gap := 0.0
			if minCut > 0 {
				gap = frontier.Seconds()/minCut.Seconds() - 1
			}
			fmt.Printf("%-10s %8.0fx %14v %14v %7.1f%%\n", name, slowdown,
				frontier.Round(time.Millisecond), minCut.Round(time.Millisecond), gap*100)
		}
	}
	return nil
}

// ablationMultiDNN compares upload strategies for clients running several
// DNNs at once (the paper's Section VI extension).
func ablationMultiDNN() error {
	fmt.Println("\n-- extension: multi-DNN client (Inception + ResNet on one uplink) --")
	fmt.Printf("%-12s %10s %14s %14s %12s\n", "strategy", "queries", "mean lat[0]", "mean lat[1]", "upload done")
	for _, s := range []edgesim.UploadStrategy{edgesim.UploadSequential, edgesim.UploadJoint} {
		res, err := edgesim.RunMultiDNN(edgesim.DefaultMultiConfig(s))
		if err != nil {
			return err
		}
		lats := res.MeanLatencyPerModel(2)
		fmt.Printf("%-12s %10d %14v %14v %12v\n",
			res.Strategy, len(res.Queries),
			lats[0].Round(time.Millisecond), lats[1].Round(time.Millisecond),
			res.UploadDone.Round(time.Second))
	}
	return nil
}

// ablationRouting compares PerDNN's re-offloading against the Section III.A
// alternative of keeping the session and routing through the backhaul.
func ablationRouting(ctx context.Context, quick bool) error {
	env, err := cityEnv("geolife")
	if err != nil {
		return err
	}
	fmt.Println("\n-- ablation: re-offload (PerDNN) vs session routing (Geolife, ResNet) --")
	fmt.Printf("%-10s %10s %12s %14s %16s\n", "system", "windowQ", "mean lat", "cold starts", "backhaul total")
	var cfgs []edgesim.CityConfig
	for _, spec := range []struct {
		mode   edgesim.Mode
		radius float64
	}{{edgesim.ModePerDNN, 100}, {edgesim.ModeRouting, 0}, {edgesim.ModeIONN, 0}} {
		cfg := edgesim.DefaultCityConfig(dnn.ModelResNet, spec.mode, spec.radius)
		cfg.MaxSteps = cityMaxSteps(quick)
		cfgs = append(cfgs, cfg)
	}
	outs := edgesim.RunSweepContext(ctx, edgesim.SweepConfigs(env, cfgs...), benchWorkers)
	if err := edgesim.SweepErr(outs); err != nil {
		return err
	}
	for _, o := range outs {
		res := o.Result
		up, _ := res.Traffic.TotalBytes()
		fmt.Printf("%-10s %10d %12v %14d %13.1f GB\n",
			res.Mode, res.WindowQueries, res.MeanLatency().Round(time.Millisecond),
			res.Misses, float64(up)/1e9)
	}
	fmt.Println("routing avoids cold starts but pays continuous backhaul and extra latency,")
	fmt.Println("the trade-off behind the paper's decision to re-offload (Section III.A).")
	return nil
}

// ablationSharedModels quantifies the paper's personalized-model assumption
// by allowing layer caches to be shared across clients.
func ablationSharedModels(ctx context.Context, quick bool) error {
	env, err := cityEnv("geolife")
	if err != nil {
		return err
	}
	fmt.Println("\n-- ablation: personalized vs shared models (Geolife, ResNet, r=50) --")
	fmt.Printf("%-14s %8s %10s %16s\n", "models", "hit%", "windowQ", "backhaul total")
	variants := []bool{false, true}
	var cfgs []edgesim.CityConfig
	for _, shared := range variants {
		cfg := edgesim.DefaultCityConfig(dnn.ModelResNet, edgesim.ModePerDNN, 50)
		cfg.SharedModelCache = shared
		cfg.MaxSteps = cityMaxSteps(quick)
		cfgs = append(cfgs, cfg)
	}
	outs := edgesim.RunSweepContext(ctx, edgesim.SweepConfigs(env, cfgs...), benchWorkers)
	if err := edgesim.SweepErr(outs); err != nil {
		return err
	}
	for i, o := range outs {
		res := o.Result
		up, _ := res.Traffic.TotalBytes()
		name := "personalized"
		if variants[i] {
			name = "shared"
		}
		fmt.Printf("%-14s %7.0f%% %10d %13.1f GB\n",
			name, res.HitRatio()*100, res.WindowQueries, float64(up)/1e9)
	}
	return nil
}

// ablationUploadOrder compares the efficiency-first schedule against naive
// front-to-back uploading.
func ablationUploadOrder() error {
	fmt.Println("-- ablation: upload order (queries completed during full upload) --")
	fmt.Printf("%-10s %18s %18s\n", "model", "efficiency-first", "front-to-back")
	link := partition.LabWiFi()
	for _, model := range dnn.ZooNames() {
		m, err := dnn.ZooModel(model)
		if err != nil {
			return err
		}
		prof := profile.NewModelProfile(m, profile.ClientODROID(), profile.ServerTitanXp())
		req := partition.Request{Profile: prof, Slowdown: 1, Link: link}
		plan, err := partition.Partition(req)
		if err != nil {
			return err
		}
		eff, err := partition.UploadSchedule(req, plan)
		if err != nil {
			return err
		}
		seq := partition.SequentialSchedule(plan, 16)
		window := link.UpTime(plan.ServerBytes())
		qEff, err := edgesim.UploadReplay(model, 500*time.Millisecond, link, eff, window, 0)
		if err != nil {
			return err
		}
		qSeq, err := edgesim.UploadReplay(model, 500*time.Millisecond, link, seq, window, 0)
		if err != nil {
			return err
		}
		fmt.Printf("%-10s %18d %18d\n", model, qEff, qSeq)
	}
	return nil
}

// ablationGPUAware compares GPU-aware server selection against load-blind
// selection: the client is in range of an idle server and a crowded one
// (the multi-client scenario of Section III.C.1). GPU-aware planning pings
// both servers' statistics and picks the lower estimated latency;
// load-blind planning cannot distinguish them and on average lands on the
// crowded one half the time.
func ablationGPUAware() error {
	fmt.Println("\n-- ablation: GPU-aware server selection (Inception mean query latency) --")
	fmt.Printf("%-15s %14s %14s %14s\n", "crowded load", "GPU-aware", "load-blind", "advantage")
	m := dnn.Inception21k()
	prof := profile.NewModelProfile(m, profile.ClientODROID(), profile.ServerTitanXp())
	est, err := estimatorOnce()
	if err != nil {
		return err
	}
	link := partition.LabWiFi()
	for _, k := range []int{2, 4, 8, 12, 16} {
		idle := gpusim.New(profile.ServerTitanXp(), gpusim.DefaultParams(), 1)
		idle.Begin(0)
		crowded := gpusim.New(profile.ServerTitanXp(), gpusim.DefaultParams(), int64(k))
		for i := 0; i < k; i++ {
			crowded.Begin(0)
		}
		lat := func(gpu *gpusim.GPU) (time.Duration, error) {
			slow := est.EstimateSlowdown(gpu.Sample(5 * time.Minute))
			plan, err := partition.Partition(partition.Request{Profile: prof, Slowdown: slow, Link: link})
			if err != nil {
				return 0, err
			}
			truth := gpu.MeanSlowdown(0.3, 5*time.Minute)
			return partition.Decompose(prof, plan.Loc).Latency(link, truth), nil
		}
		idleLat, err := lat(idle)
		if err != nil {
			return err
		}
		crowdedLat, err := lat(crowded)
		if err != nil {
			return err
		}
		// GPU-aware: pick the better of the two servers. Load-blind:
		// cannot tell them apart; expected latency is the average.
		aware := idleLat
		if crowdedLat < aware {
			aware = crowdedLat
		}
		blind := (idleLat + crowdedLat) / 2
		fmt.Printf("%2d clients      %14v %14v %13.2fx\n", k,
			aware.Round(time.Millisecond), blind.Round(time.Millisecond),
			float64(blind)/float64(aware))
	}
	return nil
}

var estimatorOnceV = sync.OnceValues(func() (*estimator.ServerEstimator, error) {
	return estimator.TrainServerEstimator(profile.ServerTitanXp(), gpusim.DefaultParams(), 1)
})

func estimatorOnce() (*estimator.ServerEstimator, error) { return estimatorOnceV() }

// ablationTTLAndRadius sweeps the TTL and migration radius. Both sweeps are
// independent along their axes, so each runs as one parallel batch.
func ablationTTLAndRadius(ctx context.Context, quick bool) error {
	env, err := cityEnv("geolife")
	if err != nil {
		return err
	}
	fmt.Println("\n-- ablation: TTL (Geolife, ResNet, r=100) --")
	fmt.Printf("%-6s %8s %10s\n", "TTL", "hit%", "windowQ")
	ttls := []int{1, 2, 5, 10}
	var ttlCfgs []edgesim.CityConfig
	for _, ttl := range ttls {
		cfg := edgesim.DefaultCityConfig(dnn.ModelResNet, edgesim.ModePerDNN, 100)
		cfg.TTLIntervals = ttl
		cfg.MaxSteps = cityMaxSteps(quick)
		ttlCfgs = append(ttlCfgs, cfg)
	}
	outs := edgesim.RunSweepContext(ctx, edgesim.SweepConfigs(env, ttlCfgs...), benchWorkers)
	if err := edgesim.SweepErr(outs); err != nil {
		return err
	}
	for i, o := range outs {
		fmt.Printf("%-6d %7.0f%% %10d\n", ttls[i], o.Result.HitRatio()*100, o.Result.WindowQueries)
	}

	fmt.Println("\n-- ablation: migration radius r (Geolife, ResNet) --")
	fmt.Printf("%-6s %8s %10s %12s\n", "r", "hit%", "windowQ", "peak up")
	var radiusCfgs []edgesim.CityConfig
	for _, r := range []float64{25, 50, 100, 150, 200} {
		cfg := edgesim.DefaultCityConfig(dnn.ModelResNet, edgesim.ModePerDNN, r)
		cfg.MaxSteps = cityMaxSteps(quick)
		radiusCfgs = append(radiusCfgs, cfg)
	}
	outs = edgesim.RunSweepContext(ctx, edgesim.SweepConfigs(env, radiusCfgs...), benchWorkers)
	if err := edgesim.SweepErr(outs); err != nil {
		return err
	}
	for _, o := range outs {
		res := o.Result
		_, up := res.Traffic.PeakUp()
		fmt.Printf("%-6.0f %7.0f%% %10d %7.0f Mbps\n",
			res.Radius, res.HitRatio()*100, res.WindowQueries, up/1e6)
	}
	return nil
}

// ablationPredictor plugs different predictors into the full loop. Each
// predictor gets its own copied Env (an Env is immutable once prepared, so
// variants are copies, never in-place edits), and the copies sweep in
// parallel.
func ablationPredictor(ctx context.Context, quick bool) error {
	env, err := cityEnv("geolife")
	if err != nil {
		return err
	}
	fmt.Println("\n-- ablation: predictor in the full loop (Geolife, ResNet, r=100) --")
	fmt.Printf("%-8s %8s %10s\n", "pred", "hit%", "windowQ")

	preds := []mobility.Predictor{
		env.Predictor, // the trained SVR
		&mobility.Linear{},
		&mobility.Markov{},
	}
	var runs []edgesim.SweepRun
	for _, p := range preds {
		if p != env.Predictor {
			if err := p.Fit(env.Dataset.Train, env.Placement, 5); err != nil {
				return err
			}
		}
		pEnv := *env
		pEnv.Predictor = p
		cfg := edgesim.DefaultCityConfig(dnn.ModelResNet, edgesim.ModePerDNN, 100)
		cfg.MaxSteps = cityMaxSteps(quick)
		runs = append(runs, edgesim.SweepRun{Env: &pEnv, Cfg: cfg})
	}
	outs := edgesim.RunSweepContext(ctx, runs, benchWorkers)
	if err := edgesim.SweepErr(outs); err != nil {
		return err
	}
	for i, o := range outs {
		fmt.Printf("%-8s %7.0f%% %10d\n",
			preds[i].Name(), o.Result.HitRatio()*100, o.Result.WindowQueries)
	}
	return nil
}

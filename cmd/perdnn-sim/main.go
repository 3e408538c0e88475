// Command perdnn-sim runs large-scale PerDNN city simulations and prints
// their metrics — the programmable counterpart of perdnn-bench's fig9
// experiment.
//
// Usage:
//
//	perdnn-sim [-dataset kaist|geolife] [-model mobilenet|inception|resnet]
//	           [-mode ionn|perdnn|optimal|routing] [-radius 100] [-ttl 5]
//	           [-steps 0] [-parallel 0] [-shards 0]
//
// -model, -mode and -radius accept comma-separated lists; the cross product
// of the lists runs as one sweep on a worker pool of -parallel goroutines
// (0 = GOMAXPROCS) and prints one summary row per cell, in order. A single
// cell prints the full detailed report. Results are deterministic and
// independent of the worker count.
//
// -shards splits every run into that many region shards, each advancing
// its own event queue on its own goroutine — results and journals stay
// byte-identical to the unsharded engine, only wall time changes. The
// default, 0, shards a single cell by GOMAXPROCS and runs each cell of a
// multi-worker sweep, a routing cell and a -trace/-spans cell on one
// engine; -shards 1 always runs one engine.
//
// The -fault-* flags inject a deterministic failure model (server outage
// windows, transient link faults) into every cell; churn shows up as
// failover/local-fallback counts and server_down events in -events output,
// still byte-identical at every -parallel.
//
// -trace writes a Perfetto-loadable trace of every query, upload, migration
// and failover (open it at ui.perfetto.dev); -spans writes the same span
// journal as raw JSONL. Both are deterministic across -parallel.
//
// -pipeline switches to the multi-hop chain experiment: for every -model ×
// -hops cell, -queries inferences stream through the chain the partitioner
// plans over K identical servers at -slowdown, and the row reports planned
// hops, bottleneck estimate, and the simulated steady-state throughput.
// -trace/-spans export the per-query stage spans the same way; -events and
// -csv have no pipeline counterpart and are rejected.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"perdnn/internal/core"
	"perdnn/internal/dnn"
	"perdnn/internal/edgesim"
	"perdnn/internal/obs/tracing"
	"perdnn/internal/partition"
	"perdnn/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perdnn-sim:", err)
		os.Exit(1)
	}
}

func parseMode(s string) (edgesim.Mode, error) {
	switch s {
	case "ionn":
		return edgesim.ModeIONN, nil
	case "perdnn":
		return edgesim.ModePerDNN, nil
	case "optimal":
		return edgesim.ModeOptimal, nil
	case "routing":
		return edgesim.ModeRouting, nil
	default:
		return 0, fmt.Errorf("unknown mode %q", s)
	}
}

func splitList(s string) []string {
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func run() error {
	dataset := flag.String("dataset", "kaist", "mobility dataset: kaist or geolife")
	model := flag.String("model", "inception", "DNN model(s): mobilenet, inception, resnet (comma-separated)")
	mode := flag.String("mode", "perdnn", "system(s): ionn, perdnn, optimal, routing (comma-separated)")
	radius := flag.String("radius", "100", "proactive migration radius r in meters (comma-separated)")
	ttl := flag.Int("ttl", 5, "layer cache TTL in prediction intervals")
	steps := flag.Int("steps", 0, "max trajectory steps (0 = full playback)")
	parallel := flag.Int("parallel", 0, "sweep worker pool size (0 = GOMAXPROCS)")
	shards := flag.Int("shards", 0, "region shards per run, each on its own goroutine (1 = single event queue; 0 = by GOMAXPROCS, one queue in a multi-worker sweep, routing or a traced run)")
	csvPath := flag.String("csv", "", "write the per-server backhaul ledger as CSV to this path (single run only)")
	eventsPath := flag.String("events", "", "write the runs' event journals as JSONL to this path (deterministic across -parallel)")
	tracePath := flag.String("trace", "", "write a Perfetto-loadable trace of the runs' spans to this path (deterministic across -parallel)")
	spansPath := flag.String("spans", "", "write the runs' span journals as JSONL to this path (deterministic across -parallel)")
	faultSeed := flag.Int64("fault-seed", 1, "failure-model seed")
	faultOutageProb := flag.Float64("fault-outage-prob", 0, "per-server per-interval outage probability (0 disables outages)")
	faultOutageIntervals := flag.Int("fault-outage-intervals", 2, "outage length in prediction intervals")
	faultLinkProb := flag.Float64("fault-link-prob", 0, "per-transfer link fault probability (0 disables link faults)")
	pipeline := flag.Bool("pipeline", false, "run the pipelined multi-hop chain experiment instead of the city simulation")
	hops := flag.String("hops", "1,2,3", "pipeline: chain hop budget(s) K (comma-separated)")
	slowdown := flag.Float64("slowdown", 4, "pipeline: contention slowdown of every candidate server")
	queries := flag.Int("queries", 64, "pipeline: queries streamed through each chain")
	objective := flag.String("objective", "throughput", "pipeline: planner objective, latency or throughput")
	flag.Parse()

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	var tcfg trace.Config
	switch *dataset {
	case "kaist":
		tcfg = trace.KAISTConfig()
	case "geolife":
		tcfg = trace.GeolifeConfig()
	default:
		return fmt.Errorf("unknown dataset %q", *dataset)
	}

	var modes []edgesim.Mode
	for _, s := range splitList(*mode) {
		m, err := parseMode(s)
		if err != nil {
			return err
		}
		modes = append(modes, m)
	}
	var radii []float64
	for _, s := range splitList(*radius) {
		r, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return fmt.Errorf("bad radius %q: %v", s, err)
		}
		radii = append(radii, r)
	}
	models := splitList(*model)
	cells := len(models) * len(modes) * len(radii)
	paths := exportPaths{csv: *csvPath, events: *eventsPath, trace: *tracePath, spans: *spansPath}
	if err := checkExports(*pipeline, cells, paths); err != nil {
		return err
	}
	if *pipeline {
		return runPipeline(models, splitList(*hops), *slowdown, *queries, *objective, *parallel, paths)
	}
	if cells == 0 {
		return fmt.Errorf("need at least one model, mode and radius")
	}

	fmt.Printf("generating %s dataset...\n", *dataset)
	base, err := trace.Generate(tcfg)
	if err != nil {
		return err
	}
	fmt.Println("preparing environment (placement, predictor, estimator)...")
	t0 := time.Now()
	env, err := edgesim.PrepareEnv(base, edgesim.DefaultEnvConfig())
	if err != nil {
		return err
	}
	fmt.Printf("ready in %v: %d edge servers, %d clients, mean speed %.1f m/s\n",
		time.Since(t0).Round(time.Millisecond), env.Placement.Len(),
		len(env.Dataset.Test), env.Dataset.MeanSpeed())

	var faults *edgesim.FaultModel
	if *faultOutageProb > 0 || *faultLinkProb > 0 {
		faults = &edgesim.FaultModel{
			Seed:             *faultSeed,
			ServerOutageProb: *faultOutageProb,
			OutageIntervals:  *faultOutageIntervals,
			LinkFaultProb:    *faultLinkProb,
		}
		if err := faults.Validate(); err != nil {
			return err
		}
		fmt.Printf("fault injection on: seed=%d outage p=%.3f x%d intervals, link p=%.3f\n",
			*faultSeed, *faultOutageProb, *faultOutageIntervals, *faultLinkProb)
	}

	var cfgs []edgesim.CityConfig
	for _, mn := range models {
		for _, m := range modes {
			for _, r := range radii {
				cfg := edgesim.DefaultCityConfig(dnn.ModelName(mn), m, r)
				cfg.TTLIntervals = *ttl
				cfg.MaxSteps = *steps
				cfg.RecordEvents = *eventsPath != ""
				cfg.RecordSpans = *tracePath != "" || *spansPath != ""
				cfg.Faults = faults
				cfg.Shards = *shards
				cfgs = append(cfgs, cfg)
			}
		}
	}

	if len(cfgs) == 1 {
		return runOne(ctx, env, cfgs[0], paths)
	}
	return runSweep(ctx, env, cfgs, *parallel, paths)
}

// exportPaths carries the optional output-file flags through the runners.
type exportPaths struct {
	csv, events, trace, spans string
}

// checkExports rejects output flags a run would silently ignore: the
// pipeline experiment writes only -trace and -spans, and the -csv ledger
// belongs to a single city cell.
func checkExports(pipeline bool, cells int, paths exportPaths) error {
	switch {
	case pipeline && paths.events != "":
		return fmt.Errorf("-events is not supported with -pipeline")
	case pipeline && paths.csv != "":
		return fmt.Errorf("-csv is not supported with -pipeline")
	case !pipeline && paths.csv != "" && cells > 1:
		return fmt.Errorf("-csv needs a single model/mode/radius cell, got %d", cells)
	}
	return nil
}

// cellLabel names one sweep cell for the event journal's Run field.
func cellLabel(cfg edgesim.CityConfig) string {
	return fmt.Sprintf("%s|%s|r%.0f", cfg.Model, strings.ToLower(cfg.Mode.String()), cfg.Radius)
}

// writeEvents exports the runs' journals as one JSONL file, labelled per
// cell and concatenated in run order — byte-identical at every -parallel.
func writeEvents(path string, outs []edgesim.SweepOutcome) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	total := 0
	for _, o := range outs {
		if o.Err != nil {
			continue
		}
		events := o.Result.Events
		label := cellLabel(o.Run.Cfg)
		for i := range events {
			events[i] = events[i].WithRun(label)
		}
		if err := edgesim.WriteEvents(f, events); err != nil {
			_ = f.Close()
			return err
		}
		total += len(events)
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("  event journal:        %s (%d events)\n", path, total)
	return nil
}

// citySpans collects the runs' spans labelled per cell in run order.
func citySpans(outs []edgesim.SweepOutcome) []tracing.Span {
	var spans []tracing.Span
	for _, o := range outs {
		if o.Err != nil {
			continue
		}
		label := cellLabel(o.Run.Cfg)
		for _, sp := range o.Result.Spans {
			spans = append(spans, sp.WithRun(label))
		}
	}
	return spans
}

// writeSpans exports a pre-labelled span journal, concatenated in run order
// — byte-identical at every -parallel: raw JSONL to spansPath and/or a
// Perfetto-loadable trace (each cell its own named process) to tracePath.
// Empty paths skip that format.
func writeSpans(tracePath, spansPath string, spans []tracing.Span) error {
	write := func(path string, fn func(f *os.File) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			_ = f.Close()
			return err
		}
		return f.Close()
	}
	if spansPath != "" {
		if err := write(spansPath, func(f *os.File) error { return tracing.WriteJSONL(f, spans) }); err != nil {
			return err
		}
		fmt.Printf("  span journal:         %s (%d spans)\n", spansPath, len(spans))
	}
	if tracePath != "" {
		if err := write(tracePath, func(f *os.File) error { return tracing.WritePerfetto(f, spans) }); err != nil {
			return err
		}
		fmt.Printf("  perfetto trace:       %s (open at ui.perfetto.dev)\n", tracePath)
	}
	return nil
}

// printCacheStats reports the process-wide plan cache after all runs.
func printCacheStats() {
	st := core.SharedPlans().Stats()
	fmt.Printf("  plan cache:           %d requests (%d misses, %d hits, %d coalesced, %.0f%% served cached)\n",
		st.Requests(), st.Misses, st.Hits, st.Coalesced, st.HitRatio()*100)
}

// runPipeline executes the pipelined-chain sweep: for every model × hop
// budget, a stream of queries runs through the chain partition.PlanChain
// produced over identical loaded servers, and the row reports the planned
// hops against the simulated steady-state throughput.
func runPipeline(models, hops []string, slowdown float64, queries int, objective string, workers int, paths exportPaths) error {
	var obj partition.Objective
	switch objective {
	case "latency":
		obj = partition.ObjectiveLatency
	case "throughput":
		obj = partition.ObjectiveThroughput
	default:
		return fmt.Errorf("unknown objective %q", objective)
	}
	if len(models) == 0 || len(hops) == 0 {
		return fmt.Errorf("need at least one model and hop budget")
	}
	var cfgs []edgesim.PipelineConfig
	for _, mn := range models {
		for _, hs := range hops {
			k, err := strconv.Atoi(hs)
			if err != nil || k < 1 {
				return fmt.Errorf("bad hop budget %q", hs)
			}
			servers := make([]partition.ServerSpec, k)
			for i := range servers {
				servers[i] = partition.ServerSpec{ID: i, Slowdown: slowdown}
			}
			cfg := edgesim.DefaultPipelineConfig(dnn.ModelName(mn), servers, k, obj)
			cfg.NumQueries = queries
			cfg.RecordSpans = paths.trace != "" || paths.spans != ""
			cfgs = append(cfgs, cfg)
		}
	}
	t0 := time.Now()
	outs := edgesim.RunPipelineSweep(cfgs, workers)
	fmt.Printf("%d pipeline runs swept in %v (objective %s, slowdown %.1f, %d queries each)\n",
		len(outs), time.Since(t0).Round(time.Millisecond), obj, slowdown, queries)
	fmt.Printf("%-10s %3s %5s %14s %14s %12s\n", "model", "K", "hops", "est bottleneck", "observed", "throughput")
	var spans []tracing.Span
	for _, o := range outs {
		if o.Err != nil {
			fmt.Printf("%-10s %3d  error: %v\n", o.Cfg.Model, o.Cfg.MaxHops, o.Err)
			continue
		}
		res := o.Result
		fmt.Printf("%-10s %3d %5d %14v %14v %8.2f q/s\n",
			o.Cfg.Model, o.Cfg.MaxHops, res.Plan.NumHops(),
			res.Plan.Bottleneck.Round(time.Microsecond),
			res.ObservedBottleneck.Round(time.Microsecond), res.Throughput)
		label := fmt.Sprintf("%s|pipeline|k%d", o.Cfg.Model, o.Cfg.MaxHops)
		for _, sp := range res.Spans {
			spans = append(spans, sp.WithRun(label))
		}
	}
	if err := writeSpans(paths.trace, paths.spans, spans); err != nil {
		return err
	}
	for _, o := range outs {
		if o.Err != nil {
			return o.Err
		}
	}
	return nil
}

// runSweep executes the cross-product sweep concurrently and prints one
// summary row per cell.
func runSweep(ctx context.Context, env *edgesim.Env, cfgs []edgesim.CityConfig, workers int, paths exportPaths) error {
	t0 := time.Now()
	outs := edgesim.RunSweepContext(ctx, edgesim.SweepConfigs(env, cfgs...), workers)
	fmt.Printf("\n%d runs swept in %v\n", len(outs), time.Since(t0).Round(time.Millisecond))
	fmt.Printf("%-10s %-8s %5s %10s %8s %12s %12s %12s %10s\n",
		"model", "system", "r", "windowQ", "hit%", "mean lat", "p95 lat", "peak up", "churn")
	for _, o := range outs {
		if o.Err != nil {
			fmt.Printf("%-10s %-8s %5.0f  error: %v\n",
				o.Run.Cfg.Model, o.Run.Cfg.Mode, o.Run.Cfg.Radius, o.Err)
			continue
		}
		res := o.Result
		_, peakUp := res.Traffic.PeakUp()
		fmt.Printf("%-10s %-8s %5.0f %10d %7.0f%% %12v %12v %7.0f Mbps %4d/%-4d\n",
			res.Model, res.Mode, res.Radius, res.WindowQueries, res.HitRatio()*100,
			res.MeanLatency().Round(time.Millisecond), res.P95().Round(time.Millisecond),
			peakUp/1e6, res.Failovers, res.LocalFallbacks)
	}
	printCacheStats()
	if paths.events != "" {
		if err := writeEvents(paths.events, outs); err != nil {
			return err
		}
	}
	if err := writeSpans(paths.trace, paths.spans, citySpans(outs)); err != nil {
		return err
	}
	return edgesim.SweepErr(outs)
}

// runOne executes a single cell and prints the full report.
func runOne(ctx context.Context, env *edgesim.Env, cfg edgesim.CityConfig, paths exportPaths) error {
	t0 := time.Now()
	res, err := edgesim.RunCityContext(ctx, env, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("\nsimulated in %v\n", time.Since(t0).Round(time.Millisecond))
	fmt.Printf("mode=%s model=%s r=%.0fm ttl=%d\n", res.Mode, res.Model, res.Radius, cfg.TTLIntervals)
	fmt.Printf("  total queries:        %d (mean latency %v, p50 %v, p95 %v, p99 %v)\n",
		res.TotalQueries, res.MeanLatency().Round(time.Millisecond),
		res.P50().Round(time.Millisecond), res.P95().Round(time.Millisecond),
		res.P99().Round(time.Millisecond))
	fmt.Printf("  cold-start-window Q:  %d\n", res.WindowQueries)
	fmt.Printf("  connections:          %d (hit %d / miss %d / partial %d, hit ratio %.0f%%)\n",
		res.Connections, res.Hits, res.Misses, res.Partials, res.HitRatio()*100)
	upB, downB := res.Traffic.TotalBytes()
	_, peakUp := res.Traffic.PeakUp()
	_, peakDown := res.Traffic.PeakDown()
	fmt.Printf("  backhaul:             %.1f GB up / %.1f GB down, peak %.0f / %.0f Mbps, %.0f%% of servers under 100 Mbps\n",
		float64(upB)/1e9, float64(downB)/1e9, peakUp/1e6, peakDown/1e6,
		res.Traffic.ShareUnderBps(100e6)*100)
	fmt.Printf("  migrations:           %d ordered / %d completed, %.1f MB\n",
		res.Metrics.Counters["migrations_ordered_total"],
		res.Metrics.Counters["migrations_completed_total"],
		float64(res.Metrics.Counters["migration_bytes_total"])/1e6)
	if cfg.Faults.Enabled() {
		fmt.Printf("  fault churn:          %d server outages, %d failovers, %d local fallbacks\n",
			res.Metrics.Counters["server_downs_total"], res.Failovers, res.LocalFallbacks)
	}
	printCacheStats()
	out := edgesim.SweepOutcome{Run: edgesim.SweepRun{Env: env, Cfg: cfg}, Result: res}
	if paths.events != "" {
		if err := writeEvents(paths.events, []edgesim.SweepOutcome{out}); err != nil {
			return err
		}
	}
	if err := writeSpans(paths.trace, paths.spans, citySpans([]edgesim.SweepOutcome{out})); err != nil {
		return err
	}

	if paths.csv != "" {
		f, err := os.Create(paths.csv)
		if err != nil {
			return err
		}
		if err := res.Traffic.WriteCSV(f); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("  traffic ledger:       %s\n", paths.csv)
	}
	return nil
}

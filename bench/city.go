package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"perdnn/internal/core"
	"perdnn/internal/dnn"
	"perdnn/internal/edgesim"
	"perdnn/internal/obs/tracing"
	"perdnn/internal/trace"
)

const (
	// cityMaxSteps truncates playback so that one round (every zoo model
	// once) takes about 1.5 s of host time: full playback is ~7 s per
	// model, more than the contract leaves a run. The shape is unchanged:
	// the full Geolife population and placement, PerDNN mode, r = 100.
	cityMaxSteps = 40
	// citySpanSteps is the playback of the RecordSpans round.
	citySpanSteps = 8
	cityRadius    = 100
	cityShards    = 4
)

// cityStats are one run's exact simulated statistics.
type cityStats struct {
	TotalQueries int64 `json:"total_queries"`
	Connections  int64 `json:"connections"`
	Hits         int64 `json:"hits"`
	Misses       int64 `json:"misses"`
	Partials     int64 `json:"partials"`
	Migrations   int64 `json:"migrations"`
	SumLatencyNs int64 `json:"sum_latency_ns"`
}

// roundStats are the statistics of one round, one entry per zoo model.
type roundStats map[dnn.ModelName]cityStats

//go:embed golden/city-seed1.json
var goldenCity []byte

// cityEnv is the prepared simulation environment of one set-up.
type cityEnv struct {
	env   *edgesim.Env
	steps int        // playback steps of a measured round
	ref   roundStats // from the unsharded warm-up round
}

// setupCity generates the seeded Geolife-like dataset, prepares the
// environment and runs one unsharded round, which fills the process-wide
// plan cache and is the reference every measured run must equal.
func setupCity(seed int64, steps int) (*cityEnv, error) {
	cfg := trace.GeolifeConfig()
	cfg.Seed = seed
	ds, err := trace.Generate(cfg)
	if err != nil {
		return nil, err
	}
	ecfg := edgesim.DefaultEnvConfig()
	ecfg.Seed = seed
	env, err := edgesim.PrepareEnv(ds, ecfg)
	if err != nil {
		return nil, err
	}
	ref, err := cityRound(env, seed, 1, steps, false)
	if err != nil {
		return nil, err
	}
	return &cityEnv{env: env, ref: ref.stats, steps: steps}, nil
}

// round is what one pass over the zoo produced.
type round struct {
	stats roundStats
	wall  []time.Duration // host time of each run, in dnn.ZooNames() order
	spans []tracing.Span  // when asked for
}

// cityRound runs every zoo model once.
func cityRound(env *edgesim.Env, seed int64, shards, maxSteps int, spans bool) (round, error) {
	out := round{stats: make(roundStats, 3)}
	for _, model := range dnn.ZooNames() {
		cfg := edgesim.DefaultCityConfig(model, edgesim.ModePerDNN, cityRadius)
		cfg.Seed = seed
		cfg.MaxSteps = maxSteps
		cfg.RecordSpans = spans
		var res *edgesim.CityResult
		var err error
		t0 := time.Now()
		if shards > 1 {
			res, err = edgesim.RunCitySharded(context.Background(), env, cfg, shards)
		} else {
			res, err = edgesim.RunCity(env, cfg)
		}
		if err != nil {
			return round{}, fmt.Errorf("%s: %w", model, err)
		}
		out.wall = append(out.wall, time.Since(t0))
		out.stats[model] = cityStats{
			TotalQueries: int64(res.TotalQueries),
			Connections:  int64(res.Connections),
			Hits:         int64(res.Hits),
			Misses:       int64(res.Misses),
			Partials:     int64(res.Partials),
			Migrations:   res.Metrics.Counters["migrations_completed_total"],
			SumLatencyNs: int64(res.SumLatency),
		}
		for _, s := range res.Spans {
			out.spans = append(out.spans, s.WithRun(string(model)))
		}
	}
	return out, nil
}

func (rs roundStats) total() cityStats {
	var t cityStats
	for _, s := range rs {
		t.TotalQueries += s.TotalQueries
		t.Connections += s.Connections
		t.Hits += s.Hits
		t.Misses += s.Misses
		t.Partials += s.Partials
		t.Migrations += s.Migrations
		t.SumLatencyNs += s.SumLatencyNs
	}
	return t
}

// diff names the models whose statistics differ between two rounds.
func (rs roundStats) diff(o roundStats) []string {
	var out []string
	for _, model := range dnn.ZooNames() {
		if rs[model] != o[model] {
			out = append(out, fmt.Sprintf("%s: %+v != %+v", model, rs[model], o[model]))
		}
	}
	return out
}

// runCity measures the simulator. Host time is what is reported; the
// simulated statistics are exact and are the correctness check.
func runCity(o options, r *result) error {
	window, setups := o.seconds, o.setups
	if o.trace {
		window, setups = o.seconds/2, 1
	}
	steps := cityMaxSteps
	if o.quick {
		steps = citySpanSteps
	}
	var ce *cityEnv
	var setupSecs []float64
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		var err error
		if ce, err = setupCity(o.seed, steps); err != nil {
			return err
		}
		setupSecs = append(setupSecs, time.Since(t0).Seconds())
	}
	switch {
	case o.updateGolden:
		b, err := json.MarshalIndent(ce.ref, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join("bench", "golden", "city-seed1.json"), append(b, '\n'), 0o644); err != nil {
			return err
		}
	case o.seed == 1 && !o.quick:
		var golden roundStats
		if err := json.Unmarshal(goldenCity, &golden); err != nil {
			return fmt.Errorf("golden/city-seed1.json: %w", err)
		}
		for _, d := range ce.ref.diff(golden) {
			r.fail("statistics differ from golden/city-seed1.json: %s", d)
		}
	}

	// timed runs one round, checks it against the warm-up round (equal
	// across repeats and, sharded, equal to unsharded field for field) and
	// returns it as a slice with its host seconds per run.
	perRound := ce.ref.total().TotalQueries
	timed := func(shards int) (slice, []time.Duration) {
		t0, cpu0 := time.Now(), cpuTime()
		got, err := cityRound(ce.env, o.seed, shards, ce.steps, false)
		r.Attempted += 3
		if err != nil {
			r.Failed += 3
			r.fail("round at %d shards: %v", shards, err)
			return slice{}, nil
		}
		if d := got.stats.diff(ce.ref); len(d) > 0 {
			r.Failed += int64(len(d))
			r.fail("round at %d shards differs from the unsharded reference: %v", shards, d)
		}
		return slice{time.Since(t0).Seconds(), perRound, cpuTime() - cpu0}, got.wall
	}

	// One round is one slice of the window. A simulated query has no wall
	// time of its own: the op time of a round is the median over its three
	// runs (one model's playback each) of host us per simulated query.
	// Models differ in that cost, so it is not the reciprocal of throughput.
	var rounds []slice
	runNs := newSamples(1 << 12)
	cacheBefore := core.SharedPlans().Stats()
	from := snapProc()
	for time.Since(from.at) < window {
		sl, wall := timed(1)
		if wall == nil {
			continue
		}
		rounds = append(rounds, sl)
		usPerQuery := make([]float64, 0, len(wall))
		for i, model := range dnn.ZooNames() {
			runNs.add(int64(wall[i]))
			usPerQuery = append(usPerQuery, wall[i].Seconds()*1e6/float64(max(ce.ref[model].TotalQueries, 1)))
		}
		r.ChunkP50Us = append(r.ChunkP50Us, medianOf(usPerQuery))
	}
	to := snapProc()
	cacheAfter := core.SharedPlans().Stats()

	r.setSlices(rounds)
	simPerS := r.get("ops_per_s")
	r.set("sim_queries_per_s", simPerS)
	r.set("op_p50_us", quietLow(r.ChunkP50Us))
	r.setProc(from, to, perRound*int64(len(rounds)))
	r.set("setup_s", medianOf(setupSecs))
	r.Timings["run"] = runNs.summarize()

	tot := ce.ref.total()
	r.set("edgesim.total_queries", float64(tot.TotalQueries))
	r.set("edgesim.connections", float64(tot.Connections))
	r.set("edgesim.hits", float64(tot.Hits))
	r.set("edgesim.misses", float64(tot.Misses))
	r.set("edgesim.partials", float64(tot.Partials))
	r.set("edgesim.migrations", float64(tot.Migrations))
	r.set("edgesim.mean_latency_us", float64(tot.SumLatencyNs)/float64(max(tot.TotalQueries, 1))/1e3)
	hits := cacheAfter.Hits - cacheBefore.Hits
	reqs := cacheAfter.Requests() - cacheBefore.Requests()
	r.set("core.plancache_hit_ratio", float64(hits)/float64(max(reqs, 1)))

	// The same world code through the barrier-tick engines and the journal
	// merge, outside the window: every run checks one sharded round against
	// the reference. It keeps every core busy, and its speed on a shared
	// two-core host is the host's, so it is a per-layer ratio (the fastest
	// of three rounds, traced run) and not a workload.
	shardedRounds := 1
	if o.trace {
		shardedRounds = 3
	}
	var sharded []float64
	for i := 0; i < shardedRounds; i++ {
		if sl, wall := timed(cityShards); wall != nil {
			sharded = append(sharded, float64(sl.ops)/sl.secs)
		}
	}
	if !o.trace {
		return nil
	}
	r.set("edgesim.shard_speedup", quantile(sharded, 1)/simPerS)
	return cityTraced(ce, o, r)
}

// cityTraced is the traced part of a city run: a short RecordSpans round
// against an identical round without spans gives the tracing overhead and
// the simulated-time budget.
func cityTraced(ce *cityEnv, o options, r *result) error {
	timeRound := func(spans bool) (float64, []tracing.Span, error) {
		t0 := time.Now()
		rd, err := cityRound(ce.env, o.seed, 1, citySpanSteps, spans)
		return time.Since(t0).Seconds(), rd.spans, err
	}
	plain, _, err := timeRound(false)
	if err != nil {
		return err
	}
	traced, journal, err := timeRound(true)
	if err != nil {
		return err
	}
	r.set("tracing.overhead_pct", 100*(1-plain/traced))
	simBudget(journal, r)
	return writeSpans(o.outDir, r.Workload, journal, r)
}

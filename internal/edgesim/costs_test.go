package edgesim

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"testing"

	"perdnn/internal/dnn"
	"perdnn/internal/estimator"
	"perdnn/internal/gpusim"
	"perdnn/internal/mobility"
	"perdnn/internal/profile"
	"perdnn/internal/raceguard"
	"perdnn/internal/trace"
)

var updateCosts = flag.Bool("update", false, "rewrite BENCH_COSTS.json from this run")

// costsFile is the cost ledger at the module root.
const costsFile = "../../BENCH_COSTS.json"

// How a ledger entry is compared with a run.
const (
	// gateExact entries are counts no toolchain moves: equal everywhere.
	gateExact = "exact"
	// gateToolchain entries are bytes and allocations of single-goroutine
	// paths: equal under the ledger's Go version, unchecked under others.
	gateToolchain = "toolchain"
	// gateTolerance entries are bytes and allocations of paths that run
	// workers, whose scheduling moves them a little: within the ledger's
	// tolerance under its Go version, unchecked under others.
	gateTolerance = "toolchain_tolerance"
)

// costLedger is BENCH_COSTS.json: what the repo benchmark's deterministic
// work costs, recorded so that a change to it shows as a diff.
type costLedger struct {
	// Go is the toolchain the byte and allocation entries were taken with.
	Go string `json:"go"`
	// GOMAXPROCS is what every entry ran under. At 1 the forest's
	// trees finish in order and none is copied out to wait for an
	// earlier one, so what training allocates does not depend on timing.
	GOMAXPROCS int `json:"gomaxprocs"`
	// Tolerance is the relative distance a tolerance entry may move.
	Tolerance float64     `json:"tolerance"`
	Entries   []costEntry `json:"entries"`
}

type costEntry struct {
	Name  string `json:"name"`
	Gate  string `json:"gate"`
	Value int64  `json:"value"`
}

const (
	costsGOMAXPROCS = 1
	costsTolerance  = 0.01
	// tracedSteps is the traced round's playback length, short enough
	// that the round allocates well under 256 MB with the collector off.
	tracedSteps = 8
)

// memDelta runs f and returns the bytes and objects it allocated. Two
// collections first empty every sync.Pool (the solvers', the runtime's),
// so f starts from the same state whatever ran before it, and the
// collector is held off while f runs, so none empties them midway.
func memDelta(f func()) (bytes, allocs int64) {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return int64(b.TotalAlloc - a.TotalAlloc), int64(b.Mallocs - a.Mallocs)
}

// measureCosts takes every ledger entry: the repo benchmark's city-sim
// set-up and round (seed-1 Geolife, PerDNN, r = 100, MaxSteps 40, every zoo
// model once, as BenchmarkCityRound), the same round traced over its first
// tracedSteps steps, one run's world construction, and the start-up
// trainings.
func measureCosts(t *testing.T) []costEntry {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(costsGOMAXPROCS))
	var out []costEntry
	add := func(name, gate string, v int64) { out = append(out, costEntry{name, gate, v}) }

	tcfg := trace.GeolifeConfig()
	tcfg.Seed = 1
	ds, err := trace.Generate(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	ecfg := DefaultEnvConfig()
	env, err := PrepareEnv(ds, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	add("env.live_heap_bytes", gateTolerance, envLiveHeap(t, ds, ecfg))

	cityCfg := func(model dnn.ModelName) CityConfig {
		cfg := DefaultCityConfig(model, ModePerDNN, 100)
		cfg.MaxSteps = 40
		return cfg
	}
	round := func() (queries int64) {
		for _, model := range dnn.ZooNames() {
			res, err := RunCity(env, cityCfg(model))
			if err != nil {
				t.Fatal(err)
			}
			queries += int64(res.TotalQueries)
		}
		return queries
	}
	round() // fill the process-wide plan cache, as the benchmark's set-up does
	var queries int64
	bytes, allocs := memDelta(func() { queries = round() })
	add("city_round.plain.sim_queries", gateExact, queries)
	add("city_round.plain.bytes", gateToolchain, bytes)
	add("city_round.plain.allocs", gateToolchain, allocs)

	// The traced round records every span, so it runs tracedSteps steps:
	// at 40 the collector-off window would allocate about 1 GB.
	var spans, events int64
	bytes, allocs = memDelta(func() {
		for _, model := range dnn.ZooNames() {
			cfg := cityCfg(model)
			cfg.MaxSteps, cfg.RecordSpans = tracedSteps, true
			res, err := RunCity(env, cfg)
			if err != nil {
				t.Fatal(err)
			}
			spans += int64(len(res.Spans))
			for _, s := range res.Spans {
				if isDecision(s.Stage) {
					events++
				}
			}
		}
	})
	traced := fmt.Sprintf("city_round.spans_%dsteps.", tracedSteps)
	add(traced+"spans", gateExact, spans)
	add(traced+"decision_events", gateExact, events)
	add(traced+"bytes", gateToolchain, bytes)
	add(traced+"allocs", gateToolchain, allocs)

	bytes, allocs = memDelta(func() {
		if _, _, err := newWorld(env, cityCfg(dnn.ModelMobileNet)); err != nil {
			t.Fatal(err)
		}
	})
	add("new_world.mobilenet.bytes", gateToolchain, bytes)
	add("new_world.mobilenet.allocs", gateToolchain, allocs)

	bytes, allocs = memDelta(func() {
		if _, err := estimator.TrainServerEstimator(profile.ServerTitanXp(), gpusim.DefaultParams(), 1); err != nil {
			t.Fatal(err)
		}
	})
	add("train_server_estimator.seed1.bytes", gateTolerance, bytes)
	add("train_server_estimator.seed1.allocs", gateTolerance, allocs)

	train := capTrain(env.Dataset.Train, ecfg.MaxTrainWindows)
	bytes, allocs = memDelta(func() {
		svr := &mobility.SVR{Seed: ecfg.Seed}
		if err := svr.Fit(train, env.Placement, ecfg.HistoryLen); err != nil {
			t.Fatal(err)
		}
	})
	add("svr_fit.seed1.bytes", gateToolchain, bytes)
	add("svr_fit.seed1.allocs", gateToolchain, allocs)
	return out
}

// envLiveHeap prepares another env and returns the heap it alone keeps
// live: the live heap with it less the live heap once it is dropped, so
// what PrepareEnv leaves to the whole process (a cache an earlier test may
// have filled already) is not counted.
func envLiveHeap(t *testing.T, ds *trace.Dataset, ecfg EnvConfig) int64 {
	env, err := PrepareEnv(ds, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	var with, without runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&with)
	runtime.KeepAlive(env)
	runtime.GC()
	runtime.ReadMemStats(&without)
	return int64(with.HeapAlloc) - int64(without.HeapAlloc)
}

// TestCostLedger compares the costs with BENCH_COSTS.json, or rewrites it
// under -update. A cost that moves fails here until the ledger is updated
// with the change that moved it, so every such change shows as its diff.
func TestCostLedger(t *testing.T) {
	if raceguard.Enabled {
		t.Skip("race detector instrumentation allocates and slows the Geolife set-up tenfold")
	}
	got := measureCosts(t)
	if *updateCosts {
		data, err := json.MarshalIndent(costLedger{
			Go: runtime.Version(), GOMAXPROCS: costsGOMAXPROCS, Tolerance: costsTolerance, Entries: got,
		}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(costsFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(costsFile)
	if err != nil {
		t.Fatal(err)
	}
	var want costLedger
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	sameGo := want.Go == runtime.Version()
	if !sameGo {
		t.Logf("ledger taken with %s, running %s: only the %q entries gate", want.Go, runtime.Version(), gateExact)
	}
	byName := make(map[string]costEntry, len(want.Entries))
	for _, e := range want.Entries {
		byName[e.Name] = e
	}
	for _, g := range got {
		w, ok := byName[g.Name]
		delete(byName, g.Name)
		switch {
		case !ok:
			t.Errorf("%s = %d is not in the ledger (rerun with -update)", g.Name, g.Value)
		case w.Gate != g.Gate:
			t.Errorf("%s: ledger gate %q, test gate %q", g.Name, w.Gate, g.Gate)
		case g.Gate == gateExact || (sameGo && g.Gate == gateToolchain):
			if g.Value != w.Value {
				t.Errorf("%s = %d, ledger %d (%s)", g.Name, g.Value, w.Value, relDiff(g.Value, w.Value))
			}
		case sameGo && g.Gate == gateTolerance:
			if math.Abs(float64(g.Value-w.Value)) > want.Tolerance*float64(w.Value) {
				t.Errorf("%s = %d, ledger %d (%s, tolerance %.0f %%)", g.Name, g.Value, w.Value, relDiff(g.Value, w.Value), 100*want.Tolerance)
			}
		}
		t.Logf("%s = %d (ledger %d)", g.Name, g.Value, w.Value)
	}
	for name := range byName {
		t.Errorf("ledger entry %s is no longer measured (rerun with -update)", name)
	}
}

func relDiff(got, want int64) string {
	if want == 0 {
		return "ledger zero"
	}
	return fmt.Sprintf("%+.2f %%", 100*float64(got-want)/float64(want))
}

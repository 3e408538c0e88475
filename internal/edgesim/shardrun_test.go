package edgesim

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"perdnn/internal/dnn"
	"perdnn/internal/geo"
	"perdnn/internal/obs/tracing"
	"perdnn/internal/trace"
)

// shardCfg is a PerDNN city run that records both journals and exercises
// handoffs, uploads, migrations, and plan reuse across shard boundaries.
func shardCfg(faulty bool) CityConfig {
	cfg := DefaultCityConfig(dnn.ModelMobileNet, ModePerDNN, 100)
	cfg.MaxSteps = 40
	cfg.RecordEvents = true
	cfg.RecordSpans = true
	if faulty {
		cfg.Faults = &FaultModel{
			Seed:             11,
			ServerOutageProb: 0.02,
			MasterBlackouts:  []FaultWindow{{Start: 4 * time.Minute, End: 6 * time.Minute}},
			LinkFaultProb:    0.05,
		}
	}
	return cfg
}

// shardVariant is one configuration the shard-equality tests run.
type shardVariant struct {
	name string
	cfg  CityConfig
}

// shardVariants are shardCfg and the configurations that couple clients
// across shards: injected faults, a shared model cache (every client's
// layers under one store key), and fractional caps on every other server
// (which truncate the migrations touching it).
func shardVariants(env *Env) []shardVariant {
	shared := shardCfg(false)
	shared.SharedModelCache = true
	capped := shardCfg(false)
	capped.FractionCapBytes = make(map[geo.ServerID]int64, env.Placement.Len())
	for id := 0; id < env.Placement.Len(); id += 2 {
		capped.FractionCapBytes[geo.ServerID(id)] = 1 << 20
	}
	return []shardVariant{{"clean", shardCfg(false)}, {"faulty", shardCfg(true)}, {"shared", shared}, {"capped", capped}}
}

// checkVariant fails a variant whose one-shard run does not exercise what
// it couples.
func checkVariant(t *testing.T, v shardVariant, res *CityResult) {
	t.Helper()
	switch {
	case v.cfg.Faults != nil && res.Failovers+res.LocalFallbacks == 0:
		t.Fatalf("%s: the one-shard run triggered no failovers or fallbacks", v.name)
	case v.cfg.FractionCapBytes != nil && res.Metrics.Counters["migrations_truncated_total"] == 0:
		t.Fatalf("%s: the one-shard run truncated no migration", v.name)
	case res.Metrics.Counters["migrations_ordered_total"] == 0:
		t.Fatalf("%s: the one-shard run ordered no migration", v.name)
	}
}

// runJournals executes one run at a shard count and serializes both
// journals to JSONL.
func runJournals(t *testing.T, env *Env, cfg CityConfig, shards int) (*CityResult, []byte, []byte) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	res, err := RunCitySharded(ctx, env, cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	var ev, sp bytes.Buffer
	if err := WriteEvents(&ev, res.Events); err != nil {
		t.Fatal(err)
	}
	if err := tracing.WriteJSONL(&sp, res.Spans); err != nil {
		t.Fatal(err)
	}
	if err := tracing.Validate(res.Spans); err != nil {
		t.Fatalf("shards=%d: invalid span journal: %v", shards, err)
	}
	return res, ev.Bytes(), sp.Bytes()
}

// TestShardedCityDeterministic pins the tentpole contract: the merged
// event journal, span journal, and result of a sharded run are
// byte-identical to the unsharded run at every shard count, for every
// configuration that couples clients across shards.
func TestShardedCityDeterministic(t *testing.T) {
	env := smallEnv(t)
	for _, v := range shardVariants(env) {
		t.Run(v.name, func(t *testing.T) {
			base, ev1, sp1 := runJournals(t, env, v.cfg, 1)
			if len(ev1) == 0 || len(sp1) == 0 {
				t.Fatal("baseline run recorded no events or spans")
			}
			checkVariant(t, v, base)
			for _, shards := range []int{2, 8} {
				res, ev, sp := runJournals(t, env, v.cfg, shards)
				if !bytes.Equal(ev1, ev) {
					t.Errorf("shards=%d: event journal differs from unsharded (%d vs %d bytes)",
						shards, len(ev), len(ev1))
				}
				if !bytes.Equal(sp1, sp) {
					t.Errorf("shards=%d: span journal differs from unsharded (%d vs %d bytes)",
						shards, len(sp), len(sp1))
				}
				if res.TotalQueries != base.TotalQueries ||
					res.WindowQueries != base.WindowQueries ||
					res.SumLatency != base.SumLatency ||
					res.Connections != base.Connections ||
					res.Hits != base.Hits || res.Misses != base.Misses ||
					res.Partials != base.Partials ||
					res.Failovers != base.Failovers ||
					res.LocalFallbacks != base.LocalFallbacks {
					t.Errorf("shards=%d: result counters differ from unsharded: %+v vs %+v",
						shards, res, base)
				}
				if res.Latency.Count() != base.Latency.Count() || res.P99() != base.P99() {
					t.Errorf("shards=%d: latency distribution differs", shards)
				}
				if !reflect.DeepEqual(res.Metrics.Counters, base.Metrics.Counters) {
					t.Errorf("shards=%d: metric counters differ:\n%v\nvs\n%v",
						shards, res.Metrics.Counters, base.Metrics.Counters)
				}
			}
		})
	}
}

// TestShardedSweepDeterministic crosses the two parallelism axes: a sweep
// of sharded runs serializes to the same JSONL at shards 1/2/4 and sweep
// workers 1/2/8 — the satellite's shard-journal determinism grid.
func TestShardedSweepDeterministic(t *testing.T) {
	env := smallEnv(t)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	journal := func(shards, workers int) []byte {
		cfgs := []CityConfig{shardCfg(false), shardCfg(true)}
		for i := range cfgs {
			cfgs[i].Shards = shards
			cfgs[i].MaxSteps = 25
		}
		outs := RunSweepContext(ctx, SweepConfigs(env, cfgs...), workers)
		if err := SweepErr(outs); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, o := range outs {
			if err := WriteEvents(&buf, o.Result.Events); err != nil {
				t.Fatal(err)
			}
			if err := tracing.WriteJSONL(&buf, o.Result.Spans); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	want := journal(1, 1)
	if len(want) == 0 {
		t.Fatal("sweep recorded no journal output")
	}
	for _, shards := range []int{1, 2, 4} {
		for _, workers := range []int{1, 2, 8} {
			if shards == 1 && workers == 1 {
				continue
			}
			if got := journal(shards, workers); !bytes.Equal(want, got) {
				t.Errorf("journal differs at shards=%d workers=%d (%d vs %d bytes)",
					shards, workers, len(got), len(want))
			}
		}
	}
}

// TestShardedCityValidation covers the sharded-run argument checks.
func TestShardedCityValidation(t *testing.T) {
	env := smallEnv(t)
	cfg := DefaultCityConfig(dnn.ModelMobileNet, ModeRouting, 0)
	cfg.MaxSteps = 4
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	if _, err := RunCitySharded(ctx, env, cfg, 2); err == nil {
		t.Error("ModeRouting accepted with 2 shards")
	}
	if _, err := RunCitySharded(ctx, env, cfg, 1); err != nil {
		t.Errorf("ModeRouting rejected with 1 shard: %v", err)
	}
	cfg = DefaultCityConfig(dnn.ModelMobileNet, ModeIONN, 0)
	cfg.Shards = -1
	if _, err := RunCity(env, cfg); err == nil {
		t.Error("negative shard count accepted")
	}
	// Shard counts beyond the server count clamp instead of failing.
	cfg.Shards = 1 << 20
	cfg.MaxSteps = 4
	if _, err := RunCity(env, cfg); err != nil {
		t.Errorf("oversized shard count rejected: %v", err)
	}
}

// benchEnvOnce caches a city sized for the sharding benchmark: enough
// clients to populate every region and a query rate high enough that the
// parallel window phase, not the tick, carries the run.
var benchEnvOnce = sync.OnceValues(func() (*Env, error) {
	cfg := trace.KAISTConfig()
	cfg.TrainUsers = 10
	cfg.TestUsers = 48
	cfg.Duration = 50 * time.Minute
	base, err := trace.Generate(cfg)
	if err != nil {
		return nil, err
	}
	ecfg := DefaultEnvConfig()
	ecfg.MaxTrainWindows = 4000
	return PrepareEnv(base, ecfg)
})

// BenchmarkShardedCity measures one large KAIST city run at several
// shard counts; the 4-shard case against the 1-shard baseline is the
// sharding speedup of a run whose windows, not its ticks, carry it.
func BenchmarkShardedCity(b *testing.B) {
	env, err := benchEnvOnce()
	if err != nil {
		b.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			cfg := DefaultCityConfig(dnn.ModelMobileNet, ModePerDNN, 100)
			cfg.MaxSteps = 40
			cfg.QueryGap = 50 * time.Millisecond
			cfg.Shards = shards
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := RunCity(env, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.TotalQueries), "queries")
			}
		})
	}
}

// TestAutoShardsMatchOneShard: Shards 0 resolves by GOMAXPROCS, so under
// 1, 2 and 4 processors a run must equal the one-shard run field for
// field, journals included, for every configuration of shardVariants. The
// events-only runs shard whenever GOMAXPROCS > 1; the span-recording ones
// resolve to one engine.
func TestAutoShardsMatchOneShard(t *testing.T) {
	env := smallEnv(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	run := func(cfg CityConfig) (*CityResult, []byte, []byte) {
		t.Helper()
		res, err := RunCityContext(context.Background(), env, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var ev, sp bytes.Buffer
		if err := WriteEvents(&ev, res.Events); err != nil {
			t.Fatal(err)
		}
		if err := tracing.WriteJSONL(&sp, res.Spans); err != nil {
			t.Fatal(err)
		}
		return res, ev.Bytes(), sp.Bytes()
	}
	for _, v := range shardVariants(env) {
		for _, spans := range []bool{false, true} {
			cfg := v.cfg
			cfg.MaxSteps = 25
			cfg.RecordSpans = spans
			cfg.Shards = 1
			want, wantEv, wantSp := run(cfg)
			if len(wantEv) == 0 || spans != (len(wantSp) > 0) {
				t.Fatalf("%s spans=%v: the one-shard run recorded %d event and %d span bytes", v.name, spans, len(wantEv), len(wantSp))
			}
			cfg.Shards = 0
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				wantShards := 1
				if procs > 1 && !spans {
					wantShards = shardsPerProc * procs
				}
				if n := shardCount(cfg, env.Placement.Len(), 1); n != wantShards {
					t.Errorf("%s spans=%v procs=%d: Shards 0 resolves to %d, want %d", v.name, spans, procs, n, wantShards)
				}
				got, ev, sp := run(cfg)
				if !bytes.Equal(ev, wantEv) || !bytes.Equal(sp, wantSp) {
					t.Errorf("%s spans=%v procs=%d: journals differ from one shard (%d/%d event, %d/%d span bytes)",
						v.name, spans, procs, len(ev), len(wantEv), len(sp), len(wantSp))
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s spans=%v procs=%d: result differs from one shard:\n%+v\nvs\n%+v", v.name, spans, procs, got, want)
				}
			}
		}
	}
}

// TestShardCountRule is the table of Shards 0's resolution: by GOMAXPROCS
// where a run has the machine to itself, one engine where it does not or
// cannot shard, and every count clamped to the server count.
func TestShardCountRule(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	plain := DefaultCityConfig(dnn.ModelMobileNet, ModePerDNN, 100)
	with := func(f func(*CityConfig)) CityConfig {
		cfg := plain
		f(&cfg)
		return cfg
	}
	for _, tc := range []struct {
		name                       string
		cfg                        CityConfig
		procs, servers, concurrent int
		want                       int
	}{
		{"auto, one processor", plain, 1, 1000, 1, 1},
		{"auto, two processors", plain, 2, 1000, 1, 2 * shardsPerProc},
		{"auto, four processors", plain, 4, 1000, 1, 4 * shardsPerProc},
		{"auto, clamped to the servers", plain, 4, 3, 1, 3},
		{"auto, multi-worker sweep", plain, 4, 1000, 2, 1},
		{"auto, one-worker sweep", plain, 2, 1000, 1, 2 * shardsPerProc},
		{"auto, routing", with(func(c *CityConfig) { c.Mode = ModeRouting }), 4, 1000, 1, 1},
		{"auto, spans", with(func(c *CityConfig) { c.RecordSpans = true }), 4, 1000, 1, 1},
		{"auto, events only", with(func(c *CityConfig) { c.RecordEvents = true }), 2, 1000, 1, 2 * shardsPerProc},
		{"explicit, kept on one processor", with(func(c *CityConfig) { c.Shards = 3 }), 1, 1000, 4, 3},
		{"explicit, clamped to the servers", with(func(c *CityConfig) { c.Shards = 1 << 20 }), 2, 1000, 1, 1000},
		{"negative, left for newWorld", with(func(c *CityConfig) { c.Shards = -1 }), 2, 1000, 1, -1},
	} {
		runtime.GOMAXPROCS(tc.procs)
		if got := shardCount(tc.cfg, tc.servers, tc.concurrent); got != tc.want {
			t.Errorf("%s: shardCount = %d, want %d", tc.name, got, tc.want)
		}
	}

	// End to end: the sweep resolves its runs with its pool size, and a
	// routing run at the default count runs rather than failing.
	env := smallEnv(t)
	runtime.GOMAXPROCS(2)
	routing := DefaultCityConfig(dnn.ModelMobileNet, ModeRouting, 0)
	routing.MaxSteps = 4
	if _, err := RunCity(env, routing); err != nil {
		t.Errorf("routing at Shards 0: %v", err)
	}
	outs := RunSweepContext(context.Background(), SweepConfigs(env, routing, routing), 2)
	if err := SweepErr(outs); err != nil {
		t.Errorf("routing sweep at Shards 0: %v", err)
	}
}

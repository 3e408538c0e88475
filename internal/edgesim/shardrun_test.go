package edgesim

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"perdnn/internal/dnn"
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

// runJournals executes one run at a shard count and serializes both
// journals to JSONL.
func runJournals(t *testing.T, env *Env, cfg CityConfig, shards int) (*CityResult, []byte, []byte) {
	t.Helper()
	res, err := RunCitySharded(t.Context(), env, cfg, shards)
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
// byte-identical to the unsharded run at every shard count, with and
// without injected faults.
func TestShardedCityDeterministic(t *testing.T) {
	env := smallEnv(t)
	for _, faulty := range []bool{false, true} {
		name := "clean"
		if faulty {
			name = "faulty"
		}
		t.Run(name, func(t *testing.T) {
			cfg := shardCfg(faulty)
			base, ev1, sp1 := runJournals(t, env, cfg, 1)
			if len(ev1) == 0 || len(sp1) == 0 {
				t.Fatal("baseline run recorded no events or spans")
			}
			if faulty && base.Failovers+base.LocalFallbacks == 0 {
				t.Fatal("faulty baseline triggered no failovers or fallbacks")
			}
			for _, shards := range []int{2, 4} {
				res, ev, sp := runJournals(t, env, cfg, shards)
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
	journal := func(shards, workers int) []byte {
		cfgs := []CityConfig{shardCfg(false), shardCfg(true)}
		for i := range cfgs {
			cfgs[i].Shards = shards
			cfgs[i].MaxSteps = 25
		}
		outs := RunSweepContext(t.Context(), SweepConfigs(env, cfgs...), workers)
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
	if _, err := RunCitySharded(t.Context(), env, cfg, 2); err == nil {
		t.Error("ModeRouting accepted with 2 shards")
	}
	if _, err := RunCitySharded(t.Context(), env, cfg, 1); err != nil {
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
// parallel window phase, not the serial tick, carries the run.
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

// BenchmarkShardedCity measures one large city run at several shard
// counts; the 4-shard case against the 1-shard baseline is the sharding
// speedup (EXPERIMENTS.md "Region-sharded city runs").
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

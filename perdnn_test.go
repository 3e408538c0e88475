package perdnn_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"perdnn"
	"perdnn/internal/livetest"
	"perdnn/internal/partition"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	m, err := perdnn.LoadModel(perdnn.ModelInception)
	if err != nil {
		t.Fatal(err)
	}
	prof := perdnn.NewProfile(m)
	plan, err := perdnn.Plan(prof)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumServerLayers() == 0 {
		t.Error("Inception should offload on lab Wi-Fi")
	}
	sched, err := plan.UploadSchedule()
	if err != nil {
		t.Fatal(err)
	}
	if len(sched) == 0 {
		t.Error("empty schedule")
	}
}

func TestFacadeModelNames(t *testing.T) {
	names := perdnn.ModelNames()
	if len(names) != 3 {
		t.Fatalf("got %d models", len(names))
	}
	for _, n := range names {
		m, err := perdnn.LoadModel(n)
		if err != nil {
			t.Fatal(err)
		}
		if m.NumLayers() == 0 {
			t.Errorf("%s has no layers", n)
		}
	}
}

func TestFacadeDevices(t *testing.T) {
	c, s := perdnn.ClientDevice(), perdnn.ServerDevice()
	if c.GFLOPS >= s.GFLOPS {
		t.Error("client should be slower than server")
	}
}

func TestFacadePlannerFlow(t *testing.T) {
	m, err := perdnn.LoadModel(perdnn.ModelMobileNet)
	if err != nil {
		t.Fatal(err)
	}
	est, err := perdnn.TrainEstimator(5)
	if err != nil {
		t.Fatal(err)
	}
	planner, err := perdnn.NewPlanner(perdnn.NewProfile(m), est, perdnn.LabWiFi())
	if err != nil {
		t.Fatal(err)
	}
	idle := perdnn.GPUStats{ActiveClients: 1, KernelUtil: 0.1, MemUtil: 0.05, MemUsedMB: 1200, TempC: 35}
	e, err := planner.PlanFor(idle)
	if err != nil {
		t.Fatal(err)
	}
	if e.Plan == nil {
		t.Error("nil plan")
	}
}

func TestFacadeSingleScenario(t *testing.T) {
	cfg := perdnn.SingleDefaults(perdnn.ModelMobileNet)
	res, err := perdnn.RunSingle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Queries) != cfg.NumQueries {
		t.Errorf("got %d queries", len(res.Queries))
	}
}

func TestFacadeCityFlow(t *testing.T) {
	base, err := perdnn.GenerateKAIST()
	if err != nil {
		t.Fatal(err)
	}
	env, err := perdnn.PrepareCity(base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := perdnn.CityDefaults(perdnn.ModelMobileNet, perdnn.ModePerDNN, 100)
	cfg.MaxSteps = 30
	res, err := perdnn.RunCityContext(context.Background(), env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalQueries == 0 {
		t.Error("no queries executed")
	}
	if _, err := perdnn.GenerateGeolife(); err != nil {
		t.Fatal(err)
	}

	// The tracing surface: RecordSpans yields a validating span journal
	// that serializes to JSONL and Perfetto through the facade.
	cfg.RecordSpans = true
	res, err = perdnn.RunCityContext(context.Background(), env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Spans) == 0 {
		t.Fatal("RecordSpans produced no spans")
	}
	if err := perdnn.ValidateSpans(res.Spans); err != nil {
		t.Errorf("span journal invalid: %v", err)
	}
	var jsonl, pft bytes.Buffer
	if err := perdnn.WriteSpanJournal(&jsonl, res.Spans); err != nil {
		t.Fatal(err)
	}
	if err := perdnn.WritePerfettoTrace(&pft, res.Spans); err != nil {
		t.Fatal(err)
	}
	if jsonl.Len() == 0 || pft.Len() == 0 {
		t.Error("span exports are empty")
	}
	if perdnn.NewWallClockTracer() == nil {
		t.Error("wall-clock tracer is disabled")
	}
}

// TestFacadeOptionsPartition: WithSlowdown actually changes the answer, and
// WithMinCut plans.
func TestFacadeOptionsPartition(t *testing.T) {
	m, err := perdnn.LoadModel(perdnn.ModelInception)
	if err != nil {
		t.Fatal(err)
	}
	prof := perdnn.NewProfile(m)

	idle, err := perdnn.Plan(prof)
	if err != nil {
		t.Fatal(err)
	}
	congested, err := perdnn.Plan(prof, perdnn.WithSlowdown(50))
	if err != nil {
		t.Fatal(err)
	}
	if congested.NumServerLayers() >= idle.NumServerLayers() {
		t.Errorf("50x contention kept %d server layers (idle: %d)",
			congested.NumServerLayers(), idle.NumServerLayers())
	}

	if _, err := perdnn.Plan(prof, perdnn.WithLink(perdnn.LabWiFi()), perdnn.WithMinCut()); err != nil {
		t.Fatal(err)
	}
}

// TestFacadePlanEquivalence: the Plan facade hands its options to the
// solvers unchanged — at K=1 the Fig 5 split, its upload schedule, and the
// min-cut split are bit-identical to the internal/partition calls.
func TestFacadePlanEquivalence(t *testing.T) {
	for _, name := range perdnn.ModelNames() {
		m, err := perdnn.LoadModel(name)
		if err != nil {
			t.Fatal(err)
		}
		prof := perdnn.NewProfile(m)
		for _, slowdown := range []float64{1, 8} {
			opts := []perdnn.Option{perdnn.WithSlowdown(slowdown), perdnn.WithLink(perdnn.LabWiFi())}
			req := partition.Request{Profile: prof, Slowdown: slowdown, Link: partition.LabWiFi()}
			want, err := partition.Partition(req)
			if err != nil {
				t.Fatal(err)
			}
			unified, err := perdnn.Plan(prof, opts...)
			if err != nil {
				t.Fatal(err)
			}
			split := unified.Split()
			if !reflect.DeepEqual(split.Loc, want.Loc) || split.EstLatency != want.EstLatency ||
				split.Slowdown != want.Slowdown || split.Link != want.Link {
				t.Errorf("%s/%vx: Plan().Split() is not bit-identical to partition.Partition", name, slowdown)
			}
			if unified.EstLatency != want.EstLatency {
				t.Errorf("%s/%vx: Plan latency %v != partition.Partition %v", name, slowdown, unified.EstLatency, want.EstLatency)
			}
			wantSched, err := partition.UploadSchedule(req, want)
			if err != nil {
				t.Fatal(err)
			}
			sched, err := unified.UploadSchedule()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(wantSched, sched) {
				t.Errorf("%s/%vx: Plan().UploadSchedule() diverges from partition.UploadSchedule", name, slowdown)
			}

			wantCut, err := partition.PartitionMinCut(req)
			if err != nil {
				t.Fatal(err)
			}
			cut, err := perdnn.Plan(prof, append(opts, perdnn.WithMinCut())...)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cut.Split().Loc, wantCut.Loc) || cut.Split().EstLatency != wantCut.EstLatency {
				t.Errorf("%s/%vx: WithMinCut diverges from partition.PartitionMinCut", name, slowdown)
			}
		}
	}
}

// TestFacadePlanPipeline: the multi-hop options produce a chain whose
// bottleneck beats the single-split pipeline on loaded servers.
func TestFacadePlanPipeline(t *testing.T) {
	m, err := perdnn.LoadModel(perdnn.ModelInception)
	if err != nil {
		t.Fatal(err)
	}
	prof := perdnn.NewProfile(m)
	chain, err := perdnn.Plan(prof,
		perdnn.WithObjective(perdnn.ObjectiveThroughput),
		perdnn.WithMaxHops(3),
		perdnn.WithServers(
			perdnn.ServerSpec{ID: 0, Slowdown: 6},
			perdnn.ServerSpec{ID: 1, Slowdown: 6},
			perdnn.ServerSpec{ID: 2, Slowdown: 6}))
	if err != nil {
		t.Fatal(err)
	}
	if chain.NumHops() < 2 {
		t.Fatalf("expected a multi-hop chain, got %d hops", chain.NumHops())
	}
	if chain.Objective != perdnn.ObjectiveThroughput {
		t.Errorf("objective not carried through: %v", chain.Objective)
	}
	if chain.Bottleneck <= 0 || chain.Bottleneck > chain.EstLatency {
		t.Errorf("bottleneck %v outside (0, EstLatency=%v]", chain.Bottleneck, chain.EstLatency)
	}
	if chain.Split() == nil {
		t.Error("multi-hop plan has no single-split fallback")
	}
}

// TestFacadeSentinels: the re-exported sentinels are distinct and surface
// through the live path under errors.Is.
func TestFacadeSentinels(t *testing.T) {
	sentinels := []error{
		perdnn.ErrServerDown, perdnn.ErrMasterDown,
		perdnn.ErrRetryBudgetExhausted, perdnn.ErrLocalFallback,
		perdnn.ErrExecRefused,
	}
	for i, a := range sentinels {
		for j, b := range sentinels {
			if (i == j) != errors.Is(a, b) {
				t.Errorf("sentinel identity broken between %v and %v", a, b)
			}
		}
	}

	// A dead master: DialLive must fail fast with both sentinels.
	addr := livetest.DeadAddr(t)
	retry := perdnn.DefaultRetryPolicy()
	retry.MaxAttempts = 2
	retry.BaseDelay = time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err := perdnn.DialLive(ctx,
		perdnn.LiveConfig{ID: 1, Model: perdnn.ModelMobileNet, MasterAddr: addr, Retry: &retry})
	if !errors.Is(err, perdnn.ErrMasterDown) || !errors.Is(err, perdnn.ErrRetryBudgetExhausted) {
		t.Errorf("DialLive err = %v, want ErrMasterDown and ErrRetryBudgetExhausted", err)
	}
}

// TestFacadeFaultyCity: cfg.Faults flows into the run and churn shows up
// in the result; a canceled context aborts cleanly.
func TestFacadeFaultyCity(t *testing.T) {
	base, err := perdnn.GenerateKAIST()
	if err != nil {
		t.Fatal(err)
	}
	env, err := perdnn.PrepareCity(base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := perdnn.CityDefaults(perdnn.ModelMobileNet, perdnn.ModePerDNN, 100)
	cfg.MaxSteps = 30
	cfg.Faults = &perdnn.FaultModel{Seed: 3, ServerOutageProb: 0.1, OutageIntervals: 2}
	res, err := perdnn.RunCityContext(context.Background(), env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failovers+res.LocalFallbacks == 0 {
		t.Error("faulty facade run reports no churn")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := perdnn.RunCityContext(ctx, env, cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	outs := perdnn.RunSweepContext(ctx, perdnn.SweepConfigs(env, cfg), 1)
	if err := perdnn.SweepErr(outs); !errors.Is(err, context.Canceled) {
		t.Errorf("sweep err = %v, want context.Canceled", err)
	}
}

func TestFacadeMultiDNN(t *testing.T) {
	res, err := perdnn.RunMultiDNN(perdnn.MultiDefaults(perdnn.UploadJoint))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Queries) == 0 {
		t.Error("no multi-DNN queries")
	}
}

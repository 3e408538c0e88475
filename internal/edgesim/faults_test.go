package edgesim

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"perdnn/internal/dnn"
	"perdnn/internal/geo"
	"perdnn/internal/obs/tracing"
)

// faultyCfg is the canonical faulty PerDNN cell used across these tests:
// aggressive enough that every fault path fires within 40 steps.
func faultyCfg() CityConfig {
	cfg := DefaultCityConfig(dnn.ModelMobileNet, ModePerDNN, 100)
	cfg.MaxSteps = 40
	cfg.RecordEvents = true
	cfg.Faults = &FaultModel{
		Seed:             7,
		ServerOutageProb: 0.05,
		OutageIntervals:  2,
		LinkFaultProb:    0.05,
		MasterBlackouts:  []FaultWindow{{Start: 200 * time.Second, End: 280 * time.Second}},
	}
	return cfg
}

func countEvents(events []tracing.Span, stage tracing.Stage) int {
	n := 0
	for _, e := range events {
		if e.Stage == stage {
			n++
		}
	}
	return n
}

// TestFaultModelValidate rejects out-of-range probabilities and empty
// windows.
func TestFaultModelValidate(t *testing.T) {
	var nilModel *FaultModel
	if err := nilModel.Validate(); err != nil {
		t.Errorf("nil model invalid: %v", err)
	}
	bad := []FaultModel{
		{ServerOutageProb: -0.1},
		{ServerOutageProb: 1.5},
		{LinkFaultProb: 2},
		{ServerOutages: map[geo.ServerID][]FaultWindow{3: {{Start: 5, End: 5}}}},
		{MasterBlackouts: []FaultWindow{{Start: 10, End: 1}}},
	}
	for i := range bad {
		if err := bad[i].Validate(); err == nil {
			t.Errorf("model %d accepted: %+v", i, bad[i])
		}
	}
	env := smallEnv(t)
	cfg := DefaultCityConfig(dnn.ModelMobileNet, ModeIONN, 0)
	cfg.MaxSteps = 2
	cfg.Faults = &FaultModel{ServerOutageProb: 2}
	if _, err := RunCity(env, cfg); err == nil {
		t.Error("RunCity accepted an invalid fault model")
	}
}

// TestFaultWindowsMergeAndLookup covers the schedule realization helpers.
func TestFaultWindowsMergeAndLookup(t *testing.T) {
	ws := mergeWindows([]FaultWindow{
		{Start: 40, End: 60}, {Start: 0, End: 20}, {Start: 10, End: 30},
	})
	want := []FaultWindow{{Start: 0, End: 30}, {Start: 40, End: 60}}
	if len(ws) != len(want) {
		t.Fatalf("merged to %v", ws)
	}
	for i := range want {
		if ws[i] != want[i] {
			t.Errorf("window %d = %v, want %v", i, ws[i], want[i])
		}
	}

	f := &FaultModel{ServerOutages: map[geo.ServerID][]FaultWindow{
		1: {{Start: 20 * time.Second, End: 40 * time.Second}},
	}}
	st := newFaultState(f, 3, 10, 20*time.Second)
	cases := []struct {
		id   geo.ServerID
		t    time.Duration
		down bool
	}{
		{1, 19 * time.Second, false},
		{1, 20 * time.Second, true},
		{1, 39 * time.Second, true},
		{1, 40 * time.Second, false},
		{0, 20 * time.Second, false},
		{geo.NoServer, 20 * time.Second, false},
	}
	for _, c := range cases {
		if got := st.serverDown(c.id, c.t); got != c.down {
			t.Errorf("serverDown(%d, %v) = %v, want %v", c.id, c.t, got, c.down)
		}
	}
}

// TestFaultyRunReportsChurn: a faulty city run surfaces outage, failover,
// and local-fallback events plus the matching counters, and its tail
// latency is no better than the fault-free baseline — churn costs.
func TestFaultyRunReportsChurn(t *testing.T) {
	env := smallEnv(t)
	cfg := faultyCfg()
	res, err := RunCity(env, cfg)
	if err != nil {
		t.Fatal(err)
	}

	base := cfg
	base.Faults = nil
	baseline, err := RunCity(env, base)
	if err != nil {
		t.Fatal(err)
	}

	if n := countEvents(res.Events, tracing.StageServerDown); n == 0 {
		t.Error("no server_down events; outage probability too low for the test")
	}
	if countEvents(res.Events, tracing.StageServerDown) != int(res.Metrics.Counters["server_downs_total"]) {
		t.Error("server_down events disagree with server_downs_total")
	}
	if res.Failovers+res.LocalFallbacks == 0 {
		t.Error("no failovers or local fallbacks despite outages")
	}
	if res.Failovers != int(res.Metrics.Counters["failovers_total"]) {
		t.Errorf("Failovers %d != counter %d", res.Failovers, res.Metrics.Counters["failovers_total"])
	}
	if res.LocalFallbacks != int(res.Metrics.Counters["local_fallbacks_total"]) {
		t.Errorf("LocalFallbacks %d != counter %d", res.LocalFallbacks, res.Metrics.Counters["local_fallbacks_total"])
	}
	if countEvents(res.Events, tracing.StageFailover) != res.Failovers {
		t.Error("failover events disagree with Failovers")
	}
	if countEvents(res.Events, tracing.StageLocalFallback) != res.LocalFallbacks {
		t.Error("local_fallback events disagree with LocalFallbacks")
	}

	if baseline.Failovers != 0 || baseline.LocalFallbacks != 0 {
		t.Errorf("fault-free run reports churn: %d failovers, %d fallbacks",
			baseline.Failovers, baseline.LocalFallbacks)
	}
	if countEvents(baseline.Events, tracing.StageServerDown) != 0 {
		t.Error("fault-free run has server_down events")
	}
	if res.P95() < baseline.P95() {
		t.Errorf("faulty p95 %v beat fault-free p95 %v", res.P95(), baseline.P95())
	}
}

// faultSweepJournal serializes the journals of a faulty 3-cell sweep at a
// given worker count.
func faultSweepJournal(t *testing.T, env *Env, workers int) []byte {
	t.Helper()
	cfgs := []CityConfig{faultyCfg(), faultyCfg(), faultyCfg()}
	cfgs[1].Mode, cfgs[1].Radius = ModeIONN, 0
	cfgs[2].Faults.Seed = 99
	cfgs[2].Faults.LinkFaultProb = 0.2
	outs := RunSweepContext(context.Background(), SweepConfigs(env, cfgs...), workers)
	if err := SweepErr(outs); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, o := range outs {
		if err := WriteEvents(&buf, o.Result.Events); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestFaultJournalDeterministicAcrossWorkers: the fault journal — outages,
// failovers, fallbacks interleaved with the usual events — is byte-identical
// at 1, 2, and 8 sweep workers (ISSUE 3's acceptance contract).
func TestFaultJournalDeterministicAcrossWorkers(t *testing.T) {
	env := smallEnv(t)
	seq := faultSweepJournal(t, env, 1)
	if len(seq) == 0 {
		t.Fatal("fault sweep recorded no events")
	}
	if !bytes.Contains(seq, []byte(`"server_down"`)) {
		t.Error("journal has no server_down events")
	}
	for _, workers := range []int{2, 8} {
		par := faultSweepJournal(t, env, workers)
		if !bytes.Equal(seq, par) {
			t.Errorf("journal differs between workers=1 (%d bytes) and workers=%d (%d bytes)",
				len(seq), workers, len(par))
		}
	}
}

// TestMasterBlackoutForcesLocalFallback: an explicit full-run blackout
// means no client ever gets a plan — every handoff degrades to local
// execution and no layer bytes move.
func TestMasterBlackoutForcesLocalFallback(t *testing.T) {
	env := smallEnv(t)
	cfg := DefaultCityConfig(dnn.ModelMobileNet, ModePerDNN, 100)
	cfg.MaxSteps = 10
	cfg.RecordEvents = true
	cfg.Faults = &FaultModel{
		MasterBlackouts: []FaultWindow{{Start: 0, End: time.Duration(11) * env.Interval}},
	}
	res, err := RunCity(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Connections != 0 {
		t.Errorf("%d connections completed during a full blackout", res.Connections)
	}
	if res.LocalFallbacks == 0 {
		t.Error("no local fallbacks during a full blackout")
	}
	if res.TotalQueries == 0 {
		t.Error("no queries ran; local degradation should keep serving")
	}
	up, down := res.Traffic.TotalBytes()
	if up != 0 || down != 0 {
		t.Errorf("backhaul moved %d/%d bytes with no plans", up, down)
	}
}

// TestRunCityContextCancel: a canceled context aborts the run at the next
// tick and surfaces context.Canceled.
func TestRunCityContextCancel(t *testing.T) {
	env := smallEnv(t)
	cfg := DefaultCityConfig(dnn.ModelMobileNet, ModeIONN, 0)
	cfg.MaxSteps = 40
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunCityContext(ctx, env, cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}

	outs := RunSweepContext(ctx, SweepConfigs(env, cfg, cfg), 2)
	for i, o := range outs {
		if !errors.Is(o.Err, context.Canceled) {
			t.Errorf("outcome %d err = %v, want context.Canceled", i, o.Err)
		}
	}
}

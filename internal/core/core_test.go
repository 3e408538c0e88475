package core

import (
	"slices"
	"sync"
	"testing"
	"time"

	"perdnn/internal/dnn"
	"perdnn/internal/estimator"
	"perdnn/internal/geo"
	"perdnn/internal/gpusim"
	"perdnn/internal/mobility"
	"perdnn/internal/partition"
	"perdnn/internal/profile"
	"perdnn/internal/raceguard"
	"perdnn/internal/trace"
)

var testPlannerOnce = sync.OnceValues(func() (*Planner, error) {
	m := dnn.MobileNetV1()
	prof := profile.NewModelProfile(m, profile.ClientODROID(), profile.ServerTitanXp())
	est, err := estimator.TrainServerEstimator(profile.ServerTitanXp(), gpusim.DefaultParams(), 3)
	if err != nil {
		return nil, err
	}
	return NewPlanner(prof, est, partition.LabWiFi())
})

func testPlanner(t *testing.T) *Planner {
	t.Helper()
	p, err := testPlannerOnce()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewPlannerValidation(t *testing.T) {
	if _, err := NewPlanner(nil, nil, partition.LabWiFi()); err == nil {
		t.Error("nil inputs accepted")
	}
}

func TestPlannerCachesBySlowdownBucket(t *testing.T) {
	p := testPlanner(t)
	a, err := p.planAt(1.01)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.planAt(1.05)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("nearby slowdowns not cached together")
	}
	c, err := p.planAt(8)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("distant slowdowns share a cache entry")
	}
	// Sub-1 slowdowns plan at 1.
	d, err := p.planAt(0.2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Plan.Slowdown != a.Plan.Slowdown {
		t.Errorf("slowdown 0.2 planned at %v, want %v", d.Plan.Slowdown, a.Plan.Slowdown)
	}
}

func TestPlannerContentionShiftsPlan(t *testing.T) {
	p := testPlanner(t)
	idle, err := p.planAt(1)
	if err != nil {
		t.Fatal(err)
	}
	jam, err := p.planAt(400)
	if err != nil {
		t.Fatal(err)
	}
	if jam.Plan.NumServerLayers() >= idle.Plan.NumServerLayers() {
		t.Errorf("contention did not shrink offloading: %d -> %d",
			idle.Plan.NumServerLayers(), jam.Plan.NumServerLayers())
	}
}

// TestPlanEntryLayersMatchPlan holds each entry's layer set to the plan it
// bundles: exactly the server-side layers, which the schedule uploads.
func TestPlanEntryLayersMatchPlan(t *testing.T) {
	p := testPlanner(t)
	for _, slowdown := range []float64{1, 2, 4, 16, 400} {
		e, err := p.planAt(slowdown)
		if err != nil {
			t.Fatal(err)
		}
		want := e.Plan.ServerLayers()
		if got := e.Layers.Count(); got != len(want) {
			t.Errorf("slowdown %v: set holds %d layers, plan %d", slowdown, got, len(want))
		}
		// The schedule lists each server layer once, so set counts are
		// layer counts (the simulator's truncation tally relies on it).
		listed := 0
		for _, u := range e.Schedule {
			listed += len(u.Layers)
		}
		if listed != len(want) {
			t.Errorf("slowdown %v: schedule lists %d layers, plan %d", slowdown, listed, len(want))
		}
		for _, id := range want {
			if !e.Layers.Has(id) {
				t.Errorf("slowdown %v: server layer %d missing from the set", slowdown, id)
			}
		}
		if got, want := e.Layers.WeightBytes(e.Plan.Model), e.Plan.ServerBytes(); got != want {
			t.Errorf("slowdown %v: set weighs %d bytes, plan %d", slowdown, got, want)
		}
		// Row k of the split table is the first k units decomposed afresh;
		// a cold start uploads one unit a row, so none may be empty.
		if len(e.Splits) != len(e.Schedule)+1 {
			t.Fatalf("slowdown %v: %d split rows for %d units", slowdown, len(e.Splits), len(e.Schedule))
		}
		for k := range e.Splits {
			loc := partition.AllClient(e.Plan.Model)
			for _, u := range e.Schedule[:k] {
				if len(u.Layers) == 0 {
					t.Fatalf("slowdown %v: empty schedule unit", slowdown)
				}
				for _, id := range u.Layers {
					loc[id] = partition.AtServer
				}
			}
			if want := partition.Decompose(p.Profile(), loc); e.Splits[k] != want {
				t.Errorf("slowdown %v: row %d = %+v, Decompose %+v", slowdown, k, e.Splits[k], want)
			}
		}
		if got, want := e.Splits[len(e.Schedule)], partition.Decompose(p.Profile(), e.Plan.Loc); got != want {
			t.Errorf("slowdown %v: last row = %+v, the plan's split %+v", slowdown, got, want)
		}
	}
}

func TestPlannerUsesGPUStats(t *testing.T) {
	p := testPlanner(t)
	idle := gpusim.Stats{ActiveClients: 1, KernelUtil: 0.1, MemUtil: 0.05, MemUsedMB: 1200, TempC: 35}
	busy := gpusim.Stats{ActiveClients: 12, KernelUtil: 0.75, MemUtil: 0.45, MemUsedMB: 9500, TempC: 92}
	if si, sb := p.Slowdown(idle), p.Slowdown(busy); sb <= si {
		t.Errorf("slowdown idle %v vs busy %v", si, sb)
	}
	e, err := p.PlanFor(idle)
	if err != nil {
		t.Fatal(err)
	}
	if e.Plan == nil || len(e.Schedule) == 0 {
		t.Error("empty plan entry")
	}
}

func policyEnv(t *testing.T) (*MigrationPolicy, *geo.Placement) {
	t.Helper()
	cfg := trace.KAISTConfig()
	cfg.TrainUsers = 6
	cfg.TestUsers = 3
	cfg.Duration = 40 * time.Minute
	base, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := base.Resample(20 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	pl := geo.NewPlacement(geo.NewHexGrid(50), ds.AllPoints())
	svr := &mobility.SVR{Seed: 1}
	if err := svr.Fit(ds.Train, pl, 5); err != nil {
		t.Fatal(err)
	}
	pol := &MigrationPolicy{
		Predictor:    svr,
		Placement:    pl,
		Radius:       100,
		HistoryLen:   5,
		TTLIntervals: 5,
	}
	if err := pol.Validate(); err != nil {
		t.Fatal(err)
	}
	return pol, pl
}

func TestPolicyValidate(t *testing.T) {
	pol, _ := policyEnv(t)
	bad := *pol
	bad.Predictor = nil
	if bad.Validate() == nil {
		t.Error("nil predictor accepted")
	}
	bad = *pol
	bad.Radius = 0
	if bad.Validate() == nil {
		t.Error("zero radius accepted")
	}
	bad = *pol
	bad.TTLIntervals = 0
	if bad.Validate() == nil {
		t.Error("zero TTL accepted")
	}
	bad = *pol
	bad.HistoryLen = 0
	if bad.Validate() == nil {
		t.Error("zero history accepted")
	}
}

func TestPolicyTargets(t *testing.T) {
	pol, pl := policyEnv(t)
	// A straight-line recent trajectory somewhere in the area.
	center := pl.Center(0)
	recent := make([]geo.Point, 0, 5)
	for i := 0; i < 5; i++ {
		recent = append(recent, center.Add(geo.Point{X: float64(i) * 10, Y: 0}))
	}
	cur := pl.ServerAt(recent[len(recent)-1])
	targets, ok := pol.Targets(recent, cur)
	if !ok {
		t.Fatal("no prediction")
	}
	for _, id := range targets {
		if id == cur {
			t.Error("targets include the current server")
		}
	}
	if _, ok := pol.Targets(nil, cur); ok {
		t.Error("empty history produced a prediction")
	}
	// AppendTargets keeps what dst held and appends the same servers.
	if got, _ := pol.AppendTargets([]geo.ServerID{cur}, recent, cur); !slices.Equal(got, append([]geo.ServerID{cur}, targets...)) {
		t.Errorf("AppendTargets onto [%d] = %v, Targets = %v", cur, got, targets)
	}
}

// TestPolicyTargetsAllocs: one migration step allocates nothing once the
// caller's buffer has room: Within appends into it, AppendTargets filters
// in place, and the SVR's prediction allocates nothing.
func TestPolicyTargetsAllocs(t *testing.T) {
	if raceguard.Enabled {
		t.Skip("race detector instrumentation allocates; gate runs in non-race builds")
	}
	pol, pl := policyEnv(t)
	recent := make([]geo.Point, 5)
	for i := range recent {
		recent[i] = pl.Center(0).Add(geo.Point{X: float64(i) * 10})
	}
	cur := pl.ServerAt(recent[len(recent)-1])
	buf, _ := pol.Targets(recent, cur)
	if n := testing.AllocsPerRun(100, func() { buf, _ = pol.AppendTargets(buf[:0], recent, cur) }); n != 0 {
		t.Errorf("AppendTargets allocates %.0f times, budget 0", n)
	}
}

// TestPolicyFractionalCaps: the tighter endpoint's cap wins, and Want
// returns the entry's own set uncapped, the schedule prefix that fits the
// cap otherwise, with the layers the cut dropped.
func TestPolicyFractionalCaps(t *testing.T) {
	pol, _ := policyEnv(t)
	e, err := testPlanner(t).planAt(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Schedule) < 2 {
		t.Fatalf("plan schedules %d units, want at least 2 to cut between", len(e.Schedule))
	}
	ids := func(s dnn.LayerSet) []dnn.LayerID { return s.AppendIDs(nil) }
	if pol.CapBytes(1, 2) != -1 {
		t.Error("uncapped transfer has a budget")
	}
	if got, dropped := pol.Want(e, 1, 2); !slices.Equal(ids(got), ids(e.Layers)) || dropped != 0 {
		t.Errorf("uncapped Want = %d layers, %d dropped; want the entry's %d, 0", got.Count(), dropped, e.Layers.Count())
	}

	// Cap src just above the first half of the schedule, dst above the
	// whole of it: the src cap is the tighter and cuts the plan.
	half := partition.ScheduleBytes(e.Schedule[:len(e.Schedule)/2])
	pol.FractionCapBytes = map[geo.ServerID]int64{1: half + 1, 2: 1 << 40}
	if got := pol.CapBytes(1, 3); got != half+1 {
		t.Errorf("src cap = %d", got)
	}
	if got := pol.CapBytes(3, 2); got != 1<<40 {
		t.Errorf("dst cap = %d", got)
	}
	if got := pol.CapBytes(1, 2); got != half+1 {
		t.Errorf("tightest cap = %d", got)
	}
	n := e.Plan.Model.NumLayers()
	want := partition.ScheduleSet(partition.TruncateSchedule(e.Schedule, half+1), n)
	got, dropped := pol.Want(e, 1, 2)
	if !slices.Equal(ids(got), ids(want)) {
		t.Errorf("capped Want = %v, want %v", ids(got), ids(want))
	}
	if w := e.Layers.Count() - want.Count(); dropped != w || dropped == 0 {
		t.Errorf("capped Want dropped %d layers, want %d (> 0)", dropped, w)
	}
	if got, dropped := pol.Want(e, 3, 2); !slices.Equal(ids(got), ids(e.Layers)) || dropped != 0 {
		t.Errorf("a cap the whole schedule fits cut it: %d layers, %d dropped", got.Count(), dropped)
	}
}

func TestPolicyTargetsWithMarkov(t *testing.T) {
	// Discrete predictors route through Rank + the top server's center.
	pol, pl := policyEnv(t)
	cfg := trace.KAISTConfig()
	cfg.TrainUsers = 6
	cfg.TestUsers = 3
	cfg.Duration = 40 * time.Minute
	base, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := base.Resample(20 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	mk := &mobility.Markov{}
	if err := mk.Fit(ds.Train, pl, 5); err != nil {
		t.Fatal(err)
	}
	pol.Predictor = mk
	recent := ds.Test[0].Points[:5]
	if _, ok := pol.Targets(recent, geo.NoServer); !ok {
		t.Error("Markov policy produced no targets")
	}
}

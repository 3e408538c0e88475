package partition

import (
	"reflect"
	"testing"
	"time"

	"perdnn/internal/dnn"
	"perdnn/internal/profile"
	"perdnn/internal/raceguard"
)

// equivalenceGrid enumerates the (model, slowdown, link) space the scratch
// solver is proven bit-identical to the reference implementations over:
// every zoo model, slowdowns spanning all-offload to all-local regimes
// (including non-bucket values), and links from congested to fiber-fast.
func equivalenceGrid(t *testing.T) []Request {
	t.Helper()
	slowdowns := []float64{1, 1.25, 1.7, 2.5, 4, 8}
	links := []Link{
		LabWiFi(),
		{UpBps: 2e6, DownBps: 4e6, RTT: 40 * time.Millisecond},
		{UpBps: 500e6, DownBps: 500e6, RTT: 1 * time.Millisecond},
	}
	var reqs []Request
	for _, name := range dnn.ZooNames() {
		m, err := dnn.ZooModel(name)
		if err != nil {
			t.Fatalf("ZooModel(%s): %v", name, err)
		}
		prof := profile.NewModelProfile(m, profile.ClientODROID(), profile.ServerTitanXp())
		for _, s := range slowdowns {
			for _, l := range links {
				reqs = append(reqs, Request{Profile: prof, Slowdown: s, Link: l})
			}
		}
	}
	return reqs
}

func TestSolverPartitionMatchesReference(t *testing.T) {
	s := NewSolver()
	for _, req := range equivalenceGrid(t) {
		want, err := ReferencePartition(req)
		if err != nil {
			t.Fatalf("%s s=%v: reference: %v", req.Profile.Model.Name, req.Slowdown, err)
		}
		got, err := s.Partition(req)
		if err != nil {
			t.Fatalf("%s s=%v: solver: %v", req.Profile.Model.Name, req.Slowdown, err)
		}
		if got.EstLatency != want.EstLatency {
			t.Errorf("%s s=%v link=%v: latency %v != reference %v",
				req.Profile.Model.Name, req.Slowdown, req.Link, got.EstLatency, want.EstLatency)
		}
		if !reflect.DeepEqual(got.Loc, want.Loc) {
			t.Errorf("%s s=%v link=%v: assignment diverges from reference",
				req.Profile.Model.Name, req.Slowdown, req.Link)
		}
		if got.Slowdown != want.Slowdown || got.Link != want.Link || got.Model != want.Model {
			t.Errorf("%s s=%v: plan metadata diverges", req.Profile.Model.Name, req.Slowdown)
		}
	}
}

func TestSolverUploadScheduleMatchesReference(t *testing.T) {
	s := NewSolver()
	for _, req := range equivalenceGrid(t) {
		plan, err := ReferencePartition(req)
		if err != nil {
			t.Fatalf("reference partition: %v", err)
		}
		want, err := ReferenceUploadSchedule(req, plan)
		if err != nil {
			t.Fatalf("reference schedule: %v", err)
		}
		got, err := s.UploadSchedule(req, plan)
		if err != nil {
			t.Fatalf("solver schedule: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s s=%v link=%v: schedule diverges from reference (%d vs %d units)",
				req.Profile.Model.Name, req.Slowdown, req.Link, len(got), len(want))
		}
	}
}

func TestEvaluateAndDecomposeMatchReference(t *testing.T) {
	s := NewSolver()
	for _, req := range equivalenceGrid(t) {
		plan, err := s.Partition(req)
		if err != nil {
			t.Fatalf("partition: %v", err)
		}
		// The optimal assignment plus both trivial ones cover client-only,
		// server-only, and mixed frontiers.
		m := req.Profile.Model
		for _, loc := range [][]Location{plan.Loc, AllClient(m), allServer(m)} {
			got, err := Evaluate(req, loc)
			if err != nil {
				t.Fatalf("evaluate: %v", err)
			}
			want, err := ReferenceEvaluate(req, loc)
			if err != nil {
				t.Fatalf("reference evaluate: %v", err)
			}
			if got != want {
				t.Errorf("%s: Evaluate %v != reference %v", m.Name, got, want)
			}
			gotSp := Decompose(req.Profile, loc)
			wantSp := ReferenceDecompose(req.Profile, loc)
			if gotSp != wantSp {
				t.Errorf("%s: Decompose %+v != reference %+v", m.Name, gotSp, wantSp)
			}
		}
	}
}

func TestPackageWrappersMatchSolver(t *testing.T) {
	s := NewSolver()
	for _, req := range equivalenceGrid(t) {
		direct, err := s.Partition(req)
		if err != nil {
			t.Fatalf("solver: %v", err)
		}
		direct = direct.Clone() // survives the wrapper's own solver use
		wrapped, err := Partition(req)
		if err != nil {
			t.Fatalf("wrapper: %v", err)
		}
		if !reflect.DeepEqual(wrapped, direct) {
			t.Errorf("%s: Partition wrapper diverges from Solver", req.Profile.Model.Name)
		}
		p2, sched, err := PlanAndSchedule(req)
		if err != nil {
			t.Fatalf("PlanAndSchedule: %v", err)
		}
		if !reflect.DeepEqual(p2, direct) {
			t.Errorf("%s: PlanAndSchedule plan diverges", req.Profile.Model.Name)
		}
		wantSched, err := UploadSchedule(req, direct)
		if err != nil {
			t.Fatalf("UploadSchedule: %v", err)
		}
		if !reflect.DeepEqual(sched, wantSched) {
			t.Errorf("%s: PlanAndSchedule schedule diverges", req.Profile.Model.Name)
		}
	}
}

func TestSolverPlanAliasInvalidatedByNextCall(t *testing.T) {
	m := dnn.MobileNetV1()
	req := reqFor(t, m, 1)
	s := NewSolver()
	p1, err := s.Partition(req)
	if err != nil {
		t.Fatal(err)
	}
	keep := p1.Clone()
	req2 := reqFor(t, m, 8)
	if _, err := s.Partition(req2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(keep.Loc, p1.Loc) {
		// Documented aliasing: the second call may rewrite p1's scratch.
		// Nothing to assert about p1's content — only that Clone detached.
		t.Log("scratch rewritten by the next call, as documented")
	}
	got, err := Evaluate(req, keep.Loc)
	if err != nil || got != keep.EstLatency {
		t.Fatalf("cloned plan corrupted: lat=%v err=%v want %v", got, err, keep.EstLatency)
	}
}

// TestSolverSteadyStateAllocs is the tentpole's allocation gate: after
// warm-up, the planning hot path must not touch the heap.
func TestSolverSteadyStateAllocs(t *testing.T) {
	if raceguard.Enabled {
		t.Skip("race detector instrumentation allocates; gate runs in non-race builds")
	}
	m, err := dnn.ZooModel(dnn.ModelInception)
	if err != nil {
		t.Fatal(err)
	}
	req := reqFor(t, m, 1.5)
	s := NewSolver()
	if _, err := s.Partition(req); err != nil { // warm the scratch
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, err := s.Partition(req); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Solver.Partition allocates %.1f/op in steady state, want 0", n)
	}

	loc := allServer(m)
	if n := testing.AllocsPerRun(50, func() {
		if _, err := Evaluate(req, loc); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Evaluate allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		Decompose(req.Profile, loc)
	}); n != 0 {
		t.Errorf("Decompose allocates %.1f/op, want 0", n)
	}
}

// BenchmarkReferencePartition runs the scratch solver and the pre-PR-5
// reference on the same request in one binary, per zoo model — the
// comparison whose numbers are in EXPERIMENTS.md "Hot-path performance".
func BenchmarkReferencePartition(b *testing.B) {
	for _, name := range dnn.ZooNames() {
		m, err := dnn.ZooModel(name)
		if err != nil {
			b.Fatal(err)
		}
		prof := profile.NewModelProfile(m, profile.ClientODROID(), profile.ServerTitanXp())
		req := Request{Profile: prof, Slowdown: 2, Link: LabWiFi()}
		b.Run(string(name)+"/solver", func(b *testing.B) {
			b.ReportAllocs()
			s := NewSolver()
			if _, err := s.Partition(req); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Partition(req); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(string(name)+"/reference", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ReferencePartition(req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

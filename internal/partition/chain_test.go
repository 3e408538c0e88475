package partition

import (
	"math"
	"reflect"
	"testing"
	"time"

	"perdnn/internal/dnn"
	"perdnn/internal/profile"
	"perdnn/internal/raceguard"
)

// toyChainModel builds a small linear model whose chain plans can be
// brute-force enumerated.
func toyChainModel() *dnn.Model {
	b := dnn.NewBuilder("toychain", dnn.Shape{C: 3, H: 16, W: 16})
	b.Conv("c1", 16, 3, 1, 1)
	b.ReLU("r1")
	b.Conv("c2", 32, 3, 1, 1)
	b.ReLU("r2")
	b.Pool("p1", 2, 2, 0)
	b.Conv("c3", 64, 3, 1, 1)
	b.GlobalPool("gp")
	b.FC("fc", 10)
	b.Dropout("do")
	return b.Build()
}

func chainReqFor(t testing.TB, m *dnn.Model, servers []ServerSpec, maxHops int, obj Objective) ChainRequest {
	t.Helper()
	return ChainRequest{
		Profile:   profile.NewModelProfile(m, profile.ClientODROID(), profile.ServerTitanXp()),
		Link:      LabWiFi(),
		Servers:   servers,
		MaxHops:   maxHops,
		Objective: obj,
	}
}

// testServers returns J candidates with distinct slowdowns and explicit
// backhauls, IDs equal to their candidate index.
func testServers(j int) []ServerSpec {
	specs := make([]ServerSpec, j)
	for i := range specs {
		specs[i] = ServerSpec{
			ID:       i,
			Slowdown: 1 + float64(i)*1.5,
			Link:     DefaultBackhaul(),
		}
	}
	return specs
}

func TestPlanChainValidation(t *testing.T) {
	m := dnn.MobileNetV1()
	good := chainReqFor(t, m, testServers(2), 2, ObjectiveLatency)

	bad := good
	bad.Profile = nil
	if _, err := PlanChain(bad); err == nil {
		t.Error("nil profile accepted")
	}
	bad = good
	bad.Servers = nil
	if _, err := PlanChain(bad); err == nil {
		t.Error("no servers accepted")
	}
	bad = good
	bad.Servers = []ServerSpec{{Slowdown: 0.5}}
	if _, err := PlanChain(bad); err == nil {
		t.Error("slowdown < 1 accepted")
	}
	bad = good
	bad.MaxHops = -1
	if _, err := PlanChain(bad); err == nil {
		t.Error("negative MaxHops accepted")
	}
	bad = good
	bad.Link.UpBps = 0
	if _, err := PlanChain(bad); err == nil {
		t.Error("zero client bandwidth accepted")
	}
	bad = good
	bad.Servers = []ServerSpec{{Slowdown: 1, MemBytes: -1}}
	if _, err := PlanChain(bad); err == nil {
		t.Error("negative memory budget accepted")
	}
}

// TestPlanChainDelegatesAtK1 pins the acceptance criterion: under
// ObjectiveLatency with MaxHops == 1, PlanChain is bit-identical to the
// existing Fig 5 solver.
func TestPlanChainDelegatesAtK1(t *testing.T) {
	for _, name := range dnn.ZooNames() {
		m, _ := dnn.ZooModel(name)
		for _, slow := range []float64{1, 4, 50} {
			req := Request{
				Profile:  profile.NewModelProfile(m, profile.ClientODROID(), profile.ServerTitanXp()),
				Slowdown: slow,
				Link:     LabWiFi(),
			}
			want, err := Partition(req)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, slow, err)
			}
			creq := ChainRequest{
				Profile:   req.Profile,
				Link:      req.Link,
				Servers:   []ServerSpec{{ID: 7, Slowdown: slow}},
				MaxHops:   1,
				Objective: ObjectiveLatency,
			}
			cp, err := PlanChain(creq)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, slow, err)
			}
			if cp.EstLatency != want.EstLatency {
				t.Errorf("%s/%v: chain latency %v != solver %v", name, slow, cp.EstLatency, want.EstLatency)
			}
			got := cp.Split()
			if got.EstLatency != want.EstLatency || !reflect.DeepEqual(got.Loc, want.Loc) ||
				got.Slowdown != want.Slowdown || got.Link != want.Link {
				t.Errorf("%s/%v: Split() diverges from the solver plan", name, slow)
			}
			if cp.NumServerLayers() != want.NumServerLayers() {
				t.Errorf("%s/%v: hop layers %d != plan server layers %d",
					name, slow, cp.NumServerLayers(), want.NumServerLayers())
			}
		}
	}
}

// TestPlanChainSegments checks the structural invariants of DP plans:
// segments are contiguous, adjacent, exhaustive between the client prefix
// and suffix, placed on an order-preserving candidate subsequence, and
// within every memory budget.
func TestPlanChainSegments(t *testing.T) {
	for _, name := range dnn.ZooNames() {
		m, _ := dnn.ZooModel(name)
		servers := testServers(4)
		servers[1].MemBytes = 4 << 20
		servers[3].MemBytes = 1 << 20
		for _, obj := range []Objective{ObjectiveLatency, ObjectiveThroughput} {
			for _, k := range []int{1, 2, 3} {
				if obj == ObjectiveLatency && k == 1 {
					continue // delegated path, checked elsewhere
				}
				req := chainReqFor(t, m, servers, k, obj)
				cp, err := PlanChain(req)
				if err != nil {
					t.Fatalf("%s/%v/K=%d: %v", name, obj, k, err)
				}
				if len(cp.Hops) > k {
					t.Fatalf("%s/%v/K=%d: %d hops", name, obj, k, len(cp.Hops))
				}
				prevEnd, prevSrv := -1, -1
				for hi, hop := range cp.Hops {
					if len(hop.Layers) == 0 {
						t.Fatalf("%s/%v/K=%d: empty hop %d", name, obj, k, hi)
					}
					for li := 1; li < len(hop.Layers); li++ {
						if hop.Layers[li] != hop.Layers[li-1]+1 {
							t.Fatalf("%s/%v/K=%d: hop %d not contiguous", name, obj, k, hi)
						}
					}
					if prevEnd >= 0 && int(hop.Layers[0]) != prevEnd {
						t.Errorf("%s/%v/K=%d: hop %d starts at %d, previous ended at %d",
							name, obj, k, hi, hop.Layers[0], prevEnd)
					}
					if hop.Server.ID <= prevSrv {
						t.Errorf("%s/%v/K=%d: hop %d candidate order violated", name, obj, k, hi)
					}
					if hop.Server.MemBytes > 0 && hop.Bytes > hop.Server.MemBytes {
						t.Errorf("%s/%v/K=%d: hop %d exceeds memory budget (%d > %d)",
							name, obj, k, hi, hop.Bytes, hop.Server.MemBytes)
					}
					var wantBytes int64
					for _, id := range hop.Layers {
						wantBytes += m.Layer(id).WeightBytes
					}
					if hop.Bytes != wantBytes {
						t.Errorf("%s/%v/K=%d: hop %d bytes %d != %d", name, obj, k, hi, hop.Bytes, wantBytes)
					}
					prevEnd = int(hop.Layers[len(hop.Layers)-1]) + 1
					prevSrv = hop.Server.ID
				}
				// Latency and bottleneck must equal their recomputation
				// from the plan's own stages.
				var lat time.Duration
				lat = cp.ClientPre + cp.ClientPost
				if len(cp.Hops) > 0 {
					lat += cp.Link.DownTime(cp.DownBytes)
					for i := range cp.Hops {
						lat += cp.Hops[i].Transfer + cp.Hops[i].Exec
					}
				}
				if lat != cp.EstLatency {
					t.Errorf("%s/%v/K=%d: EstLatency %v != stage sum %v", name, obj, k, cp.EstLatency, lat)
				}
				if got := chainBottleneck(cp); got != cp.Bottleneck {
					t.Errorf("%s/%v/K=%d: Bottleneck %v != stage max %v", name, obj, k, cp.Bottleneck, got)
				}
			}
		}
	}
}

// chainCostOf prices a concrete chain (boundary positions plus candidate
// indices) in float seconds with exactly the DP's stage formulas, for both
// objectives.
func chainCostOf(req ChainRequest, cross []int64, prefC, prefB []float64, bounds []int, srv []int) (lat, thr float64) {
	n := req.Profile.Model.NumLayers()
	latAcc := prefC[bounds[0]]
	thrAcc := latAcc
	for i := 0; i < len(srv); i++ {
		spec := req.Servers[srv[i]]
		link := req.Link
		if i > 0 {
			link = spec.Link
		}
		stage := link.UpTime(cross[bounds[i]]).Seconds() + (prefB[bounds[i+1]]-prefB[bounds[i]])*spec.Slowdown
		latAcc += stage
		thrAcc = math.Max(thrAcc, stage)
	}
	end := bounds[len(bounds)-1]
	tail := req.Link.DownTime(cross[end]).Seconds() + (prefC[n] - prefC[end])
	if len(srv) == 0 {
		return prefC[n], prefC[n]
	}
	return latAcc + tail, math.Max(thrAcc, tail)
}

// TestPlanChainBruteForce checks the DP against exhaustive enumeration of
// every chain plan of the toy model, for both objectives and K = 1..3.
func TestPlanChainBruteForce(t *testing.T) {
	m := toyChainModel()
	prof := profile.NewModelProfile(m, profile.ClientODROID(), profile.ServerTitanXp())
	n := m.NumLayers()
	cross := m.Topo().Cross
	prefC := make([]float64, n+1)
	prefB := make([]float64, n+1)
	prefW := make([]int64, n+1)
	for i := 0; i < n; i++ {
		prefC[i+1] = prefC[i] + prof.ClientTime[i].Seconds()
		prefB[i+1] = prefB[i] + prof.ServerBase[i].Seconds()
		prefW[i+1] = prefW[i] + m.Layers[i].WeightBytes
	}

	servers := testServers(3)
	servers[0].Link = Link{UpBps: 2e8, DownBps: 2e8, RTT: time.Millisecond}
	servers[1].MemBytes = prefW[n] / 2 // force real constraint pressure
	servers[2].Slowdown = 1.2

	for _, obj := range []Objective{ObjectiveLatency, ObjectiveThroughput} {
		for k := 1; k <= 3; k++ {
			req := chainReqFor(t, m, servers, k, obj)

			// Exhaustive minimum over all (boundaries, candidate
			// subsequence) chains with at most k hops.
			best := prefC[n] // the all-client plan
			var rec func(bounds []int, srv []int)
			rec = func(bounds []int, srv []int) {
				if len(srv) > 0 {
					lat, thr := chainCostOf(req, cross, prefC, prefB, bounds, srv)
					cost := lat
					if obj == ObjectiveThroughput {
						cost = thr
					}
					if cost < best {
						best = cost
					}
				}
				if len(srv) == k {
					return
				}
				start := bounds[len(bounds)-1]
				lastSrv := -1
				if len(srv) > 0 {
					lastSrv = srv[len(srv)-1]
				}
				for end := start + 1; end <= n; end++ {
					for j := lastSrv + 1; j < len(servers); j++ {
						if servers[j].MemBytes > 0 && prefW[end]-prefW[start] > servers[j].MemBytes {
							continue
						}
						rec(append(bounds, end), append(srv, j))
					}
				}
				// Also allow the chain to start deeper into the model.
				if len(srv) == 0 {
					for s := start + 1; s <= n; s++ {
						rec([]int{s}, nil)
					}
				}
			}
			rec([]int{0}, nil)

			cp, err := planChainDP(req, new(chainScratch))
			if err != nil {
				t.Fatalf("%v/K=%d: %v", obj, k, err)
			}
			// Re-derive the DP plan's float cost from its segments and
			// compare to the exhaustive optimum.
			bounds := []int{0}
			var srv []int
			if len(cp.Hops) > 0 {
				bounds = []int{int(cp.Hops[0].Layers[0])}
				for hi := range cp.Hops {
					bounds = append(bounds, int(cp.Hops[hi].Layers[len(cp.Hops[hi].Layers)-1])+1)
					id := cp.Hops[hi].Server.ID
					srv = append(srv, id) // IDs equal candidate indices here
					_ = id
				}
			}
			lat, thr := chainCostOf(req, cross, prefC, prefB, bounds, srv)
			got := lat
			if obj == ObjectiveThroughput {
				got = thr
			}
			if len(srv) == 0 {
				got = prefC[n]
			}
			if diff := math.Abs(got - best); diff > 1e-9*(1+best) {
				t.Errorf("%v/K=%d: DP cost %.12f != brute force %.12f", obj, k, got, best)
			}
		}
	}
}

// TestPlanChainThroughputBound: the reported bottleneck equals the max
// stage time and never beats the true lower bound (every layer must run
// somewhere, and its stage takes at least its fastest placement).
func TestPlanChainThroughputBound(t *testing.T) {
	for _, name := range dnn.ZooNames() {
		m, _ := dnn.ZooModel(name)
		prof := profile.NewModelProfile(m, profile.ClientODROID(), profile.ServerTitanXp())
		servers := testServers(3)
		req := ChainRequest{
			Profile:   prof,
			Link:      LabWiFi(),
			Servers:   servers,
			MaxHops:   3,
			Objective: ObjectiveThroughput,
		}
		cp, err := PlanChain(req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := chainBottleneck(cp); got != cp.Bottleneck {
			t.Errorf("%s: Bottleneck %v != recomputed %v", name, cp.Bottleneck, got)
		}
		var bound time.Duration
		for i := 0; i < m.NumLayers(); i++ {
			layerBest := prof.ClientTime[i]
			for _, spec := range servers {
				if st := time.Duration(float64(prof.ServerBase[i]) * spec.Slowdown); st < layerBest {
					layerBest = st
				}
			}
			if layerBest > bound {
				bound = layerBest
			}
		}
		if cp.Bottleneck < bound {
			t.Errorf("%s: bottleneck %v beats the physical bound %v", name, cp.Bottleneck, bound)
		}
	}
}

// TestPlanChainThroughputBeatsSingleSplit: on loaded servers a K>=2 chain
// pipeline outruns the best single-split pipeline (the chain-vs-single
// result DESIGN.md §15.2 quotes, held in-test).
func TestPlanChainThroughputBeatsSingleSplit(t *testing.T) {
	m, err := dnn.ZooModel("inception")
	if err != nil {
		t.Fatal(err)
	}
	prof := profile.NewModelProfile(m, profile.ClientODROID(), profile.ServerTitanXp())
	servers := []ServerSpec{
		{ID: 0, Slowdown: 6},
		{ID: 1, Slowdown: 6},
		{ID: 2, Slowdown: 6},
	}
	req := ChainRequest{
		Profile:   prof,
		Link:      LabWiFi(),
		Servers:   servers,
		MaxHops:   3,
		Objective: ObjectiveThroughput,
	}
	cp, err := PlanChain(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Hops) < 2 {
		t.Fatalf("expected a multi-hop plan on loaded servers, got %d hops", len(cp.Hops))
	}
	split := cp.Split()
	sp := Decompose(prof, split.Loc)
	singleBottleneck := sp.ClientTime
	if st := req.Link.UpTime(sp.UpBytes); st > singleBottleneck {
		singleBottleneck = st
	}
	if st := time.Duration(float64(sp.ServerBase) * split.Slowdown); st > singleBottleneck {
		singleBottleneck = st
	}
	if st := req.Link.DownTime(sp.DownBytes); st > singleBottleneck {
		singleBottleneck = st
	}
	if cp.Bottleneck >= singleBottleneck {
		t.Errorf("chain bottleneck %v does not beat single-split bottleneck %v",
			cp.Bottleneck, singleBottleneck)
	}
}

// TestPlanChainMemoryStarved: when no candidate can hold anything, the plan
// degrades to all-client.
func TestPlanChainMemoryStarved(t *testing.T) {
	m := dnn.MobileNetV1()
	prof := profile.NewModelProfile(m, profile.ClientODROID(), profile.ServerTitanXp())
	servers := []ServerSpec{{ID: 0, Slowdown: 1, MemBytes: 1}}
	req := ChainRequest{
		Profile:   prof,
		Link:      LabWiFi(),
		Servers:   servers,
		MaxHops:   2,
		Objective: ObjectiveThroughput,
	}
	cp, err := PlanChain(req)
	if err != nil {
		t.Fatal(err)
	}
	// Zero-weight layers (ReLU, pool) fit in a 1-byte budget, so hops may
	// exist but can never hold weights.
	for _, h := range cp.Hops {
		if h.Bytes > 1 {
			t.Errorf("memory-starved plan still hosts %d weight bytes on a hop", h.Bytes)
		}
	}
	var clientLat time.Duration
	for i := 0; i < m.NumLayers(); i++ {
		clientLat += prof.ClientTime[i]
	}
	if cp.EstLatency > clientLat+cp.Bottleneck {
		t.Errorf("starved plan latency %v is worse than sanity ceiling", cp.EstLatency)
	}
}

// TestChainCrossBytesMatchesFrontierCosts: the crossing bytes the chain
// DP prices (dnn.Topology.Cross) are the Fig 5 solver's frontier costs.
func TestChainCrossBytesMatchesFrontierCosts(t *testing.T) {
	for _, name := range dnn.ZooNames() {
		m, _ := dnn.ZooModel(name)
		n := m.NumLayers()
		link := LabWiFi()
		cross := m.Topo().Cross
		s := NewSolver()
		s.frontierCosts(m, link)
		for p := 0; p < n; p++ {
			if got, want := link.UpTime(cross[p]), s.crossUp[p]; got != want {
				t.Fatalf("%s: crossUp[%d] %v != %v", name, p, got, want)
			}
			if got, want := link.DownTime(cross[p]), s.crossDown[p]; got != want {
				t.Fatalf("%s: crossDown[%d] %v != %v", name, p, got, want)
			}
		}
		if got, want := link.DownTime(cross[n]), s.crossDown[n]; got != want {
			t.Fatalf("%s: crossDown[%d] %v != %v", name, n, got, want)
		}
	}
}

// TestChainUploadScheduleSingleHop: a delegated single-hop plan's schedule
// is bit-identical to the classic efficiency-first schedule.
func TestChainUploadScheduleSingleHop(t *testing.T) {
	m, _ := dnn.ZooModel("inception")
	prof := profile.NewModelProfile(m, profile.ClientODROID(), profile.ServerTitanXp())
	req := Request{Profile: prof, Slowdown: 1, Link: LabWiFi()}
	plan, err := Partition(req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := UploadSchedule(req, plan)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := PlanChain(ChainRequest{
		Profile: prof, Link: req.Link,
		Servers: []ServerSpec{{Slowdown: 1}}, MaxHops: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := cp.UploadSchedule()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("single-hop chain schedule diverges from the classic schedule")
	}
}

// TestChainUploadScheduleMultiHop: every hop layer is scheduled exactly
// once, in chain order.
func TestChainUploadScheduleMultiHop(t *testing.T) {
	m, _ := dnn.ZooModel("resnet")
	prof := profile.NewModelProfile(m, profile.ClientODROID(), profile.ServerTitanXp())
	cp, err := PlanChain(ChainRequest{
		Profile: prof, Link: LabWiFi(),
		Servers: testServers(3), MaxHops: 3, Objective: ObjectiveThroughput,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Hops) < 2 {
		t.Skipf("plan chose %d hops; multi-hop schedule not exercised", len(cp.Hops))
	}
	units, err := cp.UploadSchedule()
	if err != nil {
		t.Fatal(err)
	}
	var want []dnn.LayerID
	for _, hop := range cp.Hops {
		want = append(want, hop.Layers...)
	}
	var got []dnn.LayerID
	for _, u := range units {
		got = append(got, u.Layers...)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("multi-hop schedule order diverges: got %d layers, want %d", len(got), len(want))
	}
}

// TestPlanChainAllocBudget is PlanChain's allocation gate, on the request
// the benchmark's partition.chain_ns.* probes time: 7 idle candidates, 3
// hops, throughput objective. The DP's scratch is pooled; what remains is
// the caller-owned result: the plan (1), the cloned single-split fallback
// (2), and per hop one layer list plus one growth of the hop list — 5 for
// mobilenet's one-hop optimum, 7 for the two-hop ones.
func TestPlanChainAllocBudget(t *testing.T) {
	if raceguard.Enabled {
		t.Skip("race detector instrumentation allocates; gate runs in non-race builds")
	}
	budgets := map[dnn.ModelName]float64{dnn.ModelMobileNet: 5, dnn.ModelInception: 7, dnn.ModelResNet: 7}
	servers := make([]ServerSpec, 7)
	for i := range servers {
		servers[i] = ServerSpec{ID: i, Slowdown: 1}
	}
	for _, name := range dnn.ZooNames() {
		m, err := dnn.ZooModel(name)
		if err != nil {
			t.Fatal(err)
		}
		req := chainReqFor(t, m, servers, 3, ObjectiveThroughput)
		if _, err := PlanChain(req); err != nil { // warm the pooled scratch
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(20, func() {
			if _, err := PlanChain(req); err != nil {
				t.Fatal(err)
			}
		}); n > budgets[name] {
			t.Errorf("%s: PlanChain allocates %.1f/op, budget %.0f", name, n, budgets[name])
		}
	}
}

// BenchmarkPlanChain measures the K-segment DP over the largest zoo model
// with a 3-server candidate chain under both objectives.
func BenchmarkPlanChain(b *testing.B) {
	m, err := dnn.ZooModel("resnet")
	if err != nil {
		b.Fatal(err)
	}
	prof := profile.NewModelProfile(m, profile.ClientODROID(), profile.ServerTitanXp())
	for _, obj := range []Objective{ObjectiveLatency, ObjectiveThroughput} {
		b.Run(obj.String(), func(b *testing.B) {
			req := ChainRequest{
				Profile: prof, Link: LabWiFi(),
				Servers: testServers(3), MaxHops: 3, Objective: obj,
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := PlanChain(req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

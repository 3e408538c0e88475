package partition

import (
	"math/rand"
	"testing"
	"time"

	"perdnn/internal/dnn"
	"perdnn/internal/profile"
)

func reqFor(t *testing.T, m *dnn.Model, slowdown float64) Request {
	t.Helper()
	return Request{
		Profile:  profile.NewModelProfile(m, profile.ClientODROID(), profile.ServerTitanXp()),
		Slowdown: slowdown,
		Link:     LabWiFi(),
	}
}

func TestLinkTransferTimes(t *testing.T) {
	l := Link{UpBps: 8e6, DownBps: 16e6, RTT: 10 * time.Millisecond}
	if got := l.UpTime(1e6); got != 5*time.Millisecond+time.Second {
		t.Errorf("UpTime = %v", got)
	}
	if got := l.DownTime(2e6); got != 5*time.Millisecond+time.Second {
		t.Errorf("DownTime = %v", got)
	}
	if l.UpTime(0) != 0 || l.DownTime(-5) != 0 {
		t.Error("zero-byte transfers must be free")
	}
}

func TestPartitionValidation(t *testing.T) {
	m := dnn.MobileNetV1()
	if _, err := Partition(Request{}); err == nil {
		t.Error("nil profile accepted")
	}
	req := reqFor(t, m, 0.5)
	if _, err := Partition(req); err == nil {
		t.Error("slowdown < 1 accepted")
	}
	req = reqFor(t, m, 1)
	req.Link.UpBps = 0
	if _, err := Partition(req); err == nil {
		t.Error("zero bandwidth accepted")
	}
}

func TestPartitionMatchesEvaluate(t *testing.T) {
	for _, name := range dnn.ZooNames() {
		m, _ := dnn.ZooModel(name)
		req := reqFor(t, m, 1.5)
		plan, err := Partition(req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lat, err := Evaluate(req, plan.Loc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if lat != plan.EstLatency {
			t.Errorf("%s: plan latency %v != evaluate %v", name, plan.EstLatency, lat)
		}
	}
}

// TestPartitionBeatsAllSingleSplits checks the shortest-path solution is at
// least as good as every single-split plan (client prefix, server suffix)
// and as the trivial plans.
func TestPartitionBeatsAllSingleSplits(t *testing.T) {
	for _, name := range dnn.ZooNames() {
		m, _ := dnn.ZooModel(name)
		req := reqFor(t, m, 2)
		plan, err := Partition(req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for s := 0; s <= m.NumLayers(); s++ {
			loc := make([]Location, m.NumLayers())
			for i := range loc {
				if i < s {
					loc[i] = AtClient
				} else {
					loc[i] = AtServer
				}
			}
			lat, err := Evaluate(req, loc)
			if err != nil {
				t.Fatal(err)
			}
			if plan.EstLatency > lat+time.Microsecond {
				t.Errorf("%s: plan %v worse than split at %d (%v)", name, plan.EstLatency, s, lat)
			}
		}
	}
}

func TestPartitionOffloadsBigModelsOnFastLink(t *testing.T) {
	for _, name := range []dnn.ModelName{dnn.ModelInception, dnn.ModelResNet} {
		m, _ := dnn.ZooModel(name)
		plan, err := Partition(reqFor(t, m, 1))
		if err != nil {
			t.Fatal(err)
		}
		// With an uncontended Titan Xp across lab Wi-Fi, the server side
		// must dominate: offloading is an order of magnitude faster.
		if frac := float64(plan.NumServerLayers()) / float64(m.NumLayers()); frac < 0.9 {
			t.Errorf("%s: only %.0f%% of layers on server", name, frac*100)
		}
		local := profile.ClientODROID().ModelTime(m)
		if plan.EstLatency > local/2 {
			t.Errorf("%s: plan latency %v not clearly below local %v", name, plan.EstLatency, local)
		}
	}
}

func TestPartitionFallsBackToClientUnderLoad(t *testing.T) {
	m := dnn.MobileNetV1()
	fast, err := Partition(reqFor(t, m, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Crush the server with contention: the plan must shift layers back to
	// the client (MobileNet is cheap locally).
	slow, err := Partition(reqFor(t, m, 500))
	if err != nil {
		t.Fatal(err)
	}
	if slow.NumServerLayers() >= fast.NumServerLayers() {
		t.Errorf("contention did not reduce offloading: %d -> %d server layers",
			fast.NumServerLayers(), slow.NumServerLayers())
	}
	if slow.NumServerLayers() != 0 {
		t.Errorf("at 500x slowdown MobileNet should run fully local, got %d server layers", slow.NumServerLayers())
	}
}

func TestPartitionSlowLinkKeepsLocal(t *testing.T) {
	m := dnn.MobileNetV1()
	req := reqFor(t, m, 1)
	req.Link = Link{UpBps: 1e4, DownBps: 1e4, RTT: 200 * time.Millisecond} // 10 kbps
	plan, err := Partition(req)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumServerLayers() != 0 {
		t.Errorf("10kbps link still offloads %d layers", plan.NumServerLayers())
	}
}

// TestPartitionRandomChainsProperty cross-checks the DP against brute force
// enumeration of all 2^n assignments on small random chain models.
func TestPartitionRandomChainsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		b := dnn.NewBuilder("rand", dnn.Shape{C: 1 + rng.Intn(8), H: 16, W: 16})
		layers := 3 + rng.Intn(8)
		for i := 0; i < layers; i++ {
			switch rng.Intn(3) {
			case 0:
				b.Conv("c", 1+rng.Intn(16), 3, 1, 1)
			case 1:
				b.ReLU("r")
			default:
				b.Pool("p", 2, 1, 0)
			}
		}
		m := b.Build()
		req := reqFor(t, m, 1+rng.Float64()*4)

		plan, err := Partition(req)
		if err != nil {
			t.Fatal(err)
		}
		// Brute force over all assignments.
		nl := m.NumLayers()
		best := time.Duration(1<<62 - 1)
		for mask := 0; mask < 1<<nl; mask++ {
			loc := make([]Location, nl)
			for i := range loc {
				if mask&(1<<i) != 0 {
					loc[i] = AtServer
				} else {
					loc[i] = AtClient
				}
			}
			lat, err := Evaluate(req, loc)
			if err != nil {
				t.Fatal(err)
			}
			if lat < best {
				best = lat
			}
		}
		if plan.EstLatency > best+time.Microsecond {
			t.Errorf("trial %d: DP %v worse than brute force %v", trial, plan.EstLatency, best)
		}
	}
}

func TestEvaluateCountsSharedTensorOnce(t *testing.T) {
	// root -> (left, right) -> add: if left and right are on the server and
	// root on the client, root's output crosses once, not twice.
	b := dnn.NewBuilder("m", dnn.Shape{C: 4, H: 8, W: 8})
	root := b.Conv("root", 4, 1, 1, 0)
	l := b.ReLU("l")
	b.SetCur(root)
	r := b.Pool("r", 3, 1, 1)
	b.AddOf("join", l, r)
	m := b.Build()
	req := reqFor(t, m, 1)

	locOne := []Location{AtClient, AtServer, AtServer, AtServer}
	locTwo := []Location{AtClient, AtServer, AtClient, AtServer}
	one, err := Evaluate(req, locOne)
	if err != nil {
		t.Fatal(err)
	}
	two, err := Evaluate(req, locTwo)
	if err != nil {
		t.Fatal(err)
	}
	// locTwo additionally moves r's output up and runs r locally, so it
	// must differ; more precisely locOne pays the root transfer exactly
	// once. Verify by computing expected latency by hand.
	var want time.Duration
	want += req.Profile.ClientTime[0]
	for _, i := range []int{1, 2, 3} {
		want += req.serverTime(i)
	}
	want += req.Link.UpTime(m.Layers[0].OutputBytes())
	want += req.Link.DownTime(m.Layers[3].OutputBytes())
	if one != want {
		t.Errorf("Evaluate = %v, want %v", one, want)
	}
	if two == one {
		t.Error("distinct assignments gave identical latency unexpectedly")
	}
}

func TestEvaluateErrors(t *testing.T) {
	m := dnn.MobileNetV1()
	req := reqFor(t, m, 1)
	if _, err := Evaluate(req, make([]Location, 3)); err == nil {
		t.Error("wrong location count accepted")
	}
	bad := AllClient(m)
	bad[5] = Location(9)
	if _, err := Evaluate(req, bad); err == nil {
		t.Error("invalid location accepted")
	}
}

func TestPlanAccessors(t *testing.T) {
	m := dnn.Inception21k()
	plan, err := Partition(reqFor(t, m, 1))
	if err != nil {
		t.Fatal(err)
	}
	ids := plan.ServerLayers()
	if len(ids) != plan.NumServerLayers() {
		t.Errorf("ServerLayers %d vs NumServerLayers %d", len(ids), plan.NumServerLayers())
	}
	var bytes int64
	for _, id := range ids {
		bytes += m.Layer(id).WeightBytes
	}
	if bytes != plan.ServerBytes() {
		t.Errorf("ServerBytes %d vs sum %d", plan.ServerBytes(), bytes)
	}
	if plan.String() == "" {
		t.Error("empty String")
	}
}

// TestDecomposeMatchesEvaluate cross-checks the Split pricing against
// Evaluate on random assignments, within the bound checkSplitLatency
// states.
func TestDecomposeMatchesEvaluate(t *testing.T) {
	m := dnn.ResNet50()
	req := reqFor(t, m, 2)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		loc := make([]Location, m.NumLayers())
		for i := range loc {
			if rng.Float64() < 0.5 {
				loc[i] = AtServer
			} else {
				loc[i] = AtClient
			}
		}
		checkSplitLatency(t, req, loc)
	}
}

func TestDecomposeIntensityBounds(t *testing.T) {
	m := dnn.Inception21k()
	prof := profile.NewModelProfile(m, profile.ClientODROID(), profile.ServerTitanXp())
	sp := Decompose(prof, allServer(m))
	if sp.Intensity <= 0 || sp.Intensity >= 1 {
		t.Errorf("intensity = %v, want in (0,1)", sp.Intensity)
	}
	if sp.ClientTime != 0 {
		t.Errorf("all-server split has client time %v", sp.ClientTime)
	}
	spc := Decompose(prof, AllClient(m))
	if spc.ServerBase != 0 || spc.Intensity != 0 || spc.UpBytes != 0 || spc.DownBytes != 0 {
		t.Errorf("all-client split has server components: %+v", spc)
	}
}

// crossingTensors counts the tensors Evaluate charges a transfer for under
// loc, per direction: the model input, every output with a consumer on the
// other side, and the final output.
func crossingTensors(m *dnn.Model, loc []Location) (up, down int) {
	topo := m.Topo()
	if loc[0] == AtServer {
		up++
	}
	for i := range m.Layers {
		var toServer, toClient bool
		for _, s := range topo.Succ[i] {
			if loc[s] != loc[i] {
				toServer = toServer || loc[s] == AtServer
				toClient = toClient || loc[s] == AtClient
			}
		}
		if toServer {
			up++
		}
		if toClient {
			down++
		}
	}
	if loc[m.OutputLayer()] == AtServer {
		down++
	}
	return up, down
}

// checkSplitLatency states how far Split.Latency sits from Evaluate at the
// request's slowdown: Evaluate charges half an RTT per crossing tensor
// where Split.Latency charges it once per direction, and the two round
// differently, by at most 1 ns per layer and per crossing tensor. It
// returns the number of extra crossing tensors.
func checkSplitLatency(t *testing.T, req Request, loc []Location) int {
	t.Helper()
	m := req.Profile.Model
	eval, err := Evaluate(req, loc)
	if err != nil {
		t.Fatal(err)
	}
	up, down := crossingTensors(m, loc)
	extra := max(up-1, 0) + max(down-1, 0)
	slack := time.Duration(m.NumLayers() + up + down)
	gap := eval - time.Duration(extra)*(req.Link.RTT/2) - Decompose(req.Profile, loc).Latency(req.Link, req.Slowdown)
	if gap < -slack || gap > slack {
		t.Fatalf("%s at slowdown %v: Evaluate %v, Split.Latency + %d half RTTs off by %v (bound %v)",
			m.Name, req.Slowdown, eval, extra, gap, slack)
	}
	return extra
}

// TestSplitLatencyBound holds checkSplitLatency's bound for solver plans
// on the planner's slowdown grid (1 to 100 in steps of 0.25) and for every
// prefix of each model's upload schedule, and checks that the plans reach
// assignments with extra crossing tensors.
func TestSplitLatencyBound(t *testing.T) {
	extra := 0
	s := NewSolver()
	for _, name := range dnn.ZooNames() {
		m, err := dnn.ZooModel(name)
		if err != nil {
			t.Fatal(err)
		}
		for q := 4; q <= 400; q++ {
			req := reqFor(t, m, float64(q)/4)
			plan, err := s.Partition(req)
			if err != nil {
				t.Fatal(err)
			}
			extra += checkSplitLatency(t, req, plan.Loc)
		}
		req := reqFor(t, m, 1)
		plan, err := Partition(req)
		if err != nil {
			t.Fatal(err)
		}
		units, err := UploadSchedule(req, plan)
		if err != nil {
			t.Fatal(err)
		}
		loc := AllClient(m)
		for _, u := range units {
			for _, id := range u.Layers {
				loc[id] = AtServer
			}
			extra += checkSplitLatency(t, req, loc)
		}
	}
	if extra == 0 {
		t.Fatal("no assignment crossed more than one tensor in a direction")
	}
}

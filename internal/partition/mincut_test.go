package partition

import (
	"math/rand"
	"testing"
	"time"

	"perdnn/internal/dnn"
	"perdnn/internal/profile"
)

func TestMinCutValidation(t *testing.T) {
	if _, err := PartitionMinCut(Request{}); err == nil {
		t.Error("nil profile accepted")
	}
	req := reqFor(t, dnn.MobileNetV1(), 0.5)
	if _, err := PartitionMinCut(req); err == nil {
		t.Error("slowdown < 1 accepted")
	}
}

// TestMinCutMatchesBruteForce cross-checks the min-cut reduction against
// exhaustive enumeration on small random DAG models, including branchy
// ones the frontier DP cannot always solve exactly.
func TestMinCutMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		b := dnn.NewBuilder("rand", dnn.Shape{C: 2 + rng.Intn(6), H: 12, W: 12})
		rootC := 2 + rng.Intn(6)
		root := b.Conv("c0", rootC, 3, 1, 1)
		// A random branchy middle: two branches off the root, then a join.
		leftC := 2 + rng.Intn(6)
		left := b.Conv("l", leftC, 1, 1, 0)
		if rng.Float64() < 0.5 {
			left = b.ReLU("lr")
		}
		b.SetCur(root)
		right, rightC := b.Pool("r", 3, 1, 1), rootC
		if rng.Float64() < 0.5 {
			right, rightC = b.Conv("rc", leftC, 1, 1, 0), leftC
		}
		if leftC == rightC {
			b.AddOf("join", left, right)
		} else {
			b.ConcatOf("join", left, right)
		}
		for i := 0; i < rng.Intn(3); i++ {
			b.ReLU("tail")
		}
		m := b.Build()
		req := reqFor(t, m, 1+rng.Float64()*5)

		plan, err := PartitionMinCut(req)
		if err != nil {
			t.Fatal(err)
		}
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
		// The min-cut objective omits the per-transfer RTT/2 constants the
		// evaluator charges, so allow that slack.
		slack := time.Duration(nl) * req.Link.RTT
		if plan.EstLatency > best+slack {
			t.Errorf("trial %d: min-cut %v worse than brute force %v", trial, plan.EstLatency, best)
		}
	}
}

// TestMinCutNeverWorseThanFrontier: the min-cut optimum bounds the Fig 5
// frontier solution from below on every zoo model and load level.
func TestMinCutNeverWorseThanFrontier(t *testing.T) {
	for _, name := range dnn.ZooNames() {
		m, _ := dnn.ZooModel(name)
		for _, slowdown := range []float64{1, 4, 40, 200} {
			req := reqFor(t, m, slowdown)
			frontier, minCut, err := MinCutGap(req)
			if err != nil {
				t.Fatal(err)
			}
			// Allow RTT bookkeeping slack in the comparison.
			slack := 10 * req.Link.RTT
			if minCut > frontier+slack {
				t.Errorf("%s@%vx: min-cut %v above frontier %v", name, slowdown, minCut, frontier)
			}
		}
	}
}

// TestMinCutAgreesOnChains: for chain models both algorithms are exact, so
// they must agree (within RTT accounting).
func TestMinCutAgreesOnChains(t *testing.T) {
	m := dnn.MobileNetV1()
	for _, slowdown := range []float64{1, 10, 100} {
		req := reqFor(t, m, slowdown)
		frontier, minCut, err := MinCutGap(req)
		if err != nil {
			t.Fatal(err)
		}
		diff := frontier - minCut
		if diff < 0 {
			diff = -diff
		}
		if diff > 10*req.Link.RTT {
			t.Errorf("chain disagreement at %vx: frontier %v vs min-cut %v", slowdown, frontier, minCut)
		}
	}
}

func TestMinCutFullOffloadWhenServerFast(t *testing.T) {
	m := dnn.Inception21k()
	plan, err := PartitionMinCut(reqFor(t, m, 1))
	if err != nil {
		t.Fatal(err)
	}
	if frac := float64(plan.NumServerLayers()) / float64(m.NumLayers()); frac < 0.9 {
		t.Errorf("min-cut offloads only %.0f%%", frac*100)
	}
}

func TestMinCutAllLocalUnderExtremeLoad(t *testing.T) {
	m := dnn.MobileNetV1()
	plan, err := PartitionMinCut(reqFor(t, m, 500))
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumServerLayers() != 0 {
		t.Errorf("min-cut still offloads %d layers at 500x", plan.NumServerLayers())
	}
}

func TestMinCutDeterministic(t *testing.T) {
	m := dnn.ResNet50()
	req := reqFor(t, m, 3)
	a, err := PartitionMinCut(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PartitionMinCut(req)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Loc {
		if a.Loc[i] != b.Loc[i] {
			t.Fatalf("location %d differs", i)
		}
	}
}

func profileOf(m *dnn.Model) *profile.ModelProfile {
	return profile.NewModelProfile(m, profile.ClientODROID(), profile.ServerTitanXp())
}

func BenchmarkMinCut(b *testing.B) {
	m := dnn.Inception21k()
	req := Request{Profile: profileOf(m), Slowdown: 2, Link: LabWiFi()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PartitionMinCut(req); err != nil {
			b.Fatal(err)
		}
	}
}

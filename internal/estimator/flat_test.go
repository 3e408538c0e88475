package estimator

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"perdnn/internal/gpusim"
	"perdnn/internal/profile"
	"perdnn/internal/raceguard"
)

// testServerEstimator trains one slowdown estimator for the memo tests; the
// seeded training makes it deterministic, so tests can compare repeated
// predictions exactly.
func testServerEstimator(t *testing.T) *ServerEstimator {
	t.Helper()
	est, err := TrainServerEstimator(profile.ServerTitanXp(), gpusim.DefaultParams(), 17)
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// walkPerTree predicts by walking the forest tree by tree with tree-local
// semantics, every child index checked against its tree's span of the
// arena.
func walkPerTree(f *Forest, row []float64) float64 {
	var sum float64
	for t := 0; t < f.NumTrees(); t++ {
		start, end := f.bounds[t], f.bounds[t+1]
		n := start // root is the tree's first node
		for f.right[n] != 0 {
			// Children of tree t must stay inside tree t, after their parent.
			if f.right[n] <= n+1 || f.right[n] >= end {
				panic("arena child index escapes its tree")
			}
			if row[f.feature[n]] <= f.split[n] {
				n++
			} else {
				n = f.right[n]
			}
		}
		sum += f.split[n]
	}
	return sum / float64(f.NumTrees())
}

// walkTrees predicts as the forest did before its arena was compacted: one
// walk per tree over the nodes training handed the merger, summed in tree
// order.
func walkTrees(trees [][]treeNode, row []float64) float64 {
	var sum float64
	for _, nodes := range trees {
		sum += (&regTree{nodes: nodes}).predict(row)
	}
	return sum / float64(len(trees))
}

func TestFlatForestMatchesPerTreeWalk(t *testing.T) {
	x, y := makeNonlinear(3, 600)
	f, err := TrainForest(x, y, ForestConfig{NumTrees: 20, MaxDepth: 10, MinLeaf: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		row := []float64{rng.Float64()*4 - 2, rng.Float64()*4 - 2, rng.Float64()}
		if got, want := f.Predict(row), walkPerTree(f, row); got != want {
			t.Fatalf("row %d: arena Predict %v != per-tree walk %v", i, got, want)
		}
	}
}

// TestForestMatchesMergedTrees is the compact arena's oracle: on the
// pinned forests, Predict equals a walk over the per-tree nodes training
// handed the merger, on every training row and on rows that sit exactly
// on a split threshold, where <= has to go left.
func TestForestMatchesMergedTrees(t *testing.T) {
	if raceguard.Enabled {
		t.Skip("a sequential comparison: the race detector has nothing to find, and slows it tenfold")
	}
	for _, rf := range testRecordedForests(t) {
		// Every 25th internal node's threshold, set into a training row.
		rows, k := slices.Clone(rf.x), 0
		for _, nodes := range rf.trees {
			for _, n := range nodes {
				if n.left < 0 {
					continue
				}
				if k++; k%25 == 0 {
					row := slices.Clone(rf.x[k%len(rf.x)])
					row[n.feature] = n.threshold
					rows = append(rows, row)
				}
			}
		}
		if len(rows) < 1000 {
			t.Fatalf("%s: %d rows, want >= 1000", rf.name, len(rows))
		}
		for i, row := range rows {
			if got, want := rf.f.Predict(row), walkTrees(rf.trees, row); got != want {
				t.Fatalf("%s row %d: Predict %v != per-tree walk %v", rf.name, i, got, want)
			}
			if got, want := rf.f.Predict(row), walkPerTree(rf.f, row); got != want {
				t.Fatalf("%s row %d: Predict %v != arena walk %v", rf.name, i, got, want)
			}
		}
		t.Logf("%s: %d trees, %d nodes, %d rows", rf.name, len(rf.trees), len(rf.f.split), len(rows))
	}
}

// TestForestStoredBytes holds the arena to its layout: 13 bytes a node in
// three arrays whose capacity is within 1 % of the node count.
func TestForestStoredBytes(t *testing.T) {
	for _, rf := range testRecordedForests(t) {
		f, n := rf.f, 0
		for _, nodes := range rf.trees {
			n += len(nodes)
		}
		if len(f.split) != n || len(f.right) != n || len(f.feature) != n {
			t.Fatalf("%s: arena lengths %d/%d/%d, want the %d nodes trained", rf.name, len(f.split), len(f.right), len(f.feature), n)
		}
		for name, c := range map[string]int{"split": cap(f.split), "right": cap(f.right), "feature": cap(f.feature)} {
			if c-n > n/100 {
				t.Errorf("%s: %s has capacity %d for %d nodes, more than 1 %% spare", rf.name, name, c, n)
			}
		}
		bytes := cap(f.split)*8 + cap(f.right)*4 + cap(f.feature)
		if perNode := float64(bytes) / float64(n); perNode > 14 {
			t.Errorf("%s: %d bytes for %d nodes = %.2f a node, want <= 14", rf.name, bytes, n, perNode)
		} else {
			t.Logf("%s: %d bytes for %d nodes = %.2f a node", rf.name, bytes, n, perNode)
		}
	}
}

func TestFlatForestArenaInvariants(t *testing.T) {
	x, y := makeNonlinear(5, 400)
	f, err := TrainForest(x, y, ForestConfig{NumTrees: 8, MaxDepth: 8, MinLeaf: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	n := len(f.split)
	if len(f.feature) != n || len(f.right) != n {
		t.Fatalf("arena arrays disagree on length: %d/%d/%d", len(f.feature), len(f.split), len(f.right))
	}
	if f.NumTrees() != 8 {
		t.Fatalf("NumTrees = %d, want 8", f.NumTrees())
	}
	if f.bounds[0] != 0 || int(f.bounds[len(f.bounds)-1]) != n {
		t.Fatalf("bounds not anchored: first=%d last=%d n=%d", f.bounds[0], f.bounds[len(f.bounds)-1], n)
	}
	for t2 := 0; t2 < f.NumTrees(); t2++ {
		if f.bounds[t2] >= f.bounds[t2+1] {
			t.Fatalf("tree %d is empty in the arena", t2)
		}
	}
}

// TestTrainForestFeatureLimit: a node stores its feature in one byte.
func TestTrainForestFeatureLimit(t *testing.T) {
	for _, p := range []int{255, 256} {
		x := make([][]float64, 8)
		y := make([]float64, len(x))
		for i := range x {
			x[i] = make([]float64, p)
			for j := range x[i] {
				x[i][j] = float64(i * j)
			}
			y[i] = float64(i)
		}
		_, err := TrainForest(x, y, ForestConfig{NumTrees: 2, MinLeaf: 1, Seed: 1})
		if p <= 255 && err != nil {
			t.Errorf("%d features: %v", p, err)
		}
		if p > 255 && (err == nil || !strings.Contains(err.Error(), "features")) {
			t.Errorf("%d features: error %v, want one naming the feature count", p, err)
		}
	}
}

func TestForestPredictAllocsFree(t *testing.T) {
	if raceguard.Enabled {
		t.Skip("race detector instrumentation allocates; gate runs in non-race builds")
	}
	x, y := makeNonlinear(1, 500)
	f, err := TrainForest(x, y, ForestConfig{NumTrees: 30, MaxDepth: 12, MinLeaf: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	row := []float64{0.3, -1.2, 0.5}
	if n := testing.AllocsPerRun(100, func() { f.Predict(row) }); n != 0 {
		t.Errorf("Forest.Predict allocates %.1f/op, want 0", n)
	}
}

func TestFeatureIntoVariantsMatchAllocating(t *testing.T) {
	l := gpusim.ConvLayerCorpus(1, 1)[0]
	st := gpusim.Stats{ActiveClients: 3, KernelUtil: 0.71, MemUtil: 0.33, MemUsedMB: 5120, TempC: 67}

	var lbuf [numLayerFeatures]float64
	if got, want := LayerFeaturesInto(lbuf[:], &l), LayerFeatures(&l); !equalSlices(got, want) {
		t.Errorf("LayerFeaturesInto = %v, want %v", got, want)
	}
	var wbuf [numLoadFeatures]float64
	if got, want := LoadFeaturesInto(wbuf[:], st), LoadFeatures(st); !equalSlices(got, want) {
		t.Errorf("LoadFeaturesInto = %v, want %v", got, want)
	}
	var cbuf [numLayerFeatures + numLoadFeatures]float64
	if got, want := CombinedFeaturesInto(cbuf[:], &l, st), CombinedFeatures(&l, st); !equalSlices(got, want) {
		t.Errorf("CombinedFeaturesInto = %v, want %v", got, want)
	}
}

func equalSlices(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestEstimateSlowdownMemoTransparent(t *testing.T) {
	est := testServerEstimator(t)
	stats := []gpusim.Stats{
		{},
		{ActiveClients: 2, KernelUtil: 0.4, MemUtil: 0.2, MemUsedMB: 3000, TempC: 55},
		{ActiveClients: 6, KernelUtil: 0.93, MemUtil: 0.6, MemUsedMB: 9000, TempC: 80},
	}
	for _, st := range stats {
		first := est.EstimateSlowdown(st) // cold: computes and caches
		for i := 0; i < 3; i++ {
			if got := est.EstimateSlowdown(st); got != first {
				t.Fatalf("memoized slowdown drifted: %v != %v at %+v", got, first, st)
			}
		}
		// The cached value must equal the uncached forest prediction at the
		// bucket's canonical state — the memo is a pure lookup table.
		_, center := quantizeStats(st)
		if want := est.slowdownAt(center); first != want {
			t.Fatalf("memo value %v != bucket-center prediction %v at %+v", first, want, st)
		}
		if first < 1 {
			t.Fatalf("slowdown %v < 1", first)
		}
	}
}

func TestEstimateSlowdownNilMemoSafe(t *testing.T) {
	est := testServerEstimator(t)
	bare := &ServerEstimator{dev: est.dev, forest: est.forest} // no memo
	st := gpusim.Stats{ActiveClients: 4, KernelUtil: 0.8, MemUtil: 0.5, MemUsedMB: 6000, TempC: 70}
	if got, want := bare.EstimateSlowdown(st), bare.slowdownAt(st); got != want {
		t.Fatalf("memo-less estimator: %v != direct prediction %v", got, want)
	}
}

func TestQuantizeStatsIsIdempotent(t *testing.T) {
	st := gpusim.Stats{ActiveClients: 5, KernelUtil: 0.612, MemUtil: 0.347, MemUsedMB: 7213, TempC: 71.3}
	k1, center := quantizeStats(st)
	k2, center2 := quantizeStats(center)
	if k1 != k2 || center != center2 {
		t.Fatalf("bucket center re-quantizes differently: %+v -> %+v", k1, k2)
	}
}

package estimator

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"perdnn/internal/gpusim"
	"perdnn/internal/profile"
	"perdnn/internal/raceguard"
)

// makeTied generates a training set built to break order-sensitive code:
// column 0 is continuous, column 1 takes five integer values, column 2 is
// constant, column 3 takes seventeen, and every fourth row repeats an
// earlier one exactly — on top of the duplicates a bootstrap draws.
func makeTied(seed int64, n int) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, 0, n)
	y := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i%4 == 3 {
			j := rng.Intn(i)
			x, y = append(x, x[j]), append(y, y[j])
			continue
		}
		row := []float64{rng.Float64(), float64(rng.Intn(5)), 7, float64(rng.Intn(17))}
		x = append(x, row)
		y = append(y, math.Sin(6*row[0])+row[1]*row[1]+0.1*row[3]+rng.NormFloat64()*0.2)
	}
	return x, y
}

// TestGrowMatchesReference: the split search must build the tree the old
// one (tree_ref_test.go) built, node for node and bit for bit, with the
// same importances — on ties, duplicated rows and a constant column, at
// every leaf size, with and without feature subsampling.
func TestGrowMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		x, y := makeTied(seed, 400+150*int(seed))
		for _, minLeaf := range []int{1, 3, 10} {
			for _, maxFeatures := range []int{1, 3, 4} {
				tc := treeConfig{maxDepth: 12, minLeaf: minLeaf, maxFeatures: maxFeatures}
				name := fmt.Sprintf("seed%d/minLeaf%d/maxFeatures%d", seed, minLeaf, maxFeatures)
				t.Run(name, func(t *testing.T) {
					boot := make([]int, len(x))
					bootRng := rand.New(rand.NewSource(seed * 31))
					for i := range boot {
						boot[i] = bootRng.Intn(len(x))
					}
					wantImp := make([]float64, len(x[0]))
					want := refBuildTree(x, y, append([]int(nil), boot...), tc, rand.New(rand.NewSource(seed)), wantImp)
					gotImp := make([]float64, len(x[0]))
					got := regTree{newScratch(presort(x), len(x), len(boot)).build(x, y, boot, tc, rand.New(rand.NewSource(seed)), gotImp)}

					if len(got.nodes) != len(want.nodes) {
						t.Fatalf("%d nodes, reference has %d", len(got.nodes), len(want.nodes))
					}
					// One candidate per node may be the constant column at the
					// root; with more, every case must really split.
					if maxFeatures > 1 && len(want.nodes) < 3 {
						t.Fatalf("reference tree has %d nodes: the case splits nothing", len(want.nodes))
					}
					for i := range want.nodes {
						if got.nodes[i] != want.nodes[i] {
							t.Fatalf("node %d = %+v, reference %+v", i, got.nodes[i], want.nodes[i])
						}
					}
					for j := range wantImp {
						if gotImp[j] != wantImp[j] {
							t.Errorf("importance[%d] = %v, reference %v", j, gotImp[j], wantImp[j])
						}
					}
				})
			}
		}
	}
}

// makeMixed generates a training set whose trees take both split paths:
// columns 0 and 1 are continuous and pairwise distinct (presorted), column
// 2 takes six integer values, column 3 is constant, and column 4 is
// continuous except for one value two different rows share (all three
// sorted per node). No row repeats; the bootstrap draws the duplicates.
func makeMixed(seed int64, n int) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = []float64{rng.Float64(), rng.NormFloat64(), float64(rng.Intn(6)), 7, rng.Float64()}
		y[i] = math.Sin(6*x[i][0]) + x[i][1] + 0.3*x[i][2] + x[i][4] + rng.NormFloat64()*0.2
	}
	x[n-1][4] = x[n/2][4]
	return x, y
}

// TestGrowMatchesReferencePresorted is TestGrowMatchesReference on data
// with tie-free columns, so every tree scans presorted segments and
// pdqsorts gathered ones side by side (DESIGN.md §17.3).
func TestGrowMatchesReferencePresorted(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		x, y := makeMixed(seed, 500+200*int(seed))
		orders := presort(x)
		for f, want := range []bool{true, true, false, false, false} {
			if got := orders[f] != nil; got != want {
				t.Fatalf("seed %d: column %d presorted = %v, want %v", seed, f, got, want)
			}
		}
		for _, minLeaf := range []int{1, 3, 10} {
			for maxFeatures := 1; maxFeatures <= len(x[0]); maxFeatures++ {
				tc := treeConfig{maxDepth: 12, minLeaf: minLeaf, maxFeatures: maxFeatures}
				t.Run(fmt.Sprintf("seed%d/minLeaf%d/maxFeatures%d", seed, minLeaf, maxFeatures), func(t *testing.T) {
					boot := make([]int, len(x))
					bootRng := rand.New(rand.NewSource(seed * 31))
					for i := range boot {
						boot[i] = bootRng.Intn(len(x))
					}
					wantImp := make([]float64, len(x[0]))
					want := refBuildTree(x, y, append([]int(nil), boot...), tc, rand.New(rand.NewSource(seed)), wantImp)
					gotImp := make([]float64, len(x[0]))
					got := regTree{newScratch(presort(x), len(x), len(boot)).build(x, y, boot, tc, rand.New(rand.NewSource(seed)), gotImp)}

					if len(got.nodes) != len(want.nodes) {
						t.Fatalf("%d nodes, reference has %d", len(got.nodes), len(want.nodes))
					}
					// As in TestGrowMatchesReference: one candidate may be the
					// constant column at the root.
					if maxFeatures > 1 && len(want.nodes) < 3 {
						t.Fatalf("reference tree has %d nodes: the case splits nothing", len(want.nodes))
					}
					for i := range want.nodes {
						if got.nodes[i] != want.nodes[i] {
							t.Fatalf("node %d = %+v, reference %+v", i, got.nodes[i], want.nodes[i])
						}
					}
					for j := range wantImp {
						if gotImp[j] != wantImp[j] {
							t.Errorf("importance[%d] = %v, reference %v", j, gotImp[j], wantImp[j])
						}
					}
				})
			}
		}
	}
}

// TestPresortClassifiesColumns pins which columns take the presorted path.
// The server estimator's four continuous GPU counters must, and its client
// count must not; a profiling change that puts ties into a counter fails
// here instead of quietly doubling start-up.
func TestPresortClassifiesColumns(t *testing.T) {
	names := LoadFeatureNames()
	for seed := int64(1); seed <= 2; seed++ {
		x, _ := serverTrainingSet(profile.ServerTitanXp(), gpusim.DefaultParams(), seed)
		for f, o := range presort(x) {
			if got, want := o != nil, names[f] != "clients"; got != want {
				t.Errorf("seed %d: %s presorted = %v, want %v", seed, names[f], got, want)
			}
		}
	}

	// Column 0 is tie-free; 1 is constant, 2 holds a NaN, and 3 is
	// distinct but for one value shared by rows 0 and 3.
	x := [][]float64{{1, 5, 1, 1}, {4, 5, math.NaN(), 2}, {2, 5, 3, 3}, {3, 5, 4, 1}}
	orders := presort(x)
	for f, want := range []bool{true, false, false, false} {
		if got := orders[f] != nil; got != want {
			t.Errorf("column %d presorted = %v, want %v", f, got, want)
		}
	}
	for i, e := range orders[0] {
		if e.idx != []int{0, 2, 3, 1}[i] {
			t.Fatalf("column 0 order = %v", orders[0])
		}
	}
}

// TestTrainForestAllocs gates what training may allocate: a bounded number
// of objects per tree, whatever the node count. A worker grows every tree
// in its own reused buffers (nodes, candidate features, rng, bootstrap and
// split scratch); a tree allocates only its results, each at its exact
// size, and the forest's fixed set-up is spread over the trees. A fresh
// permutation per node, as before, costs thousands per forest.
func TestTrainForestAllocs(t *testing.T) {
	if raceguard.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	x, y := makeNonlinear(12, 2000)
	cfg := ForestConfig{NumTrees: 8, Seed: 3}
	f, err := trainForest(x, y, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := trainForest(x, y, cfg, nil); err != nil {
			t.Fatal(err)
		}
	})
	perTree := allocs / float64(cfg.NumTrees)
	if perTree > 15 {
		t.Errorf("trainForest: %.0f allocations for %d trees (%d nodes) = %.1f per tree, want <= 15", allocs, cfg.NumTrees, len(f.split), perTree)
	} else {
		t.Logf("%.0f allocations for %d trees (%d nodes) = %.1f per tree", allocs, cfg.NumTrees, len(f.split), perTree)
	}
}

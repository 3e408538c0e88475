package estimator

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"perdnn/internal/gpusim"
	"perdnn/internal/profile"
)

// recordedForest is a forest trained with a copy of every tree's nodes as
// training handed them to the merger, in tree order, and its training rows.
type recordedForest struct {
	name  string
	f     *Forest
	trees [][]treeNode
	x     [][]float64
}

// recordedForests trains, once per test binary, the forests the pinned
// hashes name: the seed-1 and seed-2 server estimators and Fig 4's model
// (eleven features, several of them discrete).
var recordedForests = sync.OnceValues(func() ([]recordedForest, error) {
	var out []recordedForest
	for _, seed := range []int64{1, 2} {
		var trees [][]treeNode
		est, err := trainServerEstimator(profile.ServerTitanXp(), gpusim.DefaultParams(), seed, func(nodes []treeNode) {
			trees = append(trees, slices.Clone(nodes))
		})
		if err != nil {
			return nil, err
		}
		x, _ := serverTrainingSet(profile.ServerTitanXp(), gpusim.DefaultParams(), seed)
		out = append(out, recordedForest{fmt.Sprintf("server estimator seed %d", seed), est.forest, trees, x})
	}

	layers := gpusim.ConvLayerCorpus(3, 10)
	samples := gpusim.ProfilingRun(profile.ServerTitanXp(), gpusim.DefaultParams(), layers, gpusim.ProfilingConfig{
		MaxClients: 8, SamplesPerLevel: 20, DwellPerSample: time.Second, Seed: 3,
	})
	var trees [][]treeNode
	rf := &RFWithLoad{}
	if err := rf.train(samples, func(nodes []treeNode) { trees = append(trees, slices.Clone(nodes)) }); err != nil {
		return nil, err
	}
	x := make([][]float64, len(samples))
	for i := range samples {
		x[i] = CombinedFeatures(samples[i].Layer, samples[i].Stats)
	}
	return append(out, recordedForest{"RFWithLoad", rf.forest, trees, x}), nil
})

func testRecordedForests(t *testing.T) []recordedForest {
	t.Helper()
	rfs, err := recordedForests()
	if err != nil {
		t.Fatal(err)
	}
	return rfs
}

// forestHash is the SHA-256 of everything training produces, little-endian:
// the node arena in its one-node-per-index form — per node its feature
// (int32), threshold, left and right child as arena indices (-1 and 0 on
// a leaf) and value (an internal node's training mean) — built from the
// trees training handed the merger, then the forest's tree bounds, raw
// importances and out-of-bag error.
func forestHash(f *Forest, trees [][]treeNode) string {
	var (
		feature, left, right []int32
		threshold, value     []float64
		start                int32
	)
	for _, nodes := range trees {
		for _, n := range nodes {
			l, r := n.left, n.right
			if l >= 0 {
				l += start
				r += start
			}
			feature = append(feature, int32(n.feature))
			threshold = append(threshold, n.threshold)
			left = append(left, l)
			right = append(right, r)
			value = append(value, n.value)
		}
		start += int32(len(nodes))
	}
	h := sha256.New()
	for _, field := range []any{feature, threshold, left, right, value, f.bounds, f.importance, f.oobMAE} {
		if err := binary.Write(h, binary.LittleEndian, field); err != nil {
			panic(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestForestGolden pins the trained forests bit for bit. The hashes were
// captured on the commit before the split search was rewritten (PR 24) and
// hold on both sides of it: the unstable sort's tie order decides the order
// of every float sum, so they move only if the sort's permutation does —
// and then every plan behind bench/golden/city-seed1.json is free to move
// with them. That permutation is sortKeyed's (sortkeyed.go): a copy of the
// standard library's pdqsort kept in the repo, because the tie order of an
// unstable sort is unspecified and could change with a toolchain.
func TestForestGolden(t *testing.T) {
	want := map[string]string{
		"server estimator seed 1": "a4e601072aa9c78673ff723e969b8ca886d961cd01a11ec03fb7b3c9bcc2b25d",
		"server estimator seed 2": "adab882437cfc49ef280a8e4c762e807d39704bec9e29cc894641042af4b2a3b",
		"RFWithLoad":              "0ad1fcd761d9253ce25e4019fc6d21412f767f99bb79a68f952ea1fa91136044",
	}
	for _, rf := range testRecordedForests(t) {
		if got := forestHash(rf.f, rf.trees); got != want[rf.name] {
			t.Errorf("%s: forest hash %s, want %s", rf.name, got, want[rf.name])
		}
	}
}

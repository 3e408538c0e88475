package estimator

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
	"time"

	"perdnn/internal/gpusim"
	"perdnn/internal/profile"
)

// forestHash is the SHA-256 of everything training produces: the node
// arena, the tree bounds, the raw importances and the out-of-bag error,
// little-endian in that order.
func forestHash(f *Forest) string {
	h := sha256.New()
	for _, field := range []any{f.feature, f.threshold, f.left, f.right, f.value, f.bounds, f.importance, f.oobMAE} {
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
	for seed, want := range map[int64]string{
		1: "a4e601072aa9c78673ff723e969b8ca886d961cd01a11ec03fb7b3c9bcc2b25d",
		2: "adab882437cfc49ef280a8e4c762e807d39704bec9e29cc894641042af4b2a3b",
	} {
		est, err := TrainServerEstimator(profile.ServerTitanXp(), gpusim.DefaultParams(), seed)
		if err != nil {
			t.Fatal(err)
		}
		if got := forestHash(est.forest); got != want {
			t.Errorf("server estimator seed %d: forest hash %s, want %s", seed, got, want)
		}
	}

	// The Fig 4 model: eleven features, several of them discrete.
	layers := gpusim.ConvLayerCorpus(3, 10)
	samples := gpusim.ProfilingRun(profile.ServerTitanXp(), gpusim.DefaultParams(), layers, gpusim.ProfilingConfig{
		MaxClients: 8, SamplesPerLevel: 20, DwellPerSample: time.Second, Seed: 3,
	})
	rf := &RFWithLoad{}
	if err := rf.Train(samples); err != nil {
		t.Fatal(err)
	}
	const wantRF = "0ad1fcd761d9253ce25e4019fc6d21412f767f99bb79a68f952ea1fa91136044"
	if got := forestHash(rf.forest); got != wantRF {
		t.Errorf("RFWithLoad: forest hash %s, want %s", got, wantRF)
	}
}

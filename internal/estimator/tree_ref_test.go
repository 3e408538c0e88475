package estimator

import (
	"math/rand"
	"sort"
)

// The split search as it stood before PR 24 — sort.Slice over row indices,
// the best halves copied out on every improved gain — kept verbatim as the
// reference the production tree is compared against node for node
// (tree_test.go). The two must agree exactly, tie order included.

// regTree is one CART regression tree.
type regTree struct {
	nodes []treeNode
}

// predict walks the tree for one feature vector.
func (t *regTree) predict(f []float64) float64 {
	n := int32(0)
	for {
		nd := &t.nodes[n]
		if nd.left < 0 {
			return nd.value
		}
		if f[nd.feature] <= nd.threshold {
			n = nd.left
		} else {
			n = nd.right
		}
	}
}

// refBuildTree grows a reference tree on the rows of x indexed by idx.
func refBuildTree(x [][]float64, y []float64, idx []int, cfg treeConfig, rng *rand.Rand, importance []float64) *regTree {
	t := &regTree{nodes: make([]treeNode, 0, 2*len(idx)/cfg.minLeaf+1)}
	t.refGrow(x, y, idx, 0, cfg, rng, importance)
	return t
}

// refGrow appends the subtree for idx and returns its node index.
func (t *regTree) refGrow(x [][]float64, y []float64, idx []int, depth int, cfg treeConfig, rng *rand.Rand, importance []float64) int32 {
	node := int32(len(t.nodes))
	t.nodes = append(t.nodes, treeNode{left: -1, value: mean(y, idx)})

	if depth >= cfg.maxDepth || len(idx) < 2*cfg.minLeaf {
		return node
	}
	parentSSE := sse(y, idx)
	if parentSSE <= 1e-18 {
		return node
	}

	p := len(x[0])
	bestFeature, bestThreshold, bestGain := -1, 0.0, 0.0
	var bestLeft, bestRight []int

	// Candidate features: a random subset of size maxFeatures.
	feats := rng.Perm(p)
	if cfg.maxFeatures < len(feats) {
		feats = feats[:cfg.maxFeatures]
	}

	sorted := make([]int, len(idx))
	for _, f := range feats {
		copy(sorted, idx)
		sort.Slice(sorted, func(a, b int) bool { return x[sorted[a]][f] < x[sorted[b]][f] })

		// Prefix sums over the sorted order for O(n) split scanning.
		var sumL, sumSqL float64
		var sumT, sumSqT float64
		for _, i := range sorted {
			sumT += y[i]
			sumSqT += y[i] * y[i]
		}
		for k := 0; k < len(sorted)-1; k++ {
			yi := y[sorted[k]]
			sumL += yi
			sumSqL += yi * yi
			// Cannot split between equal feature values.
			if x[sorted[k]][f] == x[sorted[k+1]][f] {
				continue
			}
			nL, nR := float64(k+1), float64(len(sorted)-k-1)
			if int(nL) < cfg.minLeaf || int(nR) < cfg.minLeaf {
				continue
			}
			sumR := sumT - sumL
			sumSqR := sumSqT - sumSqL
			sseL := sumSqL - sumL*sumL/nL
			sseR := sumSqR - sumR*sumR/nR
			gain := parentSSE - sseL - sseR
			if gain > bestGain {
				bestGain = gain
				bestFeature = f
				bestThreshold = (x[sorted[k]][f] + x[sorted[k+1]][f]) / 2
				bestLeft = append(bestLeft[:0], sorted[:k+1]...)
				bestRight = append(bestRight[:0], sorted[k+1:]...)
			}
		}
	}

	if bestFeature < 0 {
		return node
	}
	importance[bestFeature] += bestGain

	// Children reference copies because bestLeft/bestRight share backing.
	left := make([]int, len(bestLeft))
	copy(left, bestLeft)
	right := make([]int, len(bestRight))
	copy(right, bestRight)

	t.nodes[node].feature = bestFeature
	t.nodes[node].threshold = bestThreshold
	l := t.refGrow(x, y, left, depth+1, cfg, rng, importance)
	r := t.refGrow(x, y, right, depth+1, cfg, rng, importance)
	t.nodes[node].left = l
	t.nodes[node].right = r
	return node
}

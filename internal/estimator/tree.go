package estimator

import "math/rand"

// treeNode is one node of a CART regression tree, stored in a flat slice.
// Leaves have left == -1.
type treeNode struct {
	feature   int
	threshold float64
	left      int32
	right     int32
	value     float64
}

// regTree is a CART regression tree trained by recursive variance-reduction
// splitting.
type regTree struct {
	nodes []treeNode
}

// treeConfig controls regression-tree growth.
type treeConfig struct {
	maxDepth    int
	minLeaf     int
	maxFeatures int // features considered per split
}

// keyed is one row of a node as the split search sees it: its value on the
// candidate feature beside its index into x, so the sort compares and moves
// plain values.
type keyed struct {
	key float64
	idx int
}

// grower holds what the nodes of one tree share while it grows. cur and
// best are its two scratch buffers, each as long as the bootstrap: a feature
// is sorted in cur, and when it takes the lead the two trade places.
type grower struct {
	x          [][]float64
	y          []float64
	cfg        treeConfig
	rng        *rand.Rand
	importance []float64
	nodes      []treeNode
	cur, best  []keyed
}

// buildTree grows a tree on the rows of x indexed by idx, reordering idx as
// it goes. importance accumulates the total variance reduction attributed
// to each feature.
func buildTree(x [][]float64, y []float64, idx []int, cfg treeConfig, rng *rand.Rand, importance []float64) *regTree {
	g := grower{
		x: x, y: y, cfg: cfg, rng: rng, importance: importance,
		nodes: make([]treeNode, 0, 2*len(idx)/cfg.minLeaf+1),
		cur:   make([]keyed, len(idx)), best: make([]keyed, len(idx)),
	}
	g.grow(idx, 0)
	return &regTree{nodes: g.nodes}
}

func mean(y []float64, idx []int) float64 {
	var s float64
	for _, i := range idx {
		s += y[i]
	}
	return s / float64(len(idx))
}

// sse returns the sum of squared errors around the mean of y[idx].
func sse(y []float64, idx []int) float64 {
	m := mean(y, idx)
	var s float64
	for _, i := range idx {
		d := y[i] - m
		s += d * d
	}
	return s
}

// grow appends the subtree for idx and returns its node index.
//
// The unstable sort's order among equal keys is part of the result: it sets
// the order of every prefix sum below, and the winning order is the order
// the children's rows are gathered in. So each feature is sorted from idx
// as the parent left it, and the winner is written back into idx, which the
// children then split between them.
func (g *grower) grow(idx []int, depth int) int32 {
	y, cfg := g.y, g.cfg
	node := int32(len(g.nodes))
	g.nodes = append(g.nodes, treeNode{left: -1, value: mean(y, idx)})

	if depth >= cfg.maxDepth || len(idx) < 2*cfg.minLeaf {
		return node
	}
	parentSSE := sse(y, idx)
	if parentSSE <= 1e-18 {
		return node
	}

	bestFeature, bestK, bestGain := -1, 0, 0.0

	// Candidate features: a random subset of size maxFeatures.
	feats := g.rng.Perm(len(g.x[0]))
	if cfg.maxFeatures < len(feats) {
		feats = feats[:cfg.maxFeatures]
	}

	for _, f := range feats {
		cur := g.cur[:len(idx)]
		for j, i := range idx {
			cur[j] = keyed{g.x[i][f], i}
		}
		sortKeyed(cur)

		// Prefix sums over the sorted order for O(n) split scanning.
		var sumL, sumSqL, sumT, sumSqT float64
		for _, e := range cur {
			sumT += y[e.idx]
			sumSqT += y[e.idx] * y[e.idx]
		}
		for k := 0; k < len(cur)-1; k++ {
			yi := y[cur[k].idx]
			sumL += yi
			sumSqL += yi * yi
			// Cannot split between equal feature values.
			if cur[k].key == cur[k+1].key {
				continue
			}
			nL, nR := float64(k+1), float64(len(cur)-k-1)
			if int(nL) < cfg.minLeaf || int(nR) < cfg.minLeaf {
				continue
			}
			sumR := sumT - sumL
			sumSqR := sumSqT - sumSqL
			sseL := sumSqL - sumL*sumL/nL
			sseR := sumSqR - sumR*sumR/nR
			gain := parentSSE - sseL - sseR
			if gain > bestGain {
				bestFeature, bestK, bestGain = f, k, gain
			}
		}
		if bestFeature == f { // f (tried once per node) took the lead: keep its order
			g.cur, g.best = g.best, g.cur
		}
	}

	if bestFeature < 0 {
		return node
	}
	g.importance[bestFeature] += bestGain

	best := g.best[:len(idx)]
	for j, e := range best {
		idx[j] = e.idx
	}
	g.nodes[node].feature = bestFeature
	g.nodes[node].threshold = (best[bestK].key + best[bestK+1].key) / 2
	l := g.grow(idx[:bestK+1], depth+1)
	r := g.grow(idx[bestK+1:], depth+1)
	g.nodes[node].left = l
	g.nodes[node].right = r
	return node
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

package estimator

import (
	"math/rand"
	"slices"
)

// treeNode is one node of a CART regression tree, stored in a flat slice.
// Leaves have left == -1.
type treeNode struct {
	feature   int
	threshold float64
	left      int32
	right     int32
	value     float64
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

// presort returns, for each column of x, its rows in ascending order if the
// column is tie-free — each value below the next, so no NaN and no value
// shared by two rows — and nil if not. A bootstrap's equal keys on such a
// column are copies of one row, identical keyed values, so its sorted order
// is unique: the one pdqsort finds (DESIGN.md §17.3).
func presort(x [][]float64) [][]keyed {
	orders := make([][]keyed, len(x[0]))
	for f := range orders {
		o := make([]keyed, len(x))
		for i, row := range x {
			o[i] = keyed{row[f], i}
		}
		sortKeyed(o)
		i := 1
		for i < len(o) && o[i-1].key < o[i].key {
			i++
		}
		if i >= len(o) {
			orders[f] = o
		}
	}
	return orders
}

// scratch is one worker's training memory, reused from tree to tree. A
// tied feature is gathered and sorted in cur; when it takes the lead, cur
// and best trade places; after the search cur is the partition's spill.
// lists[f] holds a presorted column f's rows in ascending order, one
// contiguous segment per node at the node's offset into the bootstrap.
// A tree grows in nodes, which has room for the largest tree minLeaf
// allows; feats holds one node's candidate features, and importance the
// tree's other result (forest.go).
type scratch struct {
	orders     [][]keyed // presort(x)
	boot       []int
	cur, best  []keyed
	lists      [][]keyed
	count      []int32 // bootstrap copies of each row of x
	left       []uint8 // 1 if a row of x goes left at the current split
	nodes      []treeNode
	feats      []int
	importance []float64
}

func newScratch(orders [][]keyed, rows, n int) *scratch {
	return &scratch{
		orders: orders, boot: make([]int, n),
		cur: make([]keyed, n), best: make([]keyed, n),
		lists: make([][]keyed, len(orders)),
		count: make([]int32, rows), left: make([]uint8, rows),
		feats: make([]int, len(orders)), importance: make([]float64, len(orders)),
	}
}

// grower holds what the nodes of one tree share while it grows.
type grower struct {
	x          [][]float64
	y          []float64
	cfg        treeConfig
	rng        *rand.Rand
	importance []float64
	idx        []int
	*scratch
}

// build grows a CART regression tree by recursive variance-reduction
// splitting on the rows of x indexed by idx, reordering idx as it goes, in
// s, which must be as long as idx. It returns the tree's nodes, which stay
// valid until s grows the next tree; importance accumulates the total
// variance reduction attributed to each feature. Each presorted column's
// root order is its forest-wide order with every row repeated as often as
// the bootstrap drew it: O(n), no sort.
func (s *scratch) build(x [][]float64, y []float64, idx []int, cfg treeConfig, rng *rand.Rand, importance []float64) []treeNode {
	clear(s.count)
	for _, i := range idx {
		s.count[i]++
	}
	for f, o := range s.orders {
		if o == nil {
			continue
		}
		list := slices.Grow(s.lists[f][:0], len(idx))
		for _, e := range o {
			for c := s.count[e.idx]; c > 0; c-- {
				list = append(list, e)
			}
		}
		s.lists[f] = list
	}
	// A binary tree whose leaves hold at least minLeaf of the n rows has at
	// most 2n/minLeaf+1 nodes.
	s.nodes = slices.Grow(s.nodes[:0], 2*len(idx)/cfg.minLeaf+1)
	g := grower{x: x, y: y, cfg: cfg, rng: rng, importance: importance, idx: idx, scratch: s}
	g.grow(0, len(idx), 0)
	return s.nodes
}

// perm is g.rng.Perm(p) in g.feats: the same Intn(i+1) draws, so the
// same permutation and the same rng state after it, without a slice per
// node.
func (g *grower) perm() []int {
	m := g.feats
	for i := range m {
		j := g.rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
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

// grow appends the subtree for rows g.idx[lo:hi] and returns its node index.
//
// The unstable sort's order among equal keys is part of the result: it sets
// the order of every prefix sum below, and the winning order is the order
// the children's rows are gathered in. So each tied feature is sorted from
// idx as the parent left it, and the winner is written back into idx, which
// the children then split between them. A presorted feature has no tie
// order to keep: it is scanned straight from its segment of g.lists.
func (g *grower) grow(lo, hi, depth int) int32 {
	y, cfg, idx := g.y, g.cfg, g.idx[lo:hi]
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
	feats := g.perm()
	if cfg.maxFeatures < len(feats) {
		feats = feats[:cfg.maxFeatures]
	}

	for _, f := range feats {
		cur := g.lists[f]
		if cur != nil {
			cur = cur[lo:hi]
		} else {
			cur = g.cur[:len(idx)]
			for j, i := range idx {
				cur[j] = keyed{g.x[i][f], i}
			}
			sortKeyed(cur)
		}

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
			nL, nR := float64(k+1), float64(len(cur)-k-1)
			if int(nL) < cfg.minLeaf || int(nR) < cfg.minLeaf {
				continue
			}
			sumR := sumT - sumL
			sumSqR := sumSqT - sumSqL
			sseL := sumSqL - sumL*sumL/nL
			sseR := sumSqR - sumR*sumR/nR
			gain := parentSSE - sseL - sseR
			// Cannot split between equal feature values. The key test comes
			// second: a tie is a coin flip to the branch predictor, a new
			// best gain is rare.
			if gain > bestGain && cur[k].key != cur[k+1].key {
				bestFeature, bestK, bestGain = f, k, gain
			}
		}
		if bestFeature == f && g.lists[f] == nil { // f (tried once per node) took the lead: keep its order
			g.cur, g.best = g.best, g.cur
		}
	}

	if bestFeature < 0 {
		return node
	}
	g.importance[bestFeature] += bestGain

	best := g.best[:len(idx)]
	if g.lists[bestFeature] != nil {
		best = g.lists[bestFeature][lo:hi]
	}
	for j, e := range best {
		idx[j] = e.idx
		g.left[e.idx] = 0
		if j <= bestK {
			g.left[e.idx] = 1
		}
	}
	g.nodes[node].feature = bestFeature
	g.nodes[node].threshold = (best[bestK].key + best[bestK+1].key) / 2
	g.partition(lo, hi, bestFeature)
	mid := lo + bestK + 1
	l := g.grow(lo, mid, depth+1)
	r := g.grow(mid, hi, depth+1)
	g.nodes[node].left = l
	g.nodes[node].right = r
	return node
}

// partition splits every presorted segment lists[f][lo:hi] stably into the
// left child's rows (g.left) followed by the right child's, so each child's
// segment is again ascending. The winner's own segment is split already.
func (g *grower) partition(lo, hi, winner int) {
	for f, list := range g.lists {
		if list == nil || f == winner {
			continue
		}
		seg, spill, n, m := list[lo:hi], g.cur[:hi-lo], 0, 0
		for _, e := range seg {
			l := int(g.left[e.idx]) // no branch: the side is a coin flip
			seg[n], spill[m] = e, e
			n, m = n+l, m+1-l
		}
		copy(seg[n:], spill[:m])
	}
}

package estimator

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
)

// ForestConfig controls random-forest training.
type ForestConfig struct {
	// NumTrees is the ensemble size.
	NumTrees int
	// MaxDepth bounds tree depth.
	MaxDepth int
	// MinLeaf is the minimum samples per leaf.
	MinLeaf int
	// MaxFeatures is the number of features considered per split; zero
	// means two thirds of them, (2p+2)/3, minimum one.
	MaxFeatures int
	// Seed makes training reproducible.
	Seed int64
}

// DefaultForestConfig returns the configuration used for the paper's
// execution-time estimators, the one trainForest's zero fields take.
func DefaultForestConfig() ForestConfig { return defaultForest }

var defaultForest = ForestConfig{NumTrees: 60, MaxDepth: 16, MinLeaf: 3, Seed: 1}

// Forest is a trained random-forest regressor.
//
// The ensemble is stored as one contiguous struct-of-arrays node arena
// rather than a slice of per-tree node slices: Predict walks sixty-odd
// root-to-leaf paths per call, and keeping each node field in its own dense
// array keeps those walks inside a handful of cache lines instead of
// chasing a pointer per tree. Each tree is stored in preorder, so an
// internal node's left child is the node after it, and a node takes 13
// bytes.
type Forest struct {
	// split[n] is internal node n's threshold, or leaf n's value.
	split []float64
	// right[n] is internal node n's right child, an arena index; 0 marks
	// a leaf (index 0 is the first tree's root, nobody's child).
	right []int32
	// feature[n] is the feature internal node n splits on.
	feature []uint8
	// bounds[t] is the arena index of tree t's root (trees are stored
	// contiguously, root first), with a final sentinel at len(split), so
	// tree t spans bounds[t]..bounds[t+1].
	bounds []int32

	importance []float64
	nFeatures  int
}

// treeOut is one tree's training output: its nodes and the impurity
// decrease it credits to each feature. While a worker holds it, it points
// into the worker's scratch.
type treeOut struct {
	nodes      []treeNode
	importance []float64
}

// merger folds finished trees into the forest in tree order, so results
// do not depend on goroutine scheduling: floating-point sums run in tree
// order, and a tree's nodes land in the arena after its predecessor's. A
// tree finished ahead of an earlier one waits in pending, copied out of
// its worker's scratch at its exact size; every other tree is merged
// straight from the scratch it grew in.
type merger struct {
	f       *Forest
	pending []treeOut // pending[t] is tree t, finished but not merged
	merged  int       // trees merged so far
	// onTree, if set, sees each tree's nodes as they are merged, in tree
	// order; the nodes are valid only during the call.
	onTree func(nodes []treeNode)
}

// add merges tree t, or parks a copy of it if an earlier tree is still
// growing, and then merges every parked tree whose turn has come.
func (m *merger) add(t int, o treeOut) {
	if t != m.merged {
		m.pending[t] = treeOut{slices.Clone(o.nodes), slices.Clone(o.importance)}
		return
	}
	m.merge(o)
	for m.merged < len(m.pending) && m.pending[m.merged].nodes != nil {
		m.merge(m.pending[m.merged])
		m.pending[m.merged-1] = treeOut{}
	}
}

// merge appends the next tree to the forest, rebasing its right children
// to arena positions. A tree grows in preorder (grow appends a node before
// its subtrees), so its left children need no index; neither do the
// means an internal node holds, which no prediction reads.
func (m *merger) merge(o treeOut) {
	f := m.f
	m.reserve(len(o.nodes))
	start := int32(len(f.split))
	f.bounds = append(f.bounds, start)
	for _, n := range o.nodes {
		if n.left < 0 {
			f.split = append(f.split, n.value)
			f.right = append(f.right, 0)
			f.feature = append(f.feature, 0)
		} else {
			f.split = append(f.split, n.threshold)
			f.right = append(f.right, n.right+start)
			f.feature = append(f.feature, uint8(n.feature))
		}
	}
	if m.onTree != nil {
		m.onTree(o.nodes)
	}
	for j, v := range o.importance {
		f.importance[j] += v
	}
	m.merged++
}

// reserve makes room in the arena for n more nodes. The arena is sized for
// the whole forest as projected from the trees merged so far — as many
// trees as the mean one, this one included, plus a sixteenth — so it is
// allocated once or twice, and trim cuts it to its length.
func (m *merger) reserve(n int) {
	f := m.f
	have := len(f.split)
	if have+n <= cap(f.split) {
		return
	}
	c := (have + n) * len(m.pending) / (m.merged + 1)
	c += c / 16
	f.split = slices.Grow(f.split, c-have)
	f.right = slices.Grow(f.right, c-have)
	f.feature = slices.Grow(f.feature, c-have)
}

// trim leaves each arena array's capacity within 1 % of its length,
// copying it out if the projection left more unused: a forest is kept for
// the life of its estimator.
func (m *merger) trim() {
	f := m.f
	f.split = trimmed(f.split)
	f.right = trimmed(f.right)
	f.feature = trimmed(f.feature)
}

// trimmed returns s, or a copy of s of capacity len(s) if s has more than
// 1 % of its length to spare.
func trimmed[T any](s []T) []T {
	if cap(s)-len(s) <= len(s)/100 {
		return s
	}
	c := make([]T, len(s))
	copy(c, s)
	return c
}

// trainForest trains a random forest on rows x with targets y, all finite,
// of at most 255 features, handing each tree's nodes to onTree (if not nil)
// in tree order as they are merged. Trees are trained concurrently across a
// worker pool bounded by GOMAXPROCS, each from its own seeded RNG, so
// training is deterministic for a given ForestConfig regardless of
// parallelism.
func trainForest(x [][]float64, y []float64, cfg ForestConfig, onTree func([]treeNode)) (*Forest, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, fmt.Errorf("estimator: bad training set: %d rows, %d targets", len(x), len(y))
	}
	p := len(x[0])
	if p > math.MaxUint8 {
		return nil, fmt.Errorf("estimator: %d features, at most %d fit a node", p, math.MaxUint8)
	}
	for r, row := range x {
		if len(row) != p {
			return nil, fmt.Errorf("estimator: row %d has %d features, want %d", r, len(row), p)
		}
		for c, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("estimator: row %d column %d is %v", r, c, v)
			}
		}
		if math.IsNaN(y[r]) || math.IsInf(y[r], 0) {
			return nil, fmt.Errorf("estimator: row %d target is %v", r, y[r])
		}
	}
	if cfg.NumTrees <= 0 {
		cfg.NumTrees = defaultForest.NumTrees
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = defaultForest.MaxDepth
	}
	if cfg.MinLeaf <= 0 {
		cfg.MinLeaf = defaultForest.MinLeaf
	}
	if cfg.MaxFeatures <= 0 {
		// Regression forests want most features available per split.
		cfg.MaxFeatures = (2*p + 2) / 3
	}
	if cfg.MaxFeatures < 1 {
		cfg.MaxFeatures = 1
	}

	// Per-tree seeds are drawn sequentially from the root seed, so the
	// ensemble is a pure function of cfg no matter how many workers run.
	seedRng := rand.New(rand.NewSource(cfg.Seed))
	seeds := make([]int64, cfg.NumTrees)
	for t := range seeds {
		seeds[t] = seedRng.Int63()
	}

	tc := treeConfig{maxDepth: cfg.MaxDepth, minLeaf: cfg.MinLeaf, maxFeatures: cfg.MaxFeatures}
	orders := presort(x)
	f := &Forest{
		importance: make([]float64, p),
		nFeatures:  p,
		bounds:     make([]int32, 0, cfg.NumTrees+1),
	}
	m := &merger{
		f:       f,
		pending: make([]treeOut, cfg.NumTrees),
		onTree:  onTree,
	}
	workers := min(runtime.GOMAXPROCS(0), cfg.NumTrees)
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := newScratch(orders, len(x), len(x))
			rng := rand.New(rand.NewSource(0))
			for {
				mu.Lock()
				t := next
				next++
				mu.Unlock()
				if t >= cfg.NumTrees {
					return
				}
				rng.Seed(seeds[t])
				o := trainOneTree(x, y, tc, rng, s)
				mu.Lock()
				m.add(t, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	m.trim()
	f.bounds = append(f.bounds, int32(len(f.split)))
	return f, nil
}

// trainOneTree bootstraps and grows one tree in s, drawing from rng, which
// the caller has seeded for this tree. The result lives in s until s grows
// the next tree.
func trainOneTree(x [][]float64, y []float64, tc treeConfig, rng *rand.Rand, s *scratch) treeOut {
	for i := range s.boot {
		s.boot[i] = rng.Intn(len(x))
	}
	clear(s.importance)
	return treeOut{s.build(x, y, s.boot, tc, rng, s.importance), s.importance}
}

// Predict returns the forest's prediction (mean over trees) for one feature
// vector. It panics on a feature-count mismatch. Predict allocates nothing:
// it walks one root-to-leaf path per tree through the node arena, summing
// leaf values in tree order (the same accumulation order as the original
// per-tree representation, so predictions are bit-identical to it).
func (f *Forest) Predict(row []float64) float64 {
	if len(row) != f.nFeatures {
		panic(fmt.Sprintf("estimator: predict with %d features, forest has %d", len(row), f.nFeatures))
	}
	var sum float64
	numTrees := len(f.bounds) - 1
	for t := 0; t < numTrees; t++ {
		n := f.bounds[t]
		for r := f.right[n]; r != 0; r = f.right[n] {
			if row[f.feature[n]] <= f.split[n] {
				n++
			} else {
				n = r
			}
		}
		sum += f.split[n]
	}
	return sum / float64(numTrees)
}

// Importance returns the normalized impurity-decrease importance of each
// feature (summing to 1), the statistic shown on the right of Fig 4.
func (f *Forest) Importance() []float64 {
	out := make([]float64, len(f.importance))
	var total float64
	for _, v := range f.importance {
		total += v
	}
	if total == 0 {
		return out
	}
	for i, v := range f.importance {
		out[i] = v / total
	}
	return out
}

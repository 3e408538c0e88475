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
// execution-time estimators.
func DefaultForestConfig() ForestConfig {
	return ForestConfig{NumTrees: 60, MaxDepth: 16, MinLeaf: 3, Seed: 1}
}

// Forest is a trained random-forest regressor.
//
// The ensemble is stored as one contiguous struct-of-arrays node arena
// rather than a slice of per-tree node slices: Predict walks sixty-odd
// root-to-leaf paths per call, and keeping each node field in its own dense
// array keeps those walks inside a handful of cache lines instead of
// chasing a pointer per tree. Children hold global arena indices; leaves
// have left == -1.
type Forest struct {
	feature   []int32
	threshold []float64
	left      []int32
	right     []int32
	value     []float64
	// bounds[t] is the arena index of tree t's root (trees are stored
	// contiguously, root first), with a final sentinel at len(value), so
	// tree t spans bounds[t]..bounds[t+1].
	bounds []int32

	importance []float64
	nFeatures  int
	oobMAE     float64
}

// NumTrees returns the ensemble size.
func (f *Forest) NumTrees() int { return len(f.bounds) - 1 }

// treeOut is one tree's training output: its nodes, the impurity decrease
// it credits to each feature, and its prediction on each row it never saw.
// While a worker holds it, it points into the worker's scratch.
type treeOut struct {
	nodes      []treeNode
	importance []float64
	oob        []oobPred
}

// oobPred is a tree's prediction on one out-of-bag row of x.
type oobPred struct {
	row  int32
	pred float64
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
	oobSum  []float64 // sum of out-of-bag predictions on each row of x
	oobCnt  []int32   // trees each row of x was out of bag for
}

// add merges tree t, or parks a copy of it if an earlier tree is still
// growing, and then merges every parked tree whose turn has come.
func (m *merger) add(t int, o treeOut) {
	if t != m.merged {
		m.pending[t] = treeOut{slices.Clone(o.nodes), slices.Clone(o.importance), slices.Clone(o.oob)}
		return
	}
	m.merge(o)
	for m.merged < len(m.pending) && m.pending[m.merged].nodes != nil {
		m.merge(m.pending[m.merged])
		m.pending[m.merged-1] = treeOut{}
	}
}

// merge appends the next tree to the forest, rebasing its child indices
// to arena positions.
func (m *merger) merge(o treeOut) {
	f := m.f
	m.reserve(len(o.nodes))
	start := int32(len(f.value))
	f.bounds = append(f.bounds, start)
	for _, n := range o.nodes {
		l, r := n.left, n.right
		if l >= 0 {
			l += start
			r += start
		}
		f.feature = append(f.feature, int32(n.feature))
		f.threshold = append(f.threshold, n.threshold)
		f.left = append(f.left, l)
		f.right = append(f.right, r)
		f.value = append(f.value, n.value)
	}
	for j, v := range o.importance {
		f.importance[j] += v
	}
	for _, e := range o.oob {
		m.oobSum[e.row] += e.pred
		m.oobCnt[e.row]++
	}
	m.merged++
}

// reserve makes room in the arena for n more nodes. The arena is sized for
// the whole forest as projected from the trees merged so far — as many
// trees as the mean one, this one included, plus a sixteenth — so it is
// allocated once or twice and ends within a few percent of its length.
func (m *merger) reserve(n int) {
	f := m.f
	have := len(f.value)
	if have+n <= cap(f.value) {
		return
	}
	c := (have + n) * len(m.pending) / (m.merged + 1)
	c += c / 16
	f.feature = slices.Grow(f.feature, c-have)
	f.threshold = slices.Grow(f.threshold, c-have)
	f.left = slices.Grow(f.left, c-have)
	f.right = slices.Grow(f.right, c-have)
	f.value = slices.Grow(f.value, c-have)
}

// TrainForest trains a random forest on rows x with targets y, all finite.
// Trees are trained concurrently across a worker pool bounded by GOMAXPROCS,
// each from its own seeded RNG, so training is deterministic for a given
// ForestConfig regardless of parallelism.
func TrainForest(x [][]float64, y []float64, cfg ForestConfig) (*Forest, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, fmt.Errorf("estimator: bad training set: %d rows, %d targets", len(x), len(y))
	}
	p := len(x[0])
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
		cfg.NumTrees = 60
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 16
	}
	if cfg.MinLeaf <= 0 {
		cfg.MinLeaf = 3
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
		oobSum:  make([]float64, len(x)),
		oobCnt:  make([]int32, len(x)),
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
	f.bounds = append(f.bounds, int32(len(f.value)))

	// Out-of-bag MAE: an unbiased generalization-error estimate without a
	// held-out set, computed over samples left out by at least one tree.
	var errSum float64
	var errN int
	for i := range x {
		if m.oobCnt[i] > 0 {
			errSum += absFloat(m.oobSum[i]/float64(m.oobCnt[i]) - y[i])
			errN++
		}
	}
	if errN > 0 {
		f.oobMAE = errSum / float64(errN)
	}
	return f, nil
}

// trainOneTree bootstraps, grows and evaluates one tree in s, drawing from
// rng, which the caller has seeded for this tree. The result lives in s
// until s grows the next tree.
func trainOneTree(x [][]float64, y []float64, tc treeConfig, rng *rand.Rand, s *scratch) treeOut {
	for i := range s.boot {
		s.boot[i] = rng.Intn(len(x))
	}
	clear(s.importance)
	tree := regTree{nodes: s.build(x, y, s.boot, tc, rng, s.importance)}
	// Out-of-bag accumulation: samples this tree never saw.
	s.oob = s.oob[:0]
	for i, c := range s.count {
		if c == 0 {
			s.oob = append(s.oob, oobPred{int32(i), tree.predict(x[i])})
		}
	}
	return treeOut{tree.nodes, s.importance, s.oob}
}

func absFloat(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// OOBMAE returns the out-of-bag mean absolute error measured during
// training — a held-out-free generalization estimate (zero if every sample
// landed in every bootstrap, which only happens for degenerate sets).
func (f *Forest) OOBMAE() float64 { return f.oobMAE }

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
		for f.left[n] >= 0 {
			if row[f.feature[n]] <= f.threshold[n] {
				n = f.left[n]
			} else {
				n = f.right[n]
			}
		}
		sum += f.value[n]
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

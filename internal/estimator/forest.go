package estimator

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
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

// flattenTrees packs per-tree node slices into the forest's arena,
// preserving node order within each tree and rebasing child indices to
// global arena positions.
func (f *Forest) flattenTrees(trees []*regTree) {
	total := 0
	for _, t := range trees {
		total += len(t.nodes)
	}
	f.feature = make([]int32, 0, total)
	f.threshold = make([]float64, 0, total)
	f.left = make([]int32, 0, total)
	f.right = make([]int32, 0, total)
	f.value = make([]float64, 0, total)
	f.bounds = make([]int32, 0, len(trees)+1)
	for _, t := range trees {
		start := int32(len(f.value))
		f.bounds = append(f.bounds, start)
		for _, n := range t.nodes {
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
	}
	f.bounds = append(f.bounds, int32(len(f.value)))
}

// treeOut is the full output of one tree's training pass, merged into the
// forest in tree order so results do not depend on goroutine scheduling.
type treeOut struct {
	tree       *regTree
	importance []float64
	oobSum     []float64 // prediction on each out-of-bag sample (0 if in-bag)
	oobSeen    []bool    // whether the sample was out of bag for this tree
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
	outs := make([]treeOut, cfg.NumTrees)
	workers := runtime.GOMAXPROCS(0)
	if workers > cfg.NumTrees {
		workers = cfg.NumTrees
	}
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := newScratch(orders, len(x), len(x))
			for {
				mu.Lock()
				t := next
				next++
				mu.Unlock()
				if t >= cfg.NumTrees {
					return
				}
				outs[t] = trainOneTree(x, y, tc, seeds[t], s)
			}
		}()
	}
	wg.Wait()

	// Merge in tree order: floating-point accumulation order stays fixed.
	f := &Forest{
		importance: make([]float64, p),
		nFeatures:  p,
	}
	trees := make([]*regTree, 0, cfg.NumTrees)
	oobSum := make([]float64, len(x))
	oobCnt := make([]int, len(x))
	for t := range outs {
		trees = append(trees, outs[t].tree)
		for j, v := range outs[t].importance {
			f.importance[j] += v
		}
		for i := range x {
			if outs[t].oobSeen[i] {
				oobSum[i] += outs[t].oobSum[i]
				oobCnt[i]++
			}
		}
	}
	// Out-of-bag MAE: an unbiased generalization-error estimate without a
	// held-out set, computed over samples left out by at least one tree.
	var errSum float64
	var errN int
	for i := range x {
		if oobCnt[i] > 0 {
			errSum += absFloat(oobSum[i]/float64(oobCnt[i]) - y[i])
			errN++
		}
	}
	if errN > 0 {
		f.oobMAE = errSum / float64(errN)
	}
	f.flattenTrees(trees)
	return f, nil
}

// trainOneTree bootstraps, grows and evaluates one tree in s with its own RNG.
func trainOneTree(x [][]float64, y []float64, tc treeConfig, seed int64, s *scratch) treeOut {
	rng := rand.New(rand.NewSource(seed))
	for i := range s.boot {
		s.boot[i] = rng.Intn(len(x))
	}
	out := treeOut{
		importance: make([]float64, len(x[0])),
		oobSum:     make([]float64, len(x)),
		oobSeen:    make([]bool, len(x)),
	}
	out.tree = s.build(x, y, s.boot, tc, rng, out.importance)
	// Out-of-bag accumulation: samples this tree never saw.
	for i := range x {
		if s.count[i] == 0 {
			out.oobSum[i] = out.tree.predict(x[i])
			out.oobSeen[i] = true
		}
	}
	return out
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

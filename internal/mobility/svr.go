package mobility

import (
	"fmt"
	"math"
	"math/rand"

	"perdnn/internal/geo"
	"perdnn/internal/trace"
)

// SVR is the paper's chosen predictor: two linear support vector regressors
// (one per coordinate) over the standardized recent trajectory, trained by
// stochastic subgradient descent on the epsilon-insensitive loss with L2
// regularization. "Linear SVR showed an accuracy similar to RNN and was
// faster than RNN in terms of both training and testing" (Section IV.B.2).
type SVR struct {
	// Epochs is the number of SGD passes (default 30).
	Epochs int
	// Seed drives example shuffling.
	Seed int64

	pl   *geo.Placement
	n    int
	norm *Normalizer
	wx   []float64 // weights for predicting x (2n features + bias at end)
	wy   []float64
}

// The SVR's SGD: svrEpsilon is the insensitive-tube half width in
// standardized units, svrLambda the L2 regularization strength, svrLR0 the
// initial learning rate.
const (
	svrEpsilon = 0.002
	svrLambda  = 1e-6
	svrLR0     = 0.05
)

var _ Predictor = (*SVR)(nil)

// Name implements Predictor.
func (s *SVR) Name() string { return "SVR" }

// Fit implements Predictor.
func (s *SVR) Fit(train []trace.Trajectory, pl *geo.Placement, n int) error {
	if err := checkFitArgs(train, pl, n); err != nil {
		return err
	}
	epochs := s.Epochs
	if epochs <= 0 {
		epochs = 30
	}
	s.pl = pl
	s.n = n

	norm, err := FitNormalizer(train)
	if err != nil {
		return err
	}
	s.norm = norm

	// The windows are read in place. std holds the standardized points of
	// every trajectory long enough for a window, x then y, one trajectory
	// after another; window i's 2n features are the 2n values from
	// 2*starts[i] on, the bias feature 1 follows them, and its target is the
	// point after them.
	points, wins := 0, 0
	for _, tr := range train {
		if tr.Len() > n {
			points += tr.Len()
			wins += tr.Len() - n
		}
	}
	if wins == 0 {
		return fmt.Errorf("mobility: trajectories too short for n=%d", n)
	}
	std := make([]float64, 0, 2*points)
	starts := make([]int32, 0, wins)
	for _, tr := range train {
		if tr.Len() <= n {
			continue
		}
		first := len(std) / 2
		for _, p := range tr.Points {
			q := norm.ToStd(p)
			std = append(std, q.X, q.Y)
		}
		for i := 0; i+n < tr.Len(); i++ {
			starts = append(starts, int32(first+i))
		}
	}

	rng := rand.New(rand.NewSource(s.Seed + 17))
	order := make([]int, wins)
	s.wx = s.trainOne(std, starts, 0, epochs, rng, order)
	s.wy = s.trainOne(std, starts, 1, epochs, rng, order)
	return nil
}

// trainOne runs SGD on the epsilon-insensitive subgradient for one output,
// the x (axis 0) or y (axis 1) of the windows' targets (see Fit). Each of
// the epochs visits the windows in rng.Perm's order, drawn into order. The
// bias feature is 1, so its product and its updates are the bias weight
// and lr themselves.
func (s *SVR) trainOne(std []float64, starts []int32, axis, epochs int, rng *rand.Rand, order []int) []float64 {
	f := 2 * s.n // features before the bias
	w := make([]float64, f+1)
	step := 0
	for e := 0; e < epochs; e++ {
		for _, i := range permInto(rng, order) {
			step++
			lr := svrLR0 / (1 + 0.0005*float64(step))
			xi := std[2*int(starts[i]):][:f]
			pred := dot(w[:f], xi) + w[f]
			r := pred - std[2*int(starts[i])+f+axis]
			// L2 shrink (bias exempt).
			for j := 0; j < f; j++ {
				w[j] -= lr * svrLambda * w[j]
			}
			switch {
			case r > svrEpsilon:
				for j, v := range xi {
					w[j] -= lr * v
				}
				w[f] -= lr
			case r < -svrEpsilon:
				for j, v := range xi {
					w[j] += lr * v
				}
				w[f] += lr
			}
		}
	}
	return w
}

// permInto is rng.Perm(len(m)) in m: the same Intn(i+1) draws, so the same
// permutation and the same rng state after it, without a slice per call.
func permInto(rng *rand.Rand, m []int) []int {
	for i := range m {
		j := rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

func dot(w, x []float64) float64 {
	var sum float64
	for i, v := range w {
		sum += v * x[i]
	}
	return sum
}

// PredictPoint implements Predictor. It allocates nothing: both dot
// products are summed straight from the standardized points, in the order
// Fit's features are (x and y of each point, oldest first, then the bias).
func (s *SVR) PredictPoint(recent []geo.Point) (geo.Point, bool) {
	if s.wx == nil || len(recent) == 0 {
		return geo.Point{}, false
	}
	var x, y float64
	for i := 0; i < s.n; i++ {
		// The last n points; the oldest repeats to pad a short history.
		p := s.norm.ToStd(recent[max(i-(s.n-len(recent)), 0)])
		x += s.wx[2*i] * p.X
		x += s.wx[2*i+1] * p.Y
		y += s.wy[2*i] * p.X
		y += s.wy[2*i+1] * p.Y
	}
	x += s.wx[2*s.n] // times the bias feature, 1
	y += s.wy[2*s.n]
	return s.norm.FromStd(geo.Point{X: x, Y: y}), true
}

// Rank implements Predictor: the k servers nearest the predicted point.
func (s *SVR) Rank(recent []geo.Point, k int) []geo.ServerID {
	pt, ok := s.PredictPoint(recent)
	if !ok {
		return nil
	}
	return s.pl.Nearest(pt, k)
}

// MAE returns the mean absolute position error (meters) over test windows,
// the per-point metric of Table III and Fig 6.
func MAE(p Predictor, wins []Window) (float64, error) {
	if len(wins) == 0 {
		return 0, fmt.Errorf("mobility: no evaluation windows")
	}
	var sum float64
	var cnt int
	for _, w := range wins {
		pt, ok := p.PredictPoint(w.In)
		if !ok {
			return 0, fmt.Errorf("mobility: %s is not coordinate-based", p.Name())
		}
		sum += math.Abs(pt.X-w.Target.X)/2 + math.Abs(pt.Y-w.Target.Y)/2
		cnt++
	}
	return sum / float64(cnt), nil
}

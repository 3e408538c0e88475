package mobility

import (
	"fmt"
	"math"
	"math/rand"

	"perdnn/internal/geo"
	"perdnn/internal/trace"
)

// LSTM is the recurrent baseline of Table III: a single LSTM cell reads the
// standardized recent trajectory and a linear output layer emits the
// predicted coordinates. Trained from scratch with backpropagation through
// time, MAE loss, and the Adam optimizer (lr 0.001), per Section III.D.
type LSTM struct {
	// Hidden is the cell state width (the paper uses 16-32; default 16).
	Hidden int
	// Epochs is the number of training passes (default 20).
	Epochs int
	// MaxExamples subsamples the training windows to bound training time
	// (default 3000).
	MaxExamples int
	// Seed drives initialization and shuffling.
	Seed int64

	pl   *geo.Placement
	n    int
	norm *Normalizer

	// Flat parameter vector and Adam state.
	theta, m, v []float64
	adamT       int

	// Cached dimensions.
	inDim, hid int
}

// The LSTM's minibatch size and Adam learning rate.
const (
	lstmBatchSize = 32
	lstmLR        = 0.001
)

var _ Predictor = (*LSTM)(nil)

// Name implements Predictor.
func (l *LSTM) Name() string { return "RNN" }

// Parameter layout offsets within theta.
func (l *LSTM) offsets() (wEnd, bEnd, vEnd, cEnd int) {
	h, d := l.hid, l.inDim
	wEnd = 4 * h * (d + h)
	bEnd = wEnd + 4*h
	vEnd = bEnd + 2*h
	cEnd = vEnd + 2
	return
}

// Fit implements Predictor.
func (l *LSTM) Fit(train []trace.Trajectory, pl *geo.Placement, n int) error {
	if err := checkFitArgs(train, pl, n); err != nil {
		return err
	}
	l.hid = l.Hidden
	if l.hid <= 0 {
		l.hid = 16
	}
	epochs, maxExamples := l.Epochs, l.MaxExamples
	if epochs <= 0 {
		epochs = 20
	}
	if maxExamples <= 0 {
		maxExamples = 3000
	}
	l.pl = pl
	l.n = n
	l.inDim = 2

	norm, err := FitNormalizer(train)
	if err != nil {
		return err
	}
	l.norm = norm

	wins := Windows(train, n)
	if len(wins) == 0 {
		return fmt.Errorf("mobility: trajectories too short for n=%d", n)
	}
	rng := rand.New(rand.NewSource(l.Seed + 29))
	if len(wins) > maxExamples {
		idx := rng.Perm(len(wins))[:maxExamples]
		sub := make([]Window, 0, maxExamples)
		for _, i := range idx {
			sub = append(sub, wins[i])
		}
		wins = sub
	}

	_, _, _, pTotal := l.offsets()
	l.theta = make([]float64, pTotal)
	l.m = make([]float64, pTotal)
	l.v = make([]float64, pTotal)
	// Glorot-ish init.
	scale := 1 / math.Sqrt(float64(l.hid+l.inDim))
	for i := range l.theta {
		l.theta[i] = rng.NormFloat64() * scale
	}
	// Forget-gate bias starts positive for stable early training.
	wEnd, _, _, _ := l.offsets()
	for i := 0; i < l.hid; i++ {
		l.theta[wEnd+l.hid+i] = 1
	}

	grad := make([]float64, pTotal)
	for e := 0; e < epochs; e++ {
		perm := rng.Perm(len(wins))
		for start := 0; start < len(perm); start += lstmBatchSize {
			end := start + lstmBatchSize
			if end > len(perm) {
				end = len(perm)
			}
			for i := range grad {
				grad[i] = 0
			}
			for _, wi := range perm[start:end] {
				l.backward(wins[wi], grad)
			}
			l.adamStep(grad, float64(end-start))
		}
	}
	return nil
}

// forward runs the cell over the window and returns the prediction in
// standard scores plus the cached activations needed for backprop.
type lstmTrace struct {
	xs              [][]float64 // inputs per step
	hs, cs          [][]float64 // states per step (index 0 = initial zeros)
	gi, gf, go_, gg [][]float64
	tanhC           [][]float64
	out             [2]float64
}

func (l *LSTM) forward(recent []geo.Point) *lstmTrace {
	h, d := l.hid, l.inDim
	wEnd, bEnd, vEnd, _ := l.offsets()
	W := l.theta[:wEnd]
	b := l.theta[wEnd:bEnd]
	V := l.theta[bEnd:vEnd]
	c2 := l.theta[vEnd:]

	steps := l.n
	tr := &lstmTrace{
		xs:    make([][]float64, steps),
		hs:    make([][]float64, steps+1),
		cs:    make([][]float64, steps+1),
		gi:    make([][]float64, steps),
		gf:    make([][]float64, steps),
		go_:   make([][]float64, steps),
		gg:    make([][]float64, steps),
		tanhC: make([][]float64, steps),
	}
	tr.hs[0] = make([]float64, h)
	tr.cs[0] = make([]float64, h)

	for t := 0; t < steps; t++ {
		// Repeat the oldest point when the history is short.
		j := t - (steps - len(recent))
		if j < 0 {
			j = 0
		}
		p := l.norm.ToStd(recent[j])
		x := []float64{p.X, p.Y}
		tr.xs[t] = x

		hi, fi, oi, gi := make([]float64, h), make([]float64, h), make([]float64, h), make([]float64, h)
		hNew, cNew, tc := make([]float64, h), make([]float64, h), make([]float64, h)
		for r := 0; r < 4*h; r++ {
			sum := b[r]
			row := W[r*(d+h) : (r+1)*(d+h)]
			for k := 0; k < d; k++ {
				sum += row[k] * x[k]
			}
			for k := 0; k < h; k++ {
				sum += row[d+k] * tr.hs[t][k]
			}
			switch r / h {
			case 0:
				hi[r%h] = sigmoid(sum)
			case 1:
				fi[r%h] = sigmoid(sum)
			case 2:
				oi[r%h] = sigmoid(sum)
			default:
				gi[r%h] = math.Tanh(sum)
			}
		}
		for k := 0; k < h; k++ {
			cNew[k] = fi[k]*tr.cs[t][k] + hi[k]*gi[k]
			tc[k] = math.Tanh(cNew[k])
			hNew[k] = oi[k] * tc[k]
		}
		tr.gi[t], tr.gf[t], tr.go_[t], tr.gg[t] = hi, fi, oi, gi
		tr.cs[t+1], tr.hs[t+1], tr.tanhC[t] = cNew, hNew, tc
	}
	for o := 0; o < 2; o++ {
		sum := c2[o]
		for k := 0; k < h; k++ {
			sum += V[o*h+k] * tr.hs[steps][k]
		}
		tr.out[o] = sum
	}
	return tr
}

// backward accumulates the MAE-loss gradient of one window into grad.
func (l *LSTM) backward(w Window, grad []float64) {
	h, d := l.hid, l.inDim
	wEnd, bEnd, vEnd, _ := l.offsets()
	W := l.theta[:wEnd]
	V := l.theta[bEnd:vEnd]

	tr := l.forward(w.In)
	tgt := l.norm.ToStd(w.Target)

	// MAE loss subgradient on outputs.
	dOut := [2]float64{signf(tr.out[0]-tgt.X) / 2, signf(tr.out[1]-tgt.Y) / 2}

	dh := make([]float64, h)
	for o := 0; o < 2; o++ {
		grad[vEnd+o] += dOut[o]
		for k := 0; k < h; k++ {
			grad[bEnd+o*h+k] += dOut[o] * tr.hs[l.n][k]
			dh[k] += V[o*h+k] * dOut[o]
		}
	}

	dc := make([]float64, h)
	dz := make([]float64, 4*h)
	for t := l.n - 1; t >= 0; t-- {
		hi, fi, oi, gi := tr.gi[t], tr.gf[t], tr.go_[t], tr.gg[t]
		for k := 0; k < h; k++ {
			tc := tr.tanhC[t]
			dck := dc[k] + dh[k]*oi[k]*(1-tc[k]*tc[k])
			do := dh[k] * tc[k]
			di := dck * gi[k]
			dg := dck * hi[k]
			df := dck * tr.cs[t][k]
			dz[k] = di * hi[k] * (1 - hi[k])
			dz[h+k] = df * fi[k] * (1 - fi[k])
			dz[2*h+k] = do * oi[k] * (1 - oi[k])
			dz[3*h+k] = dg * (1 - gi[k]*gi[k])
			dc[k] = dck * fi[k]
		}
		for k := 0; k < h; k++ {
			dh[k] = 0
		}
		for r := 0; r < 4*h; r++ {
			row := W[r*(d+h) : (r+1)*(d+h)]
			gRow := grad[r*(d+h) : (r+1)*(d+h)]
			for k := 0; k < d; k++ {
				gRow[k] += dz[r] * tr.xs[t][k]
			}
			for k := 0; k < h; k++ {
				gRow[d+k] += dz[r] * tr.hs[t][k]
				dh[k] += row[d+k] * dz[r]
			}
			grad[wEnd+r] += dz[r]
		}
	}
}

// adamStep applies one Adam update with the accumulated batch gradient.
func (l *LSTM) adamStep(grad []float64, batch float64) {
	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	l.adamT++
	bc1 := 1 - math.Pow(beta1, float64(l.adamT))
	bc2 := 1 - math.Pow(beta2, float64(l.adamT))
	for i := range l.theta {
		g := grad[i] / batch
		l.m[i] = beta1*l.m[i] + (1-beta1)*g
		l.v[i] = beta2*l.v[i] + (1-beta2)*g*g
		l.theta[i] -= lstmLR * (l.m[i] / bc1) / (math.Sqrt(l.v[i]/bc2) + eps)
	}
}

// PredictPoint implements Predictor.
func (l *LSTM) PredictPoint(recent []geo.Point) (geo.Point, bool) {
	if l.theta == nil || len(recent) == 0 {
		return geo.Point{}, false
	}
	tr := l.forward(recent)
	return l.norm.FromStd(geo.Point{X: tr.out[0], Y: tr.out[1]}), true
}

// Rank implements Predictor.
func (l *LSTM) Rank(recent []geo.Point, k int) []geo.ServerID {
	pt, ok := l.PredictPoint(recent)
	if !ok {
		return nil
	}
	return l.pl.Nearest(pt, k)
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

func signf(v float64) float64 {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	default:
		return 0
	}
}

// Package mobility implements PerDNN's mobility prediction (Section III.D):
// given a client's n most recent locations sampled every t seconds, predict
// where the client will be after the next interval, and rank the edge
// servers to migrate DNN layers to. Three predictors are provided, matching
// the paper's comparison (Table III): a variable-order Markov model over
// server identifiers built as a prediction suffix tree, a linear support
// vector regressor trained with SGD on the epsilon-insensitive loss, and a
// from-scratch LSTM recurrent network trained with Adam — all on the
// standard library.
package mobility

import (
	"errors"
	"fmt"
	"math"

	"perdnn/internal/geo"
	"perdnn/internal/trace"
)

// HistoryLen is the trajectory length n: a prediction reads the client's
// five most recent locations (Section III.D; the Fig 6 sweep shows the
// error flat from n = 2 on).
const HistoryLen = 5

// Predictor ranks the edge servers a client is most likely to visit next.
// Coordinate-based predictors (SVR, LSTM) expose the raw predicted point as
// well; the Markov model only ranks discrete servers.
type Predictor interface {
	// Name identifies the predictor in reports.
	Name() string
	// Fit trains on the training split. n is the trajectory length (number
	// of recent locations used per prediction); pl maps locations to edge
	// servers for discrete predictors and top-k ranking.
	Fit(train []trace.Trajectory, pl *geo.Placement, n int) error
	// Rank returns up to k candidate next servers, most likely first.
	// recent holds the client's n most recent locations, oldest first.
	Rank(recent []geo.Point, k int) []geo.ServerID
	// PredictPoint returns the predicted next coordinates; ok reports
	// whether the predictor is coordinate-based.
	PredictPoint(recent []geo.Point) (pt geo.Point, ok bool)
}

// Window is one supervised training example: n consecutive locations and
// the location one interval later.
type Window struct {
	In     []geo.Point
	Target geo.Point
}

// Windows slices every trajectory into sliding prediction windows of
// length n.
func Windows(trs []trace.Trajectory, n int) []Window {
	if n <= 0 {
		return nil
	}
	total := 0
	for _, tr := range trs {
		total += max(tr.Len()-n, 0)
	}
	out := make([]Window, 0, total)
	for _, tr := range trs {
		for i := 0; i+n < tr.Len(); i++ {
			out = append(out, Window{In: tr.Points[i : i+n], Target: tr.Points[i+n]})
		}
	}
	return out
}

// Normalizer converts coordinates to standard scores, fit on training data
// ("the x, y coordinates were normalized to standard scores before fed into
// the SVR model").
type Normalizer struct {
	Mean geo.Point
	Std  geo.Point
}

// FitNormalizer computes the per-axis mean and standard deviation over all
// points of the training trajectories.
func FitNormalizer(trs []trace.Trajectory) (*Normalizer, error) {
	var n float64
	var sum geo.Point
	for _, tr := range trs {
		for _, p := range tr.Points {
			sum = sum.Add(p)
			n++
		}
	}
	if n == 0 {
		return nil, errors.New("mobility: no training points")
	}
	mean := sum.Scale(1 / n)
	var varAcc geo.Point
	for _, tr := range trs {
		for _, p := range tr.Points {
			d := p.Sub(mean)
			varAcc.X += d.X * d.X
			varAcc.Y += d.Y * d.Y
		}
	}
	std := geo.Point{X: math.Sqrt(varAcc.X / n), Y: math.Sqrt(varAcc.Y / n)}
	if std.X < 1e-9 {
		std.X = 1
	}
	if std.Y < 1e-9 {
		std.Y = 1
	}
	return &Normalizer{Mean: mean, Std: std}, nil
}

// ToStd converts a point to standard scores.
func (z *Normalizer) ToStd(p geo.Point) geo.Point {
	return geo.Point{X: (p.X - z.Mean.X) / z.Std.X, Y: (p.Y - z.Mean.Y) / z.Std.Y}
}

// FromStd converts standard scores back to coordinates.
func (z *Normalizer) FromStd(p geo.Point) geo.Point {
	return geo.Point{X: p.X*z.Std.X + z.Mean.X, Y: p.Y*z.Std.Y + z.Mean.Y}
}

// checkFitArgs validates the common Fit inputs.
func checkFitArgs(train []trace.Trajectory, pl *geo.Placement, n int) error {
	if len(train) == 0 {
		return errors.New("mobility: no training trajectories")
	}
	if pl == nil {
		return errors.New("mobility: placement required")
	}
	if n <= 0 {
		return fmt.Errorf("mobility: trajectory length %d", n)
	}
	return nil
}

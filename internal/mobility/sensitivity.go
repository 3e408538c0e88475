package mobility

import (
	"errors"
	"fmt"
	"time"

	"perdnn/internal/geo"
	"perdnn/internal/trace"
)

// SensitivityResult holds the Fig 6 outputs: prediction MAE as a function
// of trajectory length n for several intervals (left plot), and futile
// ratio / MAE / benefit-to-cost ratio as functions of the interval t (right
// plot plus the Eq. 1-2 interval selection).
type SensitivityResult struct {
	// Ns are the evaluated trajectory lengths.
	Ns []int
	// Intervals are the evaluated sampling intervals.
	Intervals []time.Duration
	// MAEByN[t][j] is the SVR MAE (meters) at interval t and n = Ns[j].
	MAEByN map[time.Duration][]float64
	// FutileRatio[i], MAEByInterval[i], and BenefitCost[i] correspond to
	// Intervals[i], all at n = NFixed.
	FutileRatio   []float64
	MAEByInterval []float64
	BenefitCost   []float64
	// NFixed is the trajectory length used for the interval sweep.
	NFixed int
	// BestInterval maximizes the benefit-to-cost ratio.
	BestInterval time.Duration
}

// SensitivityConfig controls the Fig 6 experiment.
type SensitivityConfig struct {
	// Ns to sweep in the left plot (default 1..8).
	Ns []int
	// NIntervals are the intervals of the left plot (default 15-30 s).
	NIntervals []time.Duration
	// TIntervals are the intervals of the right plot (default 15-60 s).
	TIntervals []time.Duration
	// NFixed is the trajectory length for the interval sweep (HistoryLen
	// in the paper).
	NFixed int
	// MaxTrainWindows caps SVR training set size per fit.
	MaxTrainWindows int
}

// DefaultSensitivityConfig matches the paper's sweeps.
func DefaultSensitivityConfig() SensitivityConfig {
	secs := func(vs ...int) []time.Duration {
		out := make([]time.Duration, 0, len(vs))
		for _, v := range vs {
			out = append(out, time.Duration(v)*time.Second)
		}
		return out
	}
	return SensitivityConfig{
		Ns:              []int{1, 2, 3, 4, 5, 6, 7, 8},
		NIntervals:      secs(15, 20, 25, 30),
		TIntervals:      secs(15, 20, 25, 30, 35, 40, 45, 50, 55, 60),
		NFixed:          HistoryLen,
		MaxTrainWindows: 12000,
	}
}

// RunSensitivity performs the Fig 6 analysis on a base dataset (sampled at
// its native interval; every swept interval must be a multiple of it).
func RunSensitivity(base *trace.Dataset, cfg SensitivityConfig) (*SensitivityResult, error) {
	if len(cfg.Ns) == 0 {
		return nil, errors.New("mobility: sensitivity needs at least one trajectory length")
	}
	res := &SensitivityResult{
		Ns:        cfg.Ns,
		Intervals: cfg.TIntervals,
		MAEByN:    make(map[time.Duration][]float64, len(cfg.NIntervals)),
		NFixed:    cfg.NFixed,
	}

	// Left plot: MAE vs n for each interval.
	for _, t := range cfg.NIntervals {
		ds, err := base.Resample(t)
		if err != nil {
			return nil, fmt.Errorf("mobility: sensitivity resample: %w", err)
		}
		pl := geo.NewPlacement(geo.NewHexGrid(geo.CellRadius), ds.AllPoints())
		maes := make([]float64, 0, len(cfg.Ns))
		for _, n := range cfg.Ns {
			svr := &SVR{Seed: 1}
			if err := fitSVRCapped(svr, ds.Train, pl, n, cfg.MaxTrainWindows); err != nil {
				return nil, err
			}
			mae, err := MAE(svr, Windows(ds.Test, n))
			if err != nil {
				return nil, err
			}
			maes = append(maes, mae)
		}
		res.MAEByN[t] = maes
	}

	// Right plot: futile ratio, MAE and benefit/cost vs interval at NFixed.
	best := -1.0
	for _, t := range cfg.TIntervals {
		ds, err := base.Resample(t)
		if err != nil {
			return nil, fmt.Errorf("mobility: sensitivity resample: %w", err)
		}
		pl := geo.NewPlacement(geo.NewHexGrid(geo.CellRadius), ds.AllPoints())

		svr := &SVR{Seed: 1}
		if err := fitSVRCapped(svr, ds.Train, pl, cfg.NFixed, cfg.MaxTrainWindows); err != nil {
			return nil, err
		}
		mae, err := MAE(svr, Windows(ds.Test, cfg.NFixed))
		if err != nil {
			return nil, err
		}
		futile := FutileRatio(ds.Test, pl, cfg.NFixed)

		// Eq. 1-2: benefit ∝ a (p - f), cost ∝ p, with a "the prediction
		// accuracy when the predicted location is inside the service
		// range of the next edge server" — the predicted point must land
		// within a cell radius of the next server's center.
		a := serviceRangeAccuracy(svr, ds.Test, pl, cfg.NFixed)
		bc := a * (1 - futile)

		res.FutileRatio = append(res.FutileRatio, futile)
		res.MAEByInterval = append(res.MAEByInterval, mae)
		res.BenefitCost = append(res.BenefitCost, bc)
		if bc > best {
			best = bc
			res.BestInterval = t
		}
	}
	return res, nil
}

// serviceRangeAccuracy returns the fraction of non-futile predictions whose
// predicted point lands within a cell radius of the actual next server's
// center.
func serviceRangeAccuracy(p Predictor, test []trace.Trajectory, pl *geo.Placement, n int) float64 {
	var hits, total int
	for _, tr := range test {
		for i := n - 1; i+1 < tr.Len(); i++ {
			cur := nearestServer(pl, tr.Points[i])
			next := nearestServer(pl, tr.Points[i+1])
			if cur == next || next == geo.NoServer {
				continue
			}
			total++
			pt, ok := p.PredictPoint(tr.Points[i-n+1 : i+1])
			if !ok {
				continue
			}
			if pt.Dist(pl.Center(next)) <= geo.CellRadius {
				hits++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// fitSVRCapped trains an SVR on at most maxWindows training windows by
// truncating each trajectory proportionally — enough signal for the sweep
// at a fraction of the cost.
func fitSVRCapped(svr *SVR, train []trace.Trajectory, pl *geo.Placement, n, maxWindows int) error {
	total := 0
	for _, tr := range train {
		total += tr.Len()
	}
	if maxWindows > 0 && total > maxWindows {
		frac := float64(maxWindows) / float64(total)
		capped := make([]trace.Trajectory, 0, len(train))
		for _, tr := range train {
			keep := int(float64(tr.Len()) * frac)
			if keep < n+2 {
				continue
			}
			capped = append(capped, trace.Trajectory{User: tr.User, Interval: tr.Interval, Points: tr.Points[:keep]})
		}
		if len(capped) > 0 {
			train = capped
		}
	}
	return svr.Fit(train, pl, n)
}

package main

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"perdnn/internal/dnn"
	"perdnn/internal/edgesim"
	"perdnn/internal/estimator"
	"perdnn/internal/geo"
	"perdnn/internal/mobility"
	"perdnn/internal/trace"
)

// runTable1 prints the model inventory (Table I).
func runTable1(_ context.Context, w io.Writer, _ bool) error {
	fmt.Fprintf(w, "%-10s %8s %8s %10s   paper\n", "model", "#layers", "size MB", "GFLOPs")
	paper := map[dnn.ModelName]string{
		dnn.ModelMobileNet: "110 layers, 16 MB",
		dnn.ModelInception: "312 layers, 128 MB",
		dnn.ModelResNet:    "245 layers, 98 MB",
	}
	for _, name := range dnn.ZooNames() {
		m, err := dnn.ZooModel(name)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10s %8d %8.0f %10.2f   %s\n", name, m.NumLayers(),
			float64(m.TotalWeightBytes())/(1<<20), float64(m.TotalFLOPs())/1e9, paper[name])
	}
	return nil
}

// runFig1 prints the IONN cold-start latency series (Fig 1).
func runFig1(_ context.Context, w io.Writer, _ bool) error {
	cfg := edgesim.DefaultSingleConfig(dnn.ModelInception)
	res, err := edgesim.RunSingle(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Inception, 40 queries, server change before query 21 (IONN baseline)")
	fmt.Fprintf(w, "%-6s %-10s %-10s\n", "query", "issued", "latency")
	for i, q := range res.Queries {
		marker := ""
		if i == cfg.SwitchAfterQueries {
			marker = "   <- server change (cold start)"
		}
		fmt.Fprintf(w, "%-6d %-10v %-10v%s\n", i+1, q.Issued.Round(100*time.Millisecond),
			q.Latency.Round(time.Millisecond), marker)
	}
	return nil
}

// runFig4 prints the estimator MAE table and feature importances (Fig 4).
func runFig4(_ context.Context, w io.Writer, quick bool) error {
	cfg := estimator.DefaultFig4Config()
	if quick {
		cfg.CorpusSize = 12
		cfg.Profiling.MaxClients = 8
		cfg.Profiling.SamplesPerLevel = 25
	} else {
		cfg.CorpusSize = 24
		cfg.Profiling.SamplesPerLevel = 45
	}
	res, err := estimator.RunFig4(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-9s", "#clients")
	for _, n := range res.ModelNames {
		fmt.Fprintf(w, " %26s", n)
	}
	fmt.Fprintln(w, " (MAE, us)")
	for i, k := range res.Clients {
		fmt.Fprintf(w, "%-9d", k)
		for _, n := range res.ModelNames {
			fmt.Fprintf(w, " %24.0fus", res.MAEMicros[n][i])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\nrandom-forest feature importances (workload share %.2f):\n", res.WorkloadImportanceShare())
	type imp struct {
		name string
		v    float64
	}
	imps := make([]imp, 0, len(res.Importance))
	for i, n := range res.ImportanceNames {
		imps = append(imps, imp{name: n, v: res.Importance[i]})
	}
	sort.Slice(imps, func(i, j int) bool { return imps[i].v > imps[j].v })
	for _, it := range imps {
		fmt.Fprintf(w, "  %-12s %.3f\n", it.name, it.v)
	}
	return nil
}

// geolifeBase caches the generated Geolife-like dataset.
var geolifeBase = sync.OnceValues(func() (*trace.Dataset, error) {
	return trace.Generate(trace.GeolifeConfig())
})

// kaistBase caches the generated KAIST-like dataset.
var kaistBase = sync.OnceValues(func() (*trace.Dataset, error) {
	return trace.Generate(trace.KAISTConfig())
})

// traceDatasets are the two synthetic mobility datasets, in report order.
var traceDatasets = []struct {
	name string
	gen  func() (*trace.Dataset, error)
}{
	{"KAIST", kaistBase},
	{"Geolife", geolifeBase},
}

// runDatasets prints the statistics the trace generators are tuned to
// match: split sizes, speeds at 20 s sampling, and the paper's edge-server
// placement with its futile-prediction ratio.
func runDatasets(_ context.Context, w io.Writer, _ bool) error {
	for _, d := range traceDatasets {
		base, err := d.gen()
		if err != nil {
			return err
		}
		ds, err := base.Resample(20 * time.Second)
		if err != nil {
			return err
		}
		st, err := ds.ComputeStats(geo.CellRadius)
		if err != nil {
			return err
		}
		pl := placementFor(ds)
		fmt.Fprintf(w, "%-8s %v\n", d.name, st)
		fmt.Fprintf(w, "%-8s %.1f x %.1f km, %d edge servers (%d m cells), futile ratio %.2f (n=%d, t=20 s)\n",
			"", ds.Area.Width()/1000, ds.Area.Height()/1000, pl.Len(), geo.CellRadius,
			mobility.FutileRatio(ds.Test, pl, mobility.HistoryLen), mobility.HistoryLen)
	}
	return nil
}

// runFig6 prints the trajectory-length and interval sensitivity (Fig 6).
func runFig6(_ context.Context, w io.Writer, quick bool) error {
	base, err := geolifeBase()
	if err != nil {
		return err
	}
	cfg := mobility.DefaultSensitivityConfig()
	if quick {
		cfg.Ns = []int{1, 2, 3, 5}
		cfg.TIntervals = cfg.TIntervals[:4]
		cfg.MaxTrainWindows = 4000
	}
	res, err := mobility.RunSensitivity(base, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "left: SVR prediction MAE (m) vs trajectory length n (Geolife-like)")
	fmt.Fprintf(w, "%-4s", "n")
	intervals := make([]time.Duration, 0, len(res.MAEByN))
	for t := range res.MAEByN {
		intervals = append(intervals, t)
	}
	sort.Slice(intervals, func(i, j int) bool { return intervals[i] < intervals[j] })
	for _, t := range intervals {
		fmt.Fprintf(w, " %8s", t)
	}
	fmt.Fprintln(w)
	for j, n := range res.Ns {
		fmt.Fprintf(w, "%-4d", n)
		for _, t := range intervals {
			fmt.Fprintf(w, " %7.1fm", res.MAEByN[t][j])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "\nright: interval sweep at n =", res.NFixed)
	fmt.Fprintf(w, "%-10s %-10s %-10s %-12s\n", "interval", "futile", "MAE (m)", "benefit/cost")
	for i, t := range res.Intervals {
		marker := ""
		if t == res.BestInterval {
			marker = "   <- selected"
		}
		fmt.Fprintf(w, "%-10s %-10.2f %-10.1f %-12.3f%s\n", t, res.FutileRatio[i], res.MAEByInterval[i], res.BenefitCost[i], marker)
	}
	return nil
}

// runFig7 prints the proactive-migration single-client comparison (Fig 7).
func runFig7(_ context.Context, w io.Writer, _ bool) error {
	fractions := map[dnn.ModelName]float64{
		dnn.ModelMobileNet: 0.40,
		dnn.ModelInception: 0.14,
		dnn.ModelResNet:    0.30,
	}
	for _, model := range dnn.ZooNames() {
		fmt.Fprintf(w, "--- %s ---\n", model)
		fmt.Fprintf(w, "%-22s %-12s %-12s %-12s\n", "variant", "migrated", "peak@switch", "steady")
		for _, frac := range []float64{0, fractions[model], 1} {
			cfg := edgesim.DefaultSingleConfig(model)
			cfg.MigrateFraction = frac
			res, err := edgesim.RunSingle(cfg)
			if err != nil {
				return err
			}
			name := "IONN (no migration)"
			switch {
			case frac >= 1:
				name = "PM 100%"
			case frac > 0:
				name = fmt.Sprintf("PM %.0f%%", frac*100)
			}
			fmt.Fprintf(w, "%-22s %9.1f MB %-12v %-12v\n", name,
				float64(res.MigratedBytes)/(1<<20),
				res.PeakAfterSwitch().Round(time.Millisecond),
				res.Queries[len(res.Queries)-1].Latency.Round(time.Millisecond))
		}
	}
	return nil
}

// runTable2 prints queries executed during model upload (Table II).
func runTable2(_ context.Context, w io.Writer, _ bool) error {
	fmt.Fprintf(w, "%-10s %-12s %-14s %-14s   paper (upload/miss/hit)\n", "model", "upload", "miss (IONN)", "hit (ours)")
	paper := map[dnn.ModelName]string{
		dnn.ModelMobileNet: "3.7s / 4 / 5",
		dnn.ModelInception: "29.3s / 33 / 44",
		dnn.ModelResNet:    "22.4s / 14 / 34",
	}
	for _, model := range dnn.ZooNames() {
		res, err := edgesim.RunUploadThroughput(model)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10s %-12v %-14d %-14d   %s\n", model,
			res.UploadTime.Round(100*time.Millisecond), res.MissCount, res.HitCount, paper[model])
	}
	return nil
}

// runTable3 prints mobility predictor accuracy (Table III).
func runTable3(_ context.Context, w io.Writer, quick bool) error {
	fmt.Fprintf(w, "%-9s %-8s %7s %7s %9s %10s\n", "dataset", "model", "top-1", "top-2", "MAE (m)", "fit time")
	for _, d := range traceDatasets {
		base, err := d.gen()
		if err != nil {
			return err
		}
		ds, err := base.Resample(20 * time.Second)
		if err != nil {
			return err
		}
		pl := placementFor(ds)
		preds := []mobility.Predictor{
			&mobility.Markov{},
			&mobility.SVR{Seed: 1},
			&mobility.LSTM{Seed: 1, Hidden: 16, Epochs: lstmEpochs(quick), MaxExamples: lstmExamples(quick)},
			&mobility.Linear{},
		}
		for _, p := range preds {
			t0 := time.Now()
			if err := p.Fit(ds.Train, pl, mobility.HistoryLen); err != nil {
				return err
			}
			fit := time.Since(t0)
			res, err := mobility.EvaluatePredictor(p, ds.Test, pl, mobility.HistoryLen)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-9s %-8s %6.1f%% %6.1f%% %8.1fm %10v\n",
				d.name, p.Name(), res.Top1, res.Top2, res.MAEMeters, fit.Round(time.Millisecond))
		}
	}
	return nil
}

func lstmEpochs(quick bool) int {
	if quick {
		return 8
	}
	return 35
}

func lstmExamples(quick bool) int {
	if quick {
		return 1200
	}
	return 6000
}

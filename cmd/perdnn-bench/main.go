// Command perdnn-bench regenerates every table and figure of the PerDNN
// paper's evaluation against this reproduction, printing paper-style rows.
//
// Usage:
//
//	perdnn-bench [-exp all|table1,datasets,fig1,fig4,fig6,fig7,table2,table3,fig9,traffic,fig10,ablations]
//	             [-quick] [-workers N]
//
// datasets prints the synthetic mobility traces' statistics (split sizes,
// speeds, edge-server count, futile-prediction ratio) that the generators
// are tuned to match; it is the same in quick and full mode.
//
// -quick shrinks datasets and training budgets so the whole suite finishes
// in well under a minute; the full run takes several minutes and produces
// the numbers recorded in EXPERIMENTS.md. -workers bounds the sweep worker
// pool for the city-scale experiments (0 = GOMAXPROCS); results are
// identical at every worker count. Ctrl-C (or SIGTERM) cancels the sweep
// in flight at its next movement tick and skips the remaining experiments.
// TestQuickGolden pins the -quick output to testdata/quick, one golden file
// per experiment. Performance is measured by the benchmark in bench/ (bash
// bench/run.sh), not here.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
)

// benchWorkers bounds the worker pool used by the sweep-based experiments
// (0 = GOMAXPROCS). Set once from the -workers flag before any experiment
// runs.
var benchWorkers int

// experiment is one table or figure of the evaluation; run writes its rows
// to w.
type experiment struct {
	name string
	run  func(ctx context.Context, w io.Writer, quick bool) error
}

// experiments lists every experiment in report order.
var experiments = []experiment{
	{"table1", runTable1},
	{"datasets", runDatasets},
	{"fig1", runFig1},
	{"fig4", runFig4},
	{"fig6", runFig6},
	{"fig7", runFig7},
	{"table2", runTable2},
	{"table3", runTable3},
	{"fig9", runFig9},
	{"traffic", runTraffic},
	{"fig10", runFig10},
	{"ablations", runAblations},
}

// runExperiment writes one experiment's banner and rows to w.
func runExperiment(ctx context.Context, w io.Writer, e experiment, quick bool) error {
	fmt.Fprintf(w, "\n===== %s =====\n", e.name)
	return e.run(ctx, w, quick)
}

func main() {
	exp := flag.String("exp", "all", "comma-separated experiments to run")
	quick := flag.Bool("quick", false, "shrink workloads for a fast pass")
	workers := flag.Int("workers", 0, "sweep worker pool size (0 = GOMAXPROCS)")
	flag.Parse()
	benchWorkers = *workers
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)

	want := map[string]bool{}
	for _, name := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(name)] = true
	}
	runAll := want["all"]

	failed := false
	for _, e := range experiments {
		if !runAll && !want[e.name] {
			continue
		}
		if ctx.Err() != nil {
			failed = true
			break
		}
		if err := runExperiment(ctx, os.Stdout, e, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "perdnn-bench: %s: %v\n", e.name, err)
			failed = true
		}
	}
	stopSignals()
	if failed {
		os.Exit(1)
	}
}

// Command bench is the repository's benchmark: live-path and simulator
// workloads with end-to-end metrics, per-layer probes and a traced run.
// See README.md in this directory; BENCHMARK.json at the repository root is
// the contract the driver runs it under (via run.sh).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"perdnn/internal/partition"
)

// warmup is excluded before every measured window. It is a constant, not a
// flag: two result files are comparable only if they measured the same thing.
const warmup = 1500 * time.Millisecond

// options are one run's settings.
type options struct {
	seed    int64
	seconds time.Duration // measured window
	warmup  time.Duration // excluded before it: warmup, except under -smoke
	trace   bool
	outDir  string
	setups  int // how many times set-up is repeated for its median
	// quick (-smoke) cuts playback and probe iterations to a token amount.
	quick        bool
	updateGolden bool
}

// workload is one named set of inputs.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(o options, r *result) error
}

var workloads = []workload{
	{"live-steady",
		"steady-state offloading over loopback TCP: wire, mobile.Query, edged exec, gpusim and obs do all the work, planning none",
		func(o options, r *result) error { return runLive(liveSpec{maxHops: 1}, o, r) }},
	{"live-handoff",
		"fresh clients walk across 7 cells: register, predict, migrate, cached single-split plan, cold-start upload, warm hits",
		func(o options, r *result) error { return runLive(liveSpec{sessions: true, maxHops: 1}, o, r) }},
	{"live-chain",
		"same walk with MaxHops=3: every attach pings all edges and runs the uncached chain DP, queries relay edge to edge",
		func(o options, r *result) error {
			return runLive(liveSpec{sessions: true, maxHops: 3, objective: partition.ObjectiveThroughput}, o, r)
		}},
	{"city-sim",
		"Geolife-sized city (138 clients, 3864 servers) through the event engine, once per zoo model per round; one sharded round must equal it",
		runCity},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (see -list)")
		seed      = flag.Int64("seed", 1, "seed of trajectories, GPU noise and dataset generation")
		seconds   = flag.Float64("seconds", 20, "measured seconds (warm-up excluded)")
		trace     = flag.Int("trace", 0, "1 = traced run: per-layer metrics, probes, span files")
		outDir    = flag.String("out", "bench/out", "directory for result and span files")
		list      = flag.Bool("list", false, "list the workloads")
		printSpec = flag.Bool("printspec", false, "print BENCHMARK.json")
		compare   = flag.Bool("compare", false, "compare two result sets: -compare old.json new.json")
		selfcheck = flag.Bool("selfcheck", false, "run two sets of every workload and compare them")
		smoke     = flag.Bool("smoke", false, "run every workload briefly and check every metric is emitted")
		update    = flag.Bool("update-golden", false, "city-*: rewrite golden/city-seed1.json from this run (seed 1)")
	)
	flag.Parse()
	o := options{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		warmup:  warmup,
		trace:   *trace != 0,
		outDir:  *outDir,
		setups:  3,

		updateGolden: *update,
	}
	var err error
	switch {
	case *list:
		for _, w := range workloads {
			fmt.Printf("%-14s %s\n", w.Name, w.Why)
		}
	case *printSpec:
		err = writeSpec(os.Stdout)
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("usage: -compare old.json new.json")
			break
		}
		err = runCompare(flag.Arg(0), flag.Arg(1))
	case *selfcheck:
		err = runSelfcheck(o)
	case *smoke:
		err = runSmoke(o)
	default:
		err = runWorkload(*name, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runWorkload runs one workload, prints every metric it produced and, as
// the last line of standard output, the contract's JSON object.
func runWorkload(name string, o options) error {
	r, err := measure(name, o)
	if err != nil {
		return err
	}
	printResult(r)
	path, err := writeResult(r, o.outDir)
	if err != nil {
		return err
	}
	fmt.Printf("result file: %s\n", path)
	metrics := r.contractMetrics()
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, max(r.Attempted, 1), r.Failed, metrics})
	if err != nil {
		return err
	}
	for _, p := range r.Problems {
		fmt.Fprintln(os.Stderr, "bench: check failed:", p)
	}
	fmt.Println(string(line))
	if !r.Correct || r.Failed > 0 {
		return fmt.Errorf("%s: correctness gate failed (%d of %d ops failed, %d checks)",
			name, r.Failed, r.Attempted, len(r.Problems))
	}
	return nil
}

// measure runs the named workload into a fresh result.
func measure(name string, o options) (*result, error) {
	w, ok := findWorkload(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (see -list)", name)
	}
	r := newResult(name, o)
	if err := w.run(o, r); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if o.trace {
		if err := runProbes(o, r); err != nil {
			return nil, fmt.Errorf("%s: probes: %w", name, err)
		}
	}
	r.setProcEnd()
	r.set("failed_ops_share", float64(r.Failed)/float64(max(r.Attempted, 1)))
	return r, nil
}

// printResult prints every metric by name with its unit, and every timing
// with its sample count.
func printResult(r *result) {
	fmt.Printf("workload %s seed %d traced %v: %d ops attempted, %d failed, correct %v\n",
		r.Workload, r.Seed, r.Traced, r.Attempted, r.Failed, r.Correct)
	fmt.Printf("  commit %s %s nproc %d GOMAXPROCS %d C %d measured %.1fs warm-up %.1fs\n",
		r.Env.Commit, r.Env.GoVersion, r.Env.NProc, r.Env.GOMAXPROCS, r.Env.Clients, r.Env.Seconds, r.Env.WarmupSec)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-40s %16.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	names = names[:0]
	for n := range r.Timings {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t := r.Timings[n]
		if t.N == 0 {
			continue
		}
		fmt.Printf("  timing %-12s n=%-8d p50 %12.0f ns  p%-5g %12.0f ns  mean %12.0f ns",
			n, t.N, t.P50, t.TailPct, t.Tail, t.Mean)
		if t.Every > 1 {
			fmt.Printf("  (one op in %d sampled)", t.Every)
		}
		fmt.Println()
	}
}

// writeResult writes the run's result file.
func writeResult(r *result, dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := r.Workload + ".json"
	if r.Traced {
		name = r.Workload + ".traced.json"
	}
	path := filepath.Join(dir, name)
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}

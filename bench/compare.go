package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// benchSpec is BENCHMARK.json. Its metric lists are generated from the
// tables in metrics.go so the file and the program cannot drift.
type benchSpec struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []workload  `json:"workloads"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

// runSeconds is how long the driver measures one run. With warm-up, three
// set-ups and teardown a run takes 26 to 30 s, and the driver's 92 runs
// (4 + 22 per workload) about 2600 of its 3420 s.
const runSeconds = 20

func currentSpec() benchSpec {
	return benchSpec{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}

func writeSpec(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(currentSpec())
}

// runRecord is one run as the set files keep it.
type runRecord struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Traced   bool               `json:"traced,omitempty"`
	Metrics  map[string]float64 `json:"metrics"`
}

// setFile holds one or more sets of runs of the same code (the checked-in
// baseline holds two per workload).
type setFile struct {
	Env  envInfo       `json:"env"`
	Sets [][]runRecord `json:"sets"`
}

// loadRuns reads a set file, or every *.json set file in a directory, and
// returns the untraced runs of all sets grouped by workload.
func loadRuns(path string) (map[string][]runRecord, error) {
	paths := []string{path}
	if st, err := os.Stat(path); err == nil && st.IsDir() {
		var err error
		if paths, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	out := make(map[string][]runRecord, len(workloads))
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var sf setFile
		if err := json.Unmarshal(b, &sf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		for _, set := range sf.Sets {
			for _, run := range set {
				if !run.Traced {
					out[run.Workload] = append(out[run.Workload], run)
				}
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return out, nil
}

// spread is the distance between the first and third quartile as a share
// of the median, with quartiles as Python's statistics.quantiles(v, n=4)
// (the exclusive method) gives them.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(c)+1) / 4
		j := min(max(int(pos), 1), len(c)-1)
		return c[j-1] + (pos-float64(j))*(c[j]-c[j-1])
	}
	med := medianOf(c)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / med
}

// Verdicts of one workload × metric comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"  // the new median is worse by more than the bound
	verdictUnresolved = "unresolved" // within the bound, but a side's spread is wider than the bound
)

// row is one line of the comparison.
type row struct {
	Workload, Metric  string
	Old, New          float64
	OldSpread, NewSpr float64
	Bound             float64
	WorseBy           float64 // share of the old median by which new is worse (negative = better)
	Verdict           string
}

// compareRuns applies the rule to every workload both sides have.
func compareRuns(old, cur map[string][]runRecord) []row {
	var rows []row
	for _, w := range workloads {
		o, n := old[w.Name], cur[w.Name]
		if len(o) == 0 || len(n) == 0 {
			continue
		}
		for _, d := range endToEnd {
			ov, nv := column(o, d.Name), column(n, d.Name)
			r := row{Workload: w.Name, Metric: d.Name, Old: medianOf(ov), New: medianOf(nv),
				OldSpread: spread(ov), NewSpr: spread(nv), Bound: d.Bound}
			if r.Old != 0 {
				r.WorseBy = (r.New - r.Old) / r.Old
				if d.Better == higher {
					r.WorseBy = -r.WorseBy
				}
			}
			switch {
			case r.WorseBy > d.Bound:
				r.Verdict = verdictRegressed
			case d.Name != "setup_s" && max(r.OldSpread, r.NewSpr) > d.Bound:
				// Set-up runs a few times per run, not thousands: its
				// spread is reported but, as in the driver, not held
				// to the bound.
				r.Verdict = verdictUnresolved
			default:
				r.Verdict = verdictOK
			}
			rows = append(rows, r)
		}
	}
	return rows
}

func column(runs []runRecord, metric string) []float64 {
	out := make([]float64, 0, len(runs))
	for _, r := range runs {
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v)
		}
	}
	return out
}

// printRows prints the comparison, every ratio with its base, and counts
// the verdicts.
func printRows(w io.Writer, rows []row) (regressed, unresolved int) {
	fmt.Fprintf(w, "%-13s %-14s %14s %14s  %-22s %8s %8s %6s  %s\n",
		"workload", "metric", "old median", "new median", "new/old", "old iqr", "new iqr", "bound", "verdict")
	for _, r := range rows {
		ratio := "n/a (old is 0)"
		if r.Old != 0 {
			ratio = fmt.Sprintf("%.3f of old %.4g", r.New/r.Old, r.Old)
		}
		fmt.Fprintf(w, "%-13s %-14s %14.4f %14.4f  %-22s %7.1f%% %7.1f%% %5.0f%%  %s\n",
			r.Workload, r.Metric, r.Old, r.New, ratio, 100*r.OldSpread, 100*r.NewSpr, 100*r.Bound, r.Verdict)
		switch r.Verdict {
		case verdictRegressed:
			regressed++
		case verdictUnresolved:
			unresolved++
		}
	}
	return regressed, unresolved
}

func runCompare(oldPath, newPath string) error {
	old, err := loadRuns(oldPath)
	if err != nil {
		return err
	}
	cur, err := loadRuns(newPath)
	if err != nil {
		return err
	}
	regressed, unresolved := printRows(os.Stdout, compareRuns(old, cur))
	fmt.Printf("%d regressed, %d unresolved\n", regressed, unresolved)
	if regressed > 0 {
		return fmt.Errorf("%d workload × metric pairs regressed beyond their bound", regressed)
	}
	return nil
}

// runChild runs one workload in a process of its own and parses the last
// line of its output.
func runChild(name string, o options, seed int64, trace bool) (runRecord, error) {
	exe, err := os.Executable()
	if err != nil {
		return runRecord{}, err
	}
	t := 0
	if trace {
		t = 1
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(o.seconds.Seconds()), "-trace", fmt.Sprint(t), "-out", o.outDir)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return runRecord{}, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			last = s
		}
	}
	var line struct {
		Correct bool             `json:"correct"`
		Metrics map[string]value `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		return runRecord{}, fmt.Errorf("%s seed %d: last line: %w", name, seed, err)
	}
	rec := runRecord{Workload: name, Seed: seed, Traced: trace, Metrics: make(map[string]float64, len(line.Metrics))}
	for k, v := range line.Metrics {
		rec.Metrics[k] = v.Value
	}
	return rec, nil
}

// selfcheckRuns is the number of untraced runs per workload per set: the
// ten the driver makes.
const selfcheckRuns = 10

// runSelfcheck runs two sets of every workload (selfcheckRuns untraced
// runs, each with another seed, plus one traced run) and applies the
// driver's rule: every spread except set-up's stays within its bound, and
// no median of the second set is worse than the first's by more than the
// bound. The two sets' runs alternate (run i of one set, then run i of the
// other, swapping which goes first), so that a spell of interference from
// outside lands on both sets and not on one. The sets land in
// <out>/selfcheck/<workload>.json, the baseline's format.
func runSelfcheck(o options) error {
	dir := filepath.Join(o.outDir, "selfcheck")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sets := [2]map[string][]runRecord{{}, {}}
	for _, w := range workloads {
		sf := setFile{Env: currentEnv(o), Sets: make([][]runRecord, 2)}
		run := func(s int, seed int64, trace bool) error {
			rec, err := runChild(w.Name, o, seed, trace)
			if err != nil {
				return err
			}
			sf.Sets[s] = append(sf.Sets[s], rec)
			if !trace {
				fmt.Printf("set %d %s seed %d: %v\n", s+1, w.Name, seed, rec.Metrics)
				sets[s][w.Name] = append(sets[s][w.Name], rec)
			}
			return nil
		}
		for i := 0; i <= selfcheckRuns; i++ {
			for k := 0; k < 2; k++ {
				s := (i + k) % 2
				seed, trace := int64(1+i+s*selfcheckRuns), false
				if i == selfcheckRuns { // the sets' traced runs come last
					seed, trace = int64(1+s), true
				}
				if err := run(s, seed, trace); err != nil {
					return err
				}
			}
		}
		b, err := json.MarshalIndent(sf, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, w.Name+".json"), append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	regressed, unresolved := printRows(os.Stdout, compareRuns(sets[0], sets[1]))
	fmt.Printf("selfcheck: %d regressed, %d unresolved\n", regressed, unresolved)
	if regressed+unresolved > 0 {
		return fmt.Errorf("two sets of the same code disagree: %d regressed, %d unresolved", regressed, unresolved)
	}
	return nil
}

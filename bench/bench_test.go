package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"perdnn/internal/obs/tracing"
	"perdnn/internal/raceguard"
)

func TestTailPercentile(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {9, 50}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := newSamples(2000)
	for i := 1000; i >= 1; i-- {
		s.add(int64(i))
	}
	got := s.summarize()
	if got.N != 1000 || got.P50 != 500 || got.TailPct != 99 || got.Tail != 990 || got.Mean != 500.5 {
		t.Errorf("summarize = %+v", got)
	}
	if beyond := 1000 - 990; beyond < 10 {
		t.Errorf("only %d samples beyond the tail", beyond)
	}
}

// TestQuietSlices pins what a run reports from its slices: a spell of
// interference that slows up to nine tenths of them does not move it.
func TestQuietSlices(t *testing.T) {
	if got := quantile([]float64{4, 1, 3, 2, 5}, 0.5); got != 3 {
		t.Errorf("quantile 0.5 = %v, want 3", got)
	}
	if got := quantile([]float64{10, 20}, 0.25); got != 12.5 {
		t.Errorf("quantile 0.25 = %v, want 12.5", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	costs, rates := make([]float64, 40), make([]float64, 40)
	for i := range costs {
		costs[i], rates[i] = 20, 1000
		if i < 34 { // a spell over 85 % of the window, half as fast
			costs[i], rates[i] = 40, 500
		}
	}
	if lo, hi := quietLow(costs), quietHigh(rates); lo != 20 || hi != 1000 {
		t.Errorf("quiet values %v and %v, want 20 and 1000", lo, hi)
	}
	// Chunks are cut in time order, each reduced to its median in us.
	v := make([]int64, 0, 80)
	for i := 0; i < 80; i++ {
		v = append(v, int64(1000*(1+i/2))) // 40 chunks of two equal samples
	}
	got := chunkMedians(v, 40)
	if len(got) != 40 || got[0] != 1 || got[39] != 40 {
		t.Errorf("chunkMedians = %v", got)
	}
	if got := chunkMedians(v[:7], 40); len(got) != 1 || got[0] != 2 {
		t.Errorf("chunkMedians of 7 samples = %v, want one chunk at 2", got)
	}
}

func TestSelfTime(t *testing.T) {
	iv := func(a, b int) interval { return interval{time.Duration(a), time.Duration(b)} }
	for _, c := range []struct {
		name     string
		span     interval
		children []interval
		want     time.Duration
	}{
		{"no children", iv(10, 110), nil, 100},
		{"one inside", iv(10, 110), []interval{iv(20, 50)}, 70},
		{"two disjoint", iv(0, 100), []interval{iv(10, 20), iv(60, 90)}, 60},
		{"overlapping count once", iv(0, 100), []interval{iv(10, 50), iv(30, 70)}, 40},
		{"nested child", iv(0, 100), []interval{iv(10, 90), iv(20, 30)}, 20},
		{"clipped to the span", iv(50, 100), []interval{iv(0, 60), iv(90, 200)}, 30},
		{"follows-from child outside", iv(0, 100), []interval{iv(100, 150)}, 100},
		{"fully covered", iv(0, 100), []interval{iv(0, 40), iv(40, 100)}, 0},
		{"unsorted", iv(0, 100), []interval{iv(60, 90), iv(10, 20)}, 60},
	} {
		if got := selfTime(c.span, c.children); got != c.want {
			t.Errorf("%s: selfTime = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestStitchAndBudget records one query the way the live path does (bench
// span around a client root whose children sit on an edge) and checks that
// stitching parents the root under the bench span and that the budget rows
// add up to the bench span.
func TestStitchAndBudget(t *testing.T) {
	tr := tracing.New()
	qt, root := tr.NewTrace(), tr.NewSpanID()
	tr.Record(qt, root, tracing.StageClientCompute, "client/1", 110, 120)
	tr.Record(qt, root, tracing.StageExecQueue, "server/0", 200, 230)
	tr.Record(qt, root, tracing.StageExecCompute, "server/0", 230, 300)
	tr.RecordWith(qt, root, 0, tracing.StageQuery, "client/1", 110, 400)
	tr.Record(tr.NewTrace(), 0, stageBenchQry, "bench/0", 100, 420)
	spans := tr.Spans()
	stitchBenchSpans(spans, 2)
	if err := tracing.Validate(spans); err != nil {
		t.Fatal(err)
	}
	bench, query := &spans[4], &spans[3]
	if query.Parent != bench.ID || bench.Trace != query.Trace {
		t.Fatalf("root %+v not stitched under %+v", query, bench)
	}
	ix := indexSpans(spans)
	if got := ix.selfOf(query); got != 290-10-30-70 {
		t.Errorf("wire self time = %v, want 180", got)
	}
	if got := ix.selfOf(bench); got != 320-290 {
		t.Errorf("bench self time = %v, want 30", got)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{3, 1, 4, 2, 5, 10, 9, 8, 7, 6}
	if got, want := spread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([10, 12, 11, 13], n=4) == [10.25, 11.5, 12.75]
	if got, want := spread([]float64{10, 12, 11, 13}), 2.5/11.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestCompareVerdicts(t *testing.T) {
	old, err := loadRuns("testdata/old.json")
	if err != nil {
		t.Fatal(err)
	}
	cur, err := loadRuns("testdata/new.json")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(old["live-steady"]); n != 6 {
		t.Fatalf("loaded %d old runs, want 6 (the traced run is skipped)", n)
	}
	want := map[string]string{
		"ops_per_s":     verdictOK,
		"op_p50_us":     verdictRegressed,
		"cpu_us_per_op": verdictUnresolved,
		"peak_rss_mb":   verdictOK,
		"setup_s":       verdictOK,
	}
	rows := compareRuns(old, cur)
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		if r.Verdict != want[r.Metric] {
			t.Errorf("%s: verdict %s, want %s (%+v)", r.Metric, r.Verdict, want[r.Metric], r)
		}
	}
	var out bytes.Buffer
	regressed, unresolved := printRows(&out, rows)
	if regressed != 1 || unresolved != 1 {
		t.Errorf("counted %d regressed, %d unresolved", regressed, unresolved)
	}
	// Every ratio is printed with its base.
	if !bytes.Contains(out.Bytes(), []byte("1.300 of old 24.05")) {
		t.Errorf("ratio without its base:\n%s", out.String())
	}
	if err := runCompare("testdata/old.json", "testdata/new.json"); err == nil {
		t.Error("runCompare accepted a regression")
	}
	if err := runCompare("testdata/old.json", "testdata/old.json"); err != nil {
		t.Errorf("runCompare of a set with itself: %v", err)
	}
}

// TestRecordingDoesNotAllocate keeps the driver's hot loop out of proc.*:
// what one measured op writes must not allocate.
func TestRecordingDoesNotAllocate(t *testing.T) {
	if raceguard.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	w := newWorker(0, options{seed: 1}, nil, nil, time.Second)
	w.from = time.Now().Add(-time.Hour)
	w.to = w.from.Add(2 * time.Hour)
	allocs := testing.AllocsPerRun(1000, func() {
		t0 := time.Now()
		s0 := w.tr.Now()
		w.span(stageBenchQry, s0)
		t1 := time.Now()
		if w.measured(t1) {
			w.query.add(int64(t1.Sub(t0)))
			w.queries++
		}
		w.opDone(t1, nil)
	})
	if allocs != 0 {
		t.Errorf("recording one op allocates %v times", allocs)
	}
	full := newSamples(4)
	if allocs := testing.AllocsPerRun(100, func() { full.add(1) }); allocs != 0 || full.thinned == 0 {
		t.Errorf("a full buffer allocates %v times, thinned %d times", allocs, full.thinned)
	}
}

// TestSamplesThin checks that a buffer that fills keeps an evenly spaced
// subset of the whole sequence, and that merging equalises the rates.
func TestSamplesThin(t *testing.T) {
	s := newSamples(4)
	for i := int64(1); i <= 21; i++ {
		s.add(i)
	}
	// 1..4, thinned to 2,4 at 5, then 6,8; thinned to 4,8 at 10, then 12,16;
	// thinned to 8,16 at 20.
	if got := s.summarize(); got.N != 2 || got.Every != 8 || s.v[0] != 8 || s.v[1] != 16 {
		t.Errorf("thinned buffer %v, summary %+v", s.v, got)
	}
	o := newSamples(8)
	for i := int64(1); i <= 8; i++ {
		o.add(i)
	}
	var all samples
	all.merge(&o)
	all.merge(&s)
	if all.thinned != 3 || len(all.v) != 3 || all.v[0] != 8 {
		t.Errorf("merged %v at thinning %d, want [8 8 16] at 3", all.v, all.thinned)
	}
}

// TestSpecMatchesBenchmarkJSON pins BENCHMARK.json to the tables in
// metrics.go and checks the contract's limits on it.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	var want bytes.Buffer
	if err := writeSpec(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("BENCHMARK.json differs from `bench -printspec`; regenerate it")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(got))
	}
	var spec benchSpec
	if err := json.Unmarshal(got, &spec); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, n string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q breaks the contract", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range spec.Workloads {
		check("workload", w.Name)
		if len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	setup := false
	for _, d := range spec.EndToEnd {
		check("end-to-end", d.Name)
		if !unit.MatchString(d.Unit) || d.Bound <= 0 || d.Bound > 0.25 || (d.Better != lower && d.Better != higher) {
			t.Errorf("end-to-end metric %+v breaks the contract", d)
		}
		setup = setup || d == metricDef{Name: "setup_s", Unit: "s", Better: lower, Bound: d.Bound}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range spec.PerLayer {
		check("per-layer", d.Name)
		if !unit.MatchString(d.Unit) || d.Bound != 0 || (d.Better != lower && d.Better != higher) {
			t.Errorf("per-layer metric %+v breaks the contract", d)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
}

// TestBypassTable checks the bypass prefixes name real metrics.
func TestBypassTable(t *testing.T) {
	for _, w := range workloads {
		for _, p := range bypassed[w.Name] {
			hit := false
			for _, d := range perLayer {
				hit = hit || isBypassed(w.Name, d.Name) && len(d.Name) >= len(p) && d.Name[:len(p)] == p
			}
			if !hit {
				t.Errorf("%s: bypass prefix %q matches no per-layer metric", w.Name, p)
			}
		}
	}
}

// TestSmoke runs every workload for a few hundred milliseconds, traced,
// and checks that every metric is emitted with its unit, that the gates
// pass and that every daemon, pool and client is closed again. Set-up alone
// (estimator training, dataset generation) makes it ~25 s, so it runs only
// when asked for: BENCH_SMOKE=1 go test -run TestSmoke .
func TestSmoke(t *testing.T) {
	if os.Getenv("BENCH_SMOKE") == "" {
		t.Skip("~25 s; set BENCH_SMOKE=1 to run it")
	}
	if err := runSmoke(options{seed: 1, outDir: t.TempDir(), setups: 1}); err != nil {
		t.Fatal(err)
	}
}

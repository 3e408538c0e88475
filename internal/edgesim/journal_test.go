package edgesim

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"time"

	"perdnn/internal/dnn"
	"perdnn/internal/obs/tracing"
)

// journalCfgs builds a small sweep whose runs record events; the PerDNN
// cells exercise migrations, partial hits, and plan reuse, the IONN cell
// cold starts.
func journalCfgs() []CityConfig {
	cfgs := []CityConfig{
		DefaultCityConfig(dnn.ModelMobileNet, ModeIONN, 0),
		DefaultCityConfig(dnn.ModelMobileNet, ModePerDNN, 50),
		DefaultCityConfig(dnn.ModelMobileNet, ModePerDNN, 100),
	}
	for i := range cfgs {
		cfgs[i].MaxSteps = 40
		cfgs[i].RecordEvents = true
	}
	return cfgs
}

// sweepJournal runs the sweep at the given worker count and serializes all
// journals as one JSONL stream in run order.
func sweepJournal(t *testing.T, env *Env, workers int) []byte {
	t.Helper()
	outs := RunSweepContext(context.Background(), SweepConfigs(env, journalCfgs()...), workers)
	if err := SweepErr(outs); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, o := range outs {
		if err := WriteEvents(&buf, o.Result.Events); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestSweepJournalDeterministic: the concatenated event journal of a sweep
// is byte-identical at every worker count — the acceptance contract behind
// perdnn-sim's -events export.
func TestSweepJournalDeterministic(t *testing.T) {
	env := smallEnv(t)
	seq := sweepJournal(t, env, 1)
	if len(seq) == 0 {
		t.Fatal("journal is empty; the sweep recorded no events")
	}
	par := sweepJournal(t, env, 8)
	if !bytes.Equal(seq, par) {
		t.Errorf("journals differ between workers=1 (%d bytes) and workers=8 (%d bytes)",
			len(seq), len(par))
	}
	// Journals off by default: no events, and the metrics snapshot is still
	// populated.
	cfg := journalCfgs()[1]
	cfg.RecordEvents = false
	res, err := RunCity(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != nil {
		t.Errorf("RecordEvents=false produced %d events", len(res.Events))
	}
	if res.Metrics.Counters["queries_total"] != int64(res.TotalQueries) {
		t.Errorf("metrics queries_total = %d, result TotalQueries = %d",
			res.Metrics.Counters["queries_total"], res.TotalQueries)
	}
}

// TestWriteEventsDeterministic: identical event slices serialize to
// byte-identical JSONL, one object per line in the event schema, server
// 0 included.
func TestWriteEventsDeterministic(t *testing.T) {
	tr := tracing.New()
	tr.RecordAttrs(1, 0, tracing.StageHandoff, "client/3", time.Second, time.Second, tracing.NewAttrs(3, -1, 0, 0, 0))
	tr.RecordAttrs(2, 0, tracing.StageMigrationOrdered, "server/0", 2*time.Second, 2*time.Second,
		tracing.NewAttrs(3, 0, 7, 12, 1<<20))
	events := decisionEvents(tr.Spans())
	for i := range events {
		events[i] = events[i].WithRun("a")
	}
	var b1, b2 bytes.Buffer
	if err := WriteEvents(&b1, events); err != nil {
		t.Fatal(err)
	}
	if err := WriteEvents(&b2, events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("identical slices serialized differently")
	}
	want := `{"t_ns":1000000000,"type":"handoff","run":"a","client":3,"server":-1,"target":0}` + "\n" +
		`{"t_ns":2000000000,"type":"migration_ordered","run":"a","client":3,"server":0,"target":7,"layers":12,"bytes":1048576}` + "\n"
	if got := b1.String(); got != want {
		t.Errorf("journal\n%s\nwant\n%s", got, want)
	}
}

// TestEventJournalNilSafe: a run that records no events has a nil journal,
// which serializes to nothing, labeled or not.
func TestEventJournalNilSafe(t *testing.T) {
	journal := decisionEvents(nil)
	if journal != nil {
		t.Fatalf("empty projection = %v, want nil", journal)
	}
	var buf bytes.Buffer
	if err := WriteEvents(&buf, journal); err != nil {
		t.Fatal(err)
	}
	for i := range journal {
		journal[i] = journal[i].WithRun("a")
	}
	if err := WriteEvents(&buf, journal); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("nil journal wrote %q", buf.String())
	}
}

// TestEachFactRecordedOnce: a decision is one record. Every projected
// event is exactly one instant span of the same time, stage and
// attributes; the per-stage counts equal the run's counters; and a run
// that records only events records nothing but decision instants.
func TestEachFactRecordedOnce(t *testing.T) {
	env := smallEnv(t)
	type fact struct {
		t     time.Duration
		stage tracing.Stage
		a     tracing.Attrs
	}
	counters := map[tracing.Stage]string{
		tracing.StageHandoff:            "connections_total",
		tracing.StageColdStart:          "cache_misses_total",
		tracing.StagePartialHit:         "cache_partials_total",
		tracing.StagePlanCacheMiss:      "plan_cache_local_misses_total",
		tracing.StageMigrationOrdered:   "migrations_ordered_total",
		tracing.StageMigrationCompleted: "migrations_completed_total",
		tracing.StageFractionTruncated:  "migrations_truncated_total",
		tracing.StageServerDown:         "server_downs_total",
		tracing.StageFailover:           "failovers_total",
		tracing.StageLocalFallback:      "local_fallbacks_total",
	}
	for _, shards := range []int{1, 4} {
		cfg := faultyCfg()
		cfg.RecordSpans = true
		cfg.Shards = shards
		res, err := RunCity(env, cfg)
		if err != nil {
			t.Fatal(err)
		}
		instants := map[fact]int{}
		for _, s := range res.Spans {
			if isDecision(s.Stage) {
				if s.End != s.Start {
					t.Errorf("shards=%d: decision %s spans [%v, %v], want an instant", shards, s.Stage, s.Start, s.End)
				}
				instants[fact{s.Start, s.Stage, s.Attrs}]++
			}
		}
		events := map[fact]int{}
		perStage := map[tracing.Stage]int64{}
		for _, e := range res.Events {
			events[fact{e.Start, e.Stage, e.Attrs}]++
			perStage[e.Stage]++
		}
		if !reflect.DeepEqual(events, instants) {
			t.Errorf("shards=%d: %d distinct events do not match %d distinct decision instants one to one",
				shards, len(events), len(instants))
		}
		for stage, name := range counters {
			if got, want := perStage[stage], res.Metrics.Counters[name]; got != want {
				t.Errorf("shards=%d: %d %s events, %s = %d", shards, got, stage, name, want)
			}
		}
		for _, stage := range []tracing.Stage{tracing.StageFailover, tracing.StageLocalFallback,
			tracing.StageMigrationOrdered, tracing.StageServerDown, tracing.StageColdStart} {
			if perStage[stage] == 0 {
				t.Errorf("shards=%d: no %s events; the faulty cell no longer exercises that path", shards, stage)
			}
		}
	}

	// Events alone: the run's one recorder holds decision instants only.
	w, steps, err := newWorld(env, faultyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.runShards(t.Context(), steps); err != nil {
		t.Fatal(err)
	}
	recs := w.decisions.Spans()
	if len(recs) == 0 {
		t.Fatal("RecordEvents run recorded nothing")
	}
	for _, s := range recs {
		if !isDecision(s.Stage) {
			t.Fatalf("RecordEvents alone recorded a %s span", s.Stage)
		}
	}
}

package edgesim

import (
	"bytes"
	"context"
	"testing"

	"perdnn/internal/dnn"
	"perdnn/internal/obs"
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
		if err := obs.WriteJSONL(&buf, o.Result.Events); err != nil {
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

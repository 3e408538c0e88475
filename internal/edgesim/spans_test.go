package edgesim

import (
	"bytes"
	"context"
	"testing"

	"perdnn/internal/dnn"
	"perdnn/internal/obs/tracing"
)

// spanCfgs builds a small fault-injected sweep whose runs record spans:
// the faulty PerDNN cell exercises migrations, failovers, and local
// fallbacks; the clean cells cover upload handoffs and plan reuse.
func spanCfgs() []CityConfig {
	cfgs := []CityConfig{
		faultyCfg(),
		DefaultCityConfig(dnn.ModelMobileNet, ModeIONN, 0),
		DefaultCityConfig(dnn.ModelMobileNet, ModePerDNN, 50),
	}
	for i := range cfgs {
		cfgs[i].MaxSteps = 40
		cfgs[i].RecordSpans = true
	}
	return cfgs
}

// sweepSpans runs the sweep at the given worker count and serializes all
// span buffers as one JSONL stream in run order.
func sweepSpans(t *testing.T, env *Env, workers int) []byte {
	t.Helper()
	outs := RunSweepContext(context.Background(), SweepConfigs(env, spanCfgs()...), workers)
	if err := SweepErr(outs); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, o := range outs {
		if err := tracing.WriteJSONL(&buf, o.Result.Spans); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestSweepSpanJournalDeterministic: the concatenated span journal of a
// fault-injected sweep is byte-identical at every worker count — the
// acceptance contract behind perdnn-sim's -spans/-trace exports.
func TestSweepSpanJournalDeterministic(t *testing.T) {
	env := smallEnv(t)
	seq := sweepSpans(t, env, 1)
	if len(seq) == 0 {
		t.Fatal("span journal is empty; the sweep recorded no spans")
	}
	for _, workers := range []int{2, 8} {
		par := sweepSpans(t, env, workers)
		if !bytes.Equal(seq, par) {
			t.Errorf("span journals differ between workers=1 (%d bytes) and workers=%d (%d bytes)",
				len(seq), workers, len(par))
		}
	}
	// Spans off by default: RecordSpans=false leaves Spans nil.
	cfg := spanCfgs()[0]
	cfg.RecordSpans = false
	res, err := RunCity(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Spans != nil {
		t.Errorf("RecordSpans=false produced %d spans", len(res.Spans))
	}
}

// TestSpansNestAndTileLatency: every recorded span buffer passes
// tracing.Validate, and for each query trace the child stage durations
// sum exactly to the root query span's end-to-end duration — the
// engine's callback chain is sequential with no gaps.
func TestSpansNestAndTileLatency(t *testing.T) {
	env := smallEnv(t)
	res, err := RunCity(env, spanCfgs()[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := tracing.Validate(res.Spans); err != nil {
		t.Fatalf("span buffer invalid: %v", err)
	}
	type agg struct {
		root     *tracing.Span
		children int64 // summed child durations, ns
	}
	traces := make(map[tracing.TraceID]*agg)
	for i := range res.Spans {
		sp := &res.Spans[i]
		a := traces[sp.Trace]
		if a == nil {
			a = &agg{}
			traces[sp.Trace] = a
		}
		if sp.Stage == tracing.StageQuery {
			a.root = sp
		} else if sp.Parent != 0 {
			a.children += int64(sp.Duration())
		}
	}
	queries := 0
	for id, a := range traces {
		if a.root == nil {
			continue // plan, migration and decision-instant traces
		}
		queries++
		if got, want := a.children, int64(a.root.Duration()); got != want {
			t.Errorf("trace %d: child stage durations sum to %dns, root query span is %dns",
				id, got, want)
		}
	}
	if queries == 0 {
		t.Fatal("run recorded no query traces")
	}
	if queries != res.TotalQueries {
		t.Errorf("recorded %d query traces, result reports %d queries", queries, res.TotalQueries)
	}
}

package edgesim

import (
	"context"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"perdnn/internal/dnn"
	"perdnn/internal/obs/tracing"
)

// referenceCanonicalSpans is the general canonicalizer canonicalSpans
// replaced, kept as its specification: it groups spans by trace in a
// map, sorts each trace by spanCmp and the traces by traceCmp, and
// renumbers trace and span IDs sequentially in that order through a
// per-trace ID map (a parent never recorded maps to 0). It assumes
// nothing about the trace shape or the range of the trace IDs, and
// leaves its input as it was.
func referenceCanonicalSpans(spans []tracing.Span) []tracing.Span {
	if len(spans) == 0 {
		return spans
	}
	groups := make(map[tracing.TraceID][]tracing.Span, len(spans)/2+1)
	for _, s := range spans {
		groups[s.Trace] = append(groups[s.Trace], s)
	}
	traces := make([][]tracing.Span, 0, len(groups))
	for _, g := range groups {
		sort.Slice(g, func(i, j int) bool { return spanCmp(&g[i], &g[j]) < 0 })
		traces = append(traces, g)
	}
	sort.Slice(traces, func(i, j int) bool { return traceCmp(traces[i], traces[j]) < 0 })

	out := make([]tracing.Span, 0, len(spans))
	ids := make(map[tracing.SpanID]tracing.SpanID)
	var nextSpan uint64
	for ti, g := range traces {
		clear(ids)
		for i := range g {
			nextSpan++
			ids[g[i].ID] = tracing.SpanID(nextSpan)
		}
		for _, s := range g {
			s.Trace = tracing.TraceID(ti + 1)
			s.ID = ids[s.ID]
			if p, ok := ids[s.Parent]; ok {
				s.Parent = p
			} else {
				s.Parent = 0
			}
			out = append(out, s)
		}
	}
	return out
}

// recordedSpans runs cfg and returns its records as the tracer holds
// them, before canonicalization: in record order, with the IDs the
// schedule allocated.
func recordedSpans(t *testing.T, cfg CityConfig) []tracing.Span {
	t.Helper()
	w, steps, err := newWorld(smallEnv(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	if err := w.runShards(ctx, steps); err != nil {
		t.Fatal(err)
	}
	return w.decisions.Spans()
}

// reschedule returns a copy of recs as another schedule could have
// recorded it: the records shuffled, the trace IDs permuted within 1..T
// and the span IDs permuted, parent links following their spans.
func reschedule(recs []tracing.Span, seed int64) []tracing.Span {
	rng := rand.New(rand.NewSource(seed))
	out := slices.Clone(recs)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	var lastTrace tracing.TraceID
	ids := make([]tracing.SpanID, 0, len(out))
	for i := range out {
		lastTrace = max(lastTrace, out[i].Trace)
		ids = append(ids, out[i].ID)
	}
	traceTo := rng.Perm(int(lastTrace))
	perm := rng.Perm(len(ids))
	idTo := make(map[tracing.SpanID]tracing.SpanID, len(ids))
	for i, id := range ids {
		idTo[id] = ids[perm[i]]
	}
	for i := range out {
		s := &out[i]
		s.Trace = tracing.TraceID(traceTo[s.Trace-1] + 1)
		s.ID = idTo[s.ID]
		if p, ok := idTo[s.Parent]; ok {
			s.Parent = p
		}
	}
	return out
}

// TestCanonicalSpansMatchesReference: the shape-based canonicalizer
// rebuilds the general one's journal span for span, on a faulty 4-shard
// traced run's records and on a rescheduled copy of them.
func TestCanonicalSpansMatchesReference(t *testing.T) {
	cfg := shardCfg(true)
	cfg.Shards = 4
	recs := recordedSpans(t, cfg)
	want := referenceCanonicalSpans(recs)
	if len(want) != len(recs) || len(want) < 1000 {
		t.Fatalf("reference journal holds %d of %d records", len(want), len(recs))
	}
	for name, in := range map[string][]tracing.Span{
		"recorded":    slices.Clone(recs),
		"rescheduled": reschedule(recs, 3),
	} {
		got := canonicalSpans(in)
		if len(got) != len(want) {
			t.Fatalf("%s: %d spans, reference %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: span %d is %+v, reference %+v", name, i, got[i], want[i])
			}
		}
	}
}

// TestTraceShapeIsRootAndChildren pins the shape canonicalSpans relies
// on: in every simulated trace at most one span is a root, and every
// other span's parent is that root — or, when the root was never
// recorded, one and the same unrecorded span.
func TestTraceShapeIsRootAndChildren(t *testing.T) {
	faulty := shardCfg(true)
	faulty.Shards = 4
	routing := DefaultCityConfig(dnn.ModelInception, ModeRouting, 0)
	routing.MaxSteps = 40
	routing.RecordSpans = true
	cfgs := append(spanCfgs(), faulty, routing)
	var traces, children, rootless int
	for ci, cfg := range cfgs {
		type shape struct {
			root, parent tracing.SpanID // the root's ID; the children's parent
			roots        int
		}
		byTrace := make(map[tracing.TraceID]*shape)
		recorded := make(map[tracing.SpanID]bool)
		recs := recordedSpans(t, cfg)
		for i := range recs {
			s := &recs[i]
			recorded[s.ID] = true
			sh := byTrace[s.Trace]
			if sh == nil {
				sh = new(shape)
				byTrace[s.Trace] = sh
			}
			if s.Parent == 0 {
				sh.roots++
				sh.root = s.ID
				continue
			}
			children++
			if sh.parent != 0 && sh.parent != s.Parent {
				t.Fatalf("config %d: trace %d has children of spans %d and %d", ci, s.Trace, sh.parent, s.Parent)
			}
			sh.parent = s.Parent
		}
		for id, sh := range byTrace {
			switch {
			case sh.roots > 1:
				t.Fatalf("config %d: trace %d has %d roots", ci, id, sh.roots)
			case sh.roots == 1 && sh.parent != 0 && sh.parent != sh.root:
				t.Fatalf("config %d: trace %d: a child's parent %d is not the root %d", ci, id, sh.parent, sh.root)
			case sh.roots == 0 && recorded[sh.parent]:
				t.Fatalf("config %d: rootless trace %d nests under recorded span %d", ci, id, sh.parent)
			case sh.roots == 0:
				rootless++
			}
		}
		traces += len(byTrace)
	}
	if children == 0 || rootless == 0 {
		t.Fatalf("%d traces, %d children, %d rootless: the runs reach neither nesting nor a cut-off query",
			traces, children, rootless)
	}
}

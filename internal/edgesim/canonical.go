package edgesim

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"perdnn/internal/obs/tracing"
)

// This file defines the canonical order of a run's journals: the merge
// rule that makes sharded output byte-identical to unsharded output.
//
// A run records every fact once, as a span into one tracer: the query
// stages, the plan and upload spans, and the decision instants (handoffs,
// cache hits and misses, migrations, outages, failovers). A sharded run
// records them from several engines interleaved, so record order (and the
// tracer's allocation order for trace/span IDs) depends on goroutine
// scheduling. What does NOT depend on scheduling is the content: the
// barrier protocol makes every span's fields — virtual timestamps and
// attributes included — a pure function of the configuration.
// Canonicalization therefore discards order and identity and rebuilds both
// from content: traces are re-ordered by their span content with trace/span
// IDs renumbered sequentially in that order (parent links remapped), and
// the event journal is the decision instants stripped of identity and
// sorted by the same span comparator. Applying the same pass to the
// single-shard run yields the same bytes.

// isDecision reports whether a stage is one of the simulator's decision
// instants: the facts the -events journal lists.
func isDecision(s tracing.Stage) bool {
	switch s {
	case tracing.StageHandoff, tracing.StageColdStart, tracing.StagePartialHit,
		tracing.StagePlanCacheMiss, tracing.StageMigrationOrdered,
		tracing.StageMigrationCompleted, tracing.StageFractionTruncated,
		tracing.StageServerDown, tracing.StageServerUp,
		tracing.StageFailover, tracing.StageLocalFallback:
		return true
	}
	return false
}

// decisionEvents projects a run's records onto its event journal: the
// decision instants, without the trace, span, parent and track the journal
// does not name, sorted by spanCmp — for them (time, stage, attributes,
// run). Any two runs holding the same multiset of decisions yield the same
// journal.
func decisionEvents(recs []tracing.Span) []tracing.Span {
	var out []tracing.Span
	for _, s := range recs {
		if !isDecision(s.Stage) {
			continue
		}
		s.Trace, s.ID, s.Parent, s.Node = 0, 0, 0, ""
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return spanCmp(&out[i], &out[j]) < 0 })
	return out
}

// eventLine is one line of the -events journal. Server and Target always
// serialize, -1 meaning none, since 0 is a valid server; Client, Layers
// and Bytes are omitted when zero.
type eventLine struct {
	T      time.Duration `json:"t_ns"`
	Type   tracing.Stage `json:"type"`
	Run    string        `json:"run,omitempty"`
	Client int           `json:"client,omitempty"`
	Server int           `json:"server"`
	Target int           `json:"target"`
	Layers int           `json:"layers,omitempty"`
	Bytes  int64         `json:"bytes,omitempty"`
}

// WriteEvents writes an event journal (CityResult.Events) as JSONL: one
// compact object per decision instant, in slice order, its type the
// instant's stage. Identical slices produce byte-identical output.
func WriteEvents(w io.Writer, events []tracing.Span) error {
	enc := json.NewEncoder(w)
	for i := range events {
		e, a := &events[i], &events[i].Attrs
		if err := enc.Encode(eventLine{e.Start, e.Stage, e.Run, a.Client, a.Server, a.Target, a.Layers, a.Bytes}); err != nil {
			return fmt.Errorf("edgesim: encoding event %d: %w", i, err)
		}
	}
	return nil
}

// canonicalSpans rewrites a span journal into canonical order: spans are
// grouped by trace, each trace's spans are sorted root-first then by
// content, traces are ordered by comparing their sorted span sequences,
// and trace/span IDs are renumbered sequentially in that order with
// parent links remapped (a parent that was never recorded — e.g. a query
// still in flight at the end of the run — maps to 0). The rewrite uses no
// part of the original IDs except the grouping and the parent structure,
// so journals recorded under different schedules but with the same span
// content serialize identically.
func canonicalSpans(spans []tracing.Span) []tracing.Span {
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

// spanCmp orders spans by content only — never by recorded IDs, which
// depend on scheduling. Roots (spans recorded without a parent) sort
// before children so a trace always leads with its root. The attributes
// break ties between instants that share time, stage and track, such as
// two migrations ordered from one server at one tick.
func spanCmp(a, b *tracing.Span) int {
	ar, br := 0, 0
	if a.Parent != 0 {
		ar = 1
	}
	if b.Parent != 0 {
		br = 1
	}
	switch {
	case ar != br:
		return ar - br
	case a.Start != b.Start:
		return cmp.Compare(a.Start, b.Start)
	case a.End != b.End:
		return cmp.Compare(a.End, b.End)
	case a.Stage != b.Stage:
		return cmp.Compare(a.Stage, b.Stage)
	case a.Node != b.Node:
		return cmp.Compare(a.Node, b.Node)
	case a.Attrs != b.Attrs:
		return attrCmp(&a.Attrs, &b.Attrs)
	default:
		return cmp.Compare(a.Run, b.Run)
	}
}

// attrCmp orders attribute blocks field by field, in serialization order.
func attrCmp(a, b *tracing.Attrs) int {
	switch {
	case a.Client != b.Client:
		return cmp.Compare(a.Client, b.Client)
	case a.Server != b.Server:
		return cmp.Compare(a.Server, b.Server)
	case a.Target != b.Target:
		return cmp.Compare(a.Target, b.Target)
	case a.Layers != b.Layers:
		return cmp.Compare(a.Layers, b.Layers)
	case a.Bytes != b.Bytes:
		return cmp.Compare(a.Bytes, b.Bytes)
	case a.Hops != b.Hops:
		return cmp.Compare(a.Hops, b.Hops)
	default:
		return cmp.Compare(a.EstLatency, b.EstLatency)
	}
}

// traceCmp orders traces by comparing their sorted span sequences
// lexicographically. Traces with identical content compare equal and are
// interchangeable, so their relative order cannot affect the output.
func traceCmp(a, b []tracing.Span) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if c := spanCmp(&a[i], &b[i]); c != 0 {
			return c
		}
	}
	return len(a) - len(b)
}

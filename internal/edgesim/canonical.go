package edgesim

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
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
//
// Canonical identity follows from the trace shape: every simulated trace
// is one root and its direct children (a query and its stages, a plan and
// its upload units, a migration order and its completion, or a lone
// decision instant). The recorded IDs therefore carry nothing but the
// grouping and the roots; traces and spans are ordered by content and
// numbered by position. The event journal is the decision instants
// stripped of identity and sorted by the same span comparator. Applying
// the same pass to the single-shard run yields the same bytes.

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
	slices.SortFunc(out, spanOrder)
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

// canonicalSpans rewrites a run's records in place into canonical order
// and returns them: grouped by a counting sort on the trace ID (1..T, from
// the run's one tracer), each trace sorted by spanCmp, root first, and the
// traces by traceCmp. A span's ID becomes its output position from 1, a
// trace's its rank, and a child's parent its root's new ID (0 when the
// root was never recorded: a query the run's end cut off).
func canonicalSpans(spans []tracing.Span) []tracing.Span {
	var last tracing.TraceID
	for i := range spans {
		last = max(last, spans[i].Trace)
	}
	// end[t] counts trace t-1's spans, then (prefix-summed) is where trace
	// t begins in grouped, and after the scatter where it ends.
	end := make([]int, last+2)
	for i := range spans {
		end[spans[i].Trace+1]++
	}
	for t := 1; t < len(end); t++ {
		end[t] += end[t-1]
	}
	grouped := make([]tracing.Span, len(spans))
	for i := range spans {
		t := spans[i].Trace
		grouped[end[t]] = spans[i]
		end[t]++
	}
	traces := make([][]tracing.Span, 0, last+1)
	lo := 0
	for _, hi := range end[:last+1] {
		if hi > lo {
			g := grouped[lo:hi]
			slices.SortFunc(g, spanOrder)
			traces = append(traces, g)
		}
		lo = hi
	}
	slices.SortFunc(traces, traceCmp)

	out := spans[:0]
	for ti, g := range traces {
		var root tracing.SpanID
		if g[0].Parent == 0 {
			root = tracing.SpanID(len(out) + 1)
		}
		for _, s := range g {
			s.Trace, s.ID = tracing.TraceID(ti+1), tracing.SpanID(len(out)+1)
			if s.Parent != 0 {
				s.Parent = root
			}
			out = append(out, s)
		}
	}
	return out
}

// spanOrder is spanCmp for slices.SortFunc.
func spanOrder(a, b tracing.Span) int { return spanCmp(&a, &b) }

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

// Package tracing stubs perdnn/internal/obs/tracing for analyzer
// fixtures: same import path, same span surface, none of the real
// machinery.
package tracing

import "time"

type TraceID uint64

type SpanID uint64

type Stage string

type Attrs struct {
	Client     int
	Server     int
	Target     int
	Layers     int
	Bytes      int64
	Hops       int
	EstLatency time.Duration
}

func NewAttrs(client, server, target, layers int, bytes int64) Attrs {
	return Attrs{Client: client, Server: server, Target: target, Layers: layers, Bytes: bytes}
}

func (a Attrs) WithEstimate(hops int, est time.Duration) Attrs {
	a.Hops, a.EstLatency = hops, est
	return a
}

type Span struct {
	Trace  TraceID
	ID     SpanID
	Parent SpanID
	Stage  Stage
	Node   string
	Start  time.Duration
	End    time.Duration
	Run    string
	Attrs  Attrs
}

func (s Span) WithRun(run string) Span {
	s.Run = run
	return s
}

type Tracer struct {
	next  uint64
	spans []Span
}

func (t *Tracer) NewTrace() TraceID {
	t.next++
	return TraceID(t.next)
}

func (t *Tracer) Record(trace TraceID, parent SpanID, stage Stage, node string, start, end time.Duration) SpanID {
	return t.RecordAttrs(trace, parent, stage, node, start, end, Attrs{})
}

func (t *Tracer) RecordAttrs(trace TraceID, parent SpanID, stage Stage, node string, start, end time.Duration, a Attrs) SpanID {
	t.next++
	id := SpanID(t.next)
	t.spans = append(t.spans, Span{Trace: trace, ID: id, Parent: parent, Stage: stage, Node: node, Start: start, End: end, Attrs: a})
	return id
}

func (t *Tracer) RecordWith(trace TraceID, id, parent SpanID, stage Stage, node string, start, end time.Duration) {
	t.spans = append(t.spans, Span{Trace: trace, ID: id, Parent: parent, Stage: stage, Node: node, Start: start, End: end})
}

func (t *Tracer) Spans() []Span { return t.spans }

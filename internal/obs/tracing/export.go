package tracing

import (
	"encoding/json"
	"fmt"
	"io"
)

// WriteJSONL writes spans as JSONL: one compact JSON object per line, in
// slice order. Field order is fixed by the Span struct, so identical span
// slices produce byte-identical output — the property the sweep
// determinism tests assert.
func WriteJSONL(w io.Writer, spans []Span) error {
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return fmt.Errorf("tracing: encoding span %d: %w", i, err)
		}
	}
	return nil
}

// ReadJSONL parses a span journal written by WriteJSONL.
func ReadJSONL(r io.Reader) ([]Span, error) {
	dec := json.NewDecoder(r)
	var spans []Span
	for i := 0; ; i++ {
		var s Span
		if err := dec.Decode(&s); err == io.EOF {
			return spans, nil
		} else if err != nil {
			return nil, fmt.Errorf("tracing: decoding span %d: %w", i, err)
		}
		spans = append(spans, s)
	}
}

// perfettoEvent is one Chrome trace_event / Perfetto JSON object. Field
// order is fixed so exports are byte-identical for identical span slices.
type perfettoEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat,omitempty"`
	Ph   string  `json:"ph"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur,omitempty"`
	// S scopes instant events ("t" = thread).
	S string `json:"s,omitempty"`
	// ID pairs flow-start and flow-finish events.
	ID int `json:"id,omitempty"`
	// BP binds a flow finish to the enclosing slice.
	BP   string        `json:"bp,omitempty"`
	Args *perfettoArgs `json:"args,omitempty"`
}

// perfettoArgs carries span identity and attributes (and track names for
// metadata events) into the Perfetto UI's detail panel.
type perfettoArgs struct {
	Name   string  `json:"name,omitempty"`
	Trace  TraceID `json:"trace,omitempty"`
	Span   SpanID  `json:"span,omitempty"`
	Parent SpanID  `json:"parent,omitempty"`
	Run    string  `json:"run,omitempty"`
	*Attrs
}

// perfettoFile is the outer trace_event JSON object.
type perfettoFile struct {
	TraceEvents []perfettoEvent `json:"traceEvents"`
}

// usec converts a span timestamp (nanoseconds) to trace_event
// microseconds.
func usec(ns int64) float64 { return float64(ns) / 1e3 }

// WritePerfetto writes spans as a Chrome trace_event JSON file loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing. Every distinct run
// label becomes a named process and every node within it a named thread
// track (both in first-appearance order), so sweep exports that
// concatenate per-run journals — whose virtual clocks all start at zero —
// do not overlap on shared tracks. Spans with duration become complete
// events, zero-duration spans (migrations, failovers) become
// thread-scoped instant events, and cross-node parent links are drawn as
// flow arrows from the parent's track to the child's.
func WritePerfetto(w io.Writer, spans []Span) error {
	type track struct{ run, node string }
	pids := map[string]int{}
	tids := map[track]int{}
	var runOrder []string
	var trackOrder []track
	for i := range spans {
		s := &spans[i]
		if _, ok := pids[s.Run]; !ok {
			pids[s.Run] = len(runOrder) + 1
			runOrder = append(runOrder, s.Run)
		}
		k := track{s.Run, s.Node}
		if _, ok := tids[k]; !ok {
			tids[k] = len(trackOrder) + 1
			trackOrder = append(trackOrder, k)
		}
	}

	events := make([]perfettoEvent, 0, len(spans)+len(trackOrder)+len(runOrder))
	for _, run := range runOrder {
		if run == "" {
			continue // unlabeled single-run export; the default name is fine
		}
		events = append(events, perfettoEvent{
			Name: "process_name",
			Ph:   "M",
			Pid:  pids[run],
			Args: &perfettoArgs{Name: run},
		})
	}
	for _, k := range trackOrder {
		events = append(events, perfettoEvent{
			Name: "thread_name",
			Ph:   "M",
			Pid:  pids[k.run],
			Tid:  tids[k],
			Args: &perfettoArgs{Name: k.node},
		})
	}

	// Index spans by (run, trace, id) to resolve cross-node parent links.
	type key struct {
		run   string
		trace TraceID
		id    SpanID
	}
	byID := make(map[key]*Span, len(spans))
	for i := range spans {
		s := &spans[i]
		byID[key{s.Run, s.Trace, s.ID}] = s
	}

	flowID := 0
	for i := range spans {
		s := &spans[i]
		pid := pids[s.Run]
		tid := tids[track{s.Run, s.Node}]
		args := &perfettoArgs{Trace: s.Trace, Span: s.ID, Parent: s.Parent, Run: s.Run}
		if s.Attrs != (Attrs{}) {
			args.Attrs = &s.Attrs
		}
		if s.End == s.Start {
			events = append(events, perfettoEvent{
				Name: string(s.Stage), Ph: "i", Pid: pid, Tid: tid,
				Ts: usec(int64(s.Start)), S: "t", Args: args,
			})
		} else {
			events = append(events, perfettoEvent{
				Name: string(s.Stage), Ph: "X", Pid: pid, Tid: tid,
				Ts: usec(int64(s.Start)), Dur: usec(int64(s.End - s.Start)), Args: args,
			})
		}
		if s.Parent == 0 {
			continue
		}
		parent, ok := byID[key{s.Run, s.Trace, s.Parent}]
		if !ok || parent.Node == s.Node {
			continue
		}
		flowID++
		events = append(events,
			perfettoEvent{
				Name: "parent", Cat: "flow", Ph: "s", Pid: pid, Tid: tids[track{s.Run, parent.Node}],
				Ts: usec(int64(parent.Start)), ID: flowID,
			},
			perfettoEvent{
				Name: "parent", Cat: "flow", Ph: "f", Pid: pid, Tid: tid,
				Ts: usec(int64(s.Start)), ID: flowID, BP: "e",
			})
	}

	enc := json.NewEncoder(w)
	if err := enc.Encode(&perfettoFile{TraceEvents: events}); err != nil {
		return fmt.Errorf("tracing: encoding perfetto trace: %w", err)
	}
	return nil
}

// Validate checks the structural invariants of a span journal: every span
// has End >= Start, span IDs are unique within their (run, trace), and
// whenever a span's parent is present in the journal, either the parent's
// interval contains the child's, or the child begins at or after the
// parent's end — a follows-from continuation, such as upload units
// scheduled by a completed plan fetch, or a child of an instant parent
// (a migration order, a failover). A child that straddles its parent's
// end, or starts before its parent, is invalid. Parents missing from the
// journal are tolerated — a single daemon's export holds only its own
// half of a cross-node trace.
func Validate(spans []Span) error {
	type key struct {
		run   string
		trace TraceID
		id    SpanID
	}
	byID := make(map[key]*Span, len(spans))
	for i := range spans {
		s := &spans[i]
		if s.End < s.Start {
			return fmt.Errorf("tracing: span %d/%d (%s) ends before it starts: [%v, %v]",
				s.Trace, s.ID, s.Stage, s.Start, s.End)
		}
		if s.ID == 0 {
			return fmt.Errorf("tracing: span in trace %d (%s) has ID 0", s.Trace, s.Stage)
		}
		k := key{s.Run, s.Trace, s.ID}
		if _, dup := byID[k]; dup {
			return fmt.Errorf("tracing: duplicate span ID %d/%d (run %q)", s.Trace, s.ID, s.Run)
		}
		byID[k] = s
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[key{s.Run, s.Trace, s.Parent}]
		if !ok {
			continue // remote parent: recorded by another node's tracer
		}
		if s.Start < p.Start {
			return fmt.Errorf("tracing: span %d/%d (%s) starts at %v, before parent %d (%s) at %v",
				s.Trace, s.ID, s.Stage, s.Start, p.ID, p.Stage, p.Start)
		}
		// Past the parent's start, the child must either nest inside the
		// parent or follow from it entirely (start >= parent end); a child
		// straddling the parent's end is malformed.
		if s.End > p.End && s.Start < p.End {
			return fmt.Errorf("tracing: span %d/%d (%s, [%v, %v]) escapes parent %d (%s, [%v, %v])",
				s.Trace, s.ID, s.Stage, s.Start, s.End, p.ID, p.Stage, p.Start, p.End)
		}
	}
	return nil
}

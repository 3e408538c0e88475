// Package tracing provides request-scoped distributed tracing for the
// PerDNN runtime and simulator: per-query spans with 64-bit trace and span
// IDs, parent links, and typed stage names, exported as a JSONL span
// journal or a Chrome trace_event / Perfetto-loadable JSON file.
//
// Not to be confused with internal/trace, which parses mobility GPS
// datasets; this package is the observability layer.
//
// # Determinism contract
//
// A Tracer assigns trace and span IDs from per-tracer sequential counters,
// so a single-threaded simulation run that records spans in engine order
// produces a span journal that is a pure function of the run configuration.
// Sweeps that concatenate per-run journals in run order therefore
// serialize to byte-identical JSONL at every worker count — the same
// contract as the obs event journal.
//
// # Cost when disabled
//
// A nil *Tracer is a valid disabled tracer: every method no-ops (ID
// constructors return 0), so instrumentation sites record unconditionally
// and pay one nil check when tracing is off. When enabled, Record appends
// into pre-sized chunks and is allocation-free in the steady state.
package tracing

import (
	"math/rand/v2"
	"sync"
	"time"
)

// TraceID identifies one request (a query, an upload session, a
// migration). 0 means "no trace".
type TraceID uint64

// SpanID identifies one span within a tracer. 0 means "no span" (as a
// parent link, it marks a root span).
type SpanID uint64

// SpanContext is the portable part of a span: enough to parent remote
// children. The zero value means "no context" and is what absent wire
// fields decode to.
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// IsZero reports whether the context carries no trace.
func (c SpanContext) IsZero() bool { return c.Trace == 0 && c.Span == 0 }

// Stage names one kind of span. The vocabulary is shared between the live
// path and the simulator so exports from either side line up.
type Stage string

// The stage vocabulary.
const (
	// StageRegister: a client registering with the master.
	StageRegister Stage = "register"
	// StagePlan: the master (or sim planner) computing a partitioning plan.
	StagePlan Stage = "plan"
	// StageUploadUnit: one schedule-unit chunk of layers moving client→edge.
	StageUploadUnit Stage = "upload.unit"
	// StageExecQueue: an exec request waiting for the edge GPU.
	StageExecQueue Stage = "exec.queue"
	// StageExecCompute: the server-side portion of a query on the GPU.
	StageExecCompute Stage = "exec.compute"
	// StageMigrate: a proactive layer migration between edge servers.
	StageMigrate Stage = "migrate"
	// StageFailover: a client re-partitioning away from a dead server (also
	// covers degradations to client-local execution).
	StageFailover Stage = "failover"
	// StageRetry: one failed attempt of a retried network operation.
	StageRetry Stage = "retry"
	// StageQuery: the end-to-end query interval (root span).
	StageQuery Stage = "query"
	// StageClientCompute: the client-side portion of a query.
	StageClientCompute Stage = "client.compute"
	// StageTransferUp: the query's input tensor moving client→edge.
	StageTransferUp Stage = "transfer.up"
	// StageTransferDown: the query's output tensor moving edge→client.
	StageTransferDown Stage = "transfer.down"
	// StageTransferHop: an activation tensor moving edge→edge between two
	// stages of a multi-hop pipelined plan.
	StageTransferHop Stage = "transfer.hop"
	// StageHandoff: a client's registration moving between two shard
	// masters after its trajectory crossed a region boundary.
	StageHandoff Stage = "handoff"
)

// Span is one recorded stage interval. Spans with End == Start are
// instants (rendered as instant events in Perfetto). Field order fixes the
// JSONL serialization, so identical span slices produce byte-identical
// output.
type Span struct {
	// Trace groups the spans of one request.
	Trace TraceID `json:"trace"`
	// ID is the span's own identifier, unique within its tracer.
	ID SpanID `json:"span"`
	// Parent links to the enclosing span (0 for a root).
	Parent SpanID `json:"parent,omitempty"`
	// Stage is the span kind.
	Stage Stage `json:"stage"`
	// Node is the track the span belongs to ("client/3", "server/7",
	// "master").
	Node string `json:"node"`
	// Start and End are the span's interval: virtual time in the
	// simulator, time since the tracer's epoch on the live path.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// Run labels the originating run in multi-run exports.
	Run string `json:"run,omitempty"`
}

// WithRun returns a copy of the span labeled with the originating run, for
// sweep exports that concatenate per-run journals.
func (s Span) WithRun(run string) Span {
	s.Run = run
	return s
}

// Duration returns End - Start.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// chunkSpans sizes the tracer's buffer chunks. Appending within a chunk is
// allocation-free; a new chunk is one amortized allocation per chunkSpans
// records.
const chunkSpans = 1024

// Tracer records spans into a chunked ring of buffers and hands out
// sequential trace and span IDs. All methods are safe for concurrent use
// and valid on a nil receiver (the disabled tracer).
type Tracer struct {
	mu        sync.Mutex
	nextTrace uint64
	nextSpan  uint64
	chunks    [][]Span
	epoch     func() time.Duration // Now() clock; nil reads 0
}

// New returns an enabled tracer with no clock: Now always reports 0 and
// callers stamp spans explicitly (the simulator's mode — it records
// virtual timestamps).
func New() *Tracer { return &Tracer{} }

// NewAt returns an enabled tracer whose Now reads the given clock. The
// live daemons pass a monotonic-since-epoch clock; the simulator stamps
// spans explicitly instead.
func NewAt(clock func() time.Duration) *Tracer { return &Tracer{epoch: clock} }

// NewWallClock returns an enabled tracer whose Now reports wall time
// elapsed since the call — the live daemons' clock. Unlike the
// simulator's tracers, a wall-clock tracer counts its trace and span IDs
// up from a random 63-bit base: live nodes allocate IDs independently
// while propagating each other's over the wire, and random bases keep a
// merged multi-node journal free of ID collisions — and of remote parent
// IDs falsely resolving against an unrelated local span.
func NewWallClock() *Tracer {
	start := time.Now()
	t := NewAt(func() time.Duration { return time.Since(start) })
	t.nextTrace = rand.Uint64() >> 1
	t.nextSpan = rand.Uint64() >> 1
	return t
}

// Enabled reports whether the tracer records spans.
func (t *Tracer) Enabled() bool { return t != nil }

// Now reads the tracer's clock (0 for a nil or clockless tracer).
func (t *Tracer) Now() time.Duration {
	if t == nil || t.epoch == nil {
		return 0
	}
	return t.epoch()
}

// NewTrace allocates the next trace ID (0 when disabled).
func (t *Tracer) NewTrace() TraceID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.nextTrace++
	id := t.nextTrace
	t.mu.Unlock()
	return TraceID(id)
}

// NewSpanID allocates the next span ID (0 when disabled). Use it when a
// span's ID must be known before the span ends — e.g. a root span whose
// children record first, or a context sent over the wire.
func (t *Tracer) NewSpanID() SpanID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.nextSpan++
	id := t.nextSpan
	t.mu.Unlock()
	return SpanID(id)
}

// Record appends one completed span with a freshly allocated ID and
// returns that ID (0 when disabled). Every field is positional, in the
// struct's serialization order; the obsjournal analyzer in internal/lint
// rejects ad-hoc tracing.Span literals outside this package, so recorded
// spans always state every identity field.
func (t *Tracer) Record(trace TraceID, parent SpanID, stage Stage, node string, start, end time.Duration) SpanID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.nextSpan++
	id := SpanID(t.nextSpan)
	t.append(Span{Trace: trace, ID: id, Parent: parent, Stage: stage, Node: node, Start: start, End: end})
	t.mu.Unlock()
	return id
}

// RecordWith appends one completed span under a pre-allocated ID (from
// NewSpanID). A no-op when disabled or when id is 0.
func (t *Tracer) RecordWith(trace TraceID, id, parent SpanID, stage Stage, node string, start, end time.Duration) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.append(Span{Trace: trace, ID: id, Parent: parent, Stage: stage, Node: node, Start: start, End: end})
	t.mu.Unlock()
}

// append adds a span to the active chunk, opening a new one when full.
// Callers hold t.mu.
func (t *Tracer) append(s Span) {
	if n := len(t.chunks); n > 0 {
		if c := t.chunks[n-1]; len(c) < cap(c) {
			t.chunks[n-1] = append(c, s)
			return
		}
	}
	c := make([]Span, 0, chunkSpans)
	t.chunks = append(t.chunks, append(c, s))
}

// Len returns the number of recorded spans (0 when disabled).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, c := range t.chunks {
		n += len(c)
	}
	return n
}

// Spans returns a copy of the recorded spans in record order (nil when
// disabled or empty).
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, c := range t.chunks {
		n += len(c)
	}
	if n == 0 {
		return nil
	}
	out := make([]Span, 0, n)
	for _, c := range t.chunks {
		out = append(out, c...)
	}
	return out
}

// Reset discards recorded spans but keeps the first chunk's capacity (the
// ring reuse that makes steady-state recording allocation-free) and the ID
// counters (so spans never collide across resets).
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.chunks) > 0 {
		t.chunks = t.chunks[:1]
		t.chunks[0] = t.chunks[0][:0]
	}
	t.mu.Unlock()
}

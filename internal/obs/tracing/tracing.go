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
// serialize to byte-identical JSONL at every worker count.
//
// # Cost when disabled
//
// A nil *Tracer is a valid disabled tracer: every method no-ops (ID
// constructors return 0), so instrumentation sites record unconditionally
// and pay one nil check when tracing is off. When enabled, Record appends
// into pre-sized chunks and is allocation-free in the steady state.
package tracing

import (
	"encoding/json"
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
// path and the simulator so exports from either side line up. The
// simulator's decision instants (handoff through local_fallback below) are
// named as the -events journal names them, so an event's type is its
// instant's stage.
type Stage string

// The stage vocabulary.
const (
	// StageRegister: a client registering with the master.
	StageRegister Stage = "register"
	// StagePlan: the master (or sim planner) computing a partitioning plan.
	// It carries the plan's attributes: client, requested edge, server-side
	// layers and bytes, hops and the estimated latency.
	StagePlan Stage = "plan"
	// StageHandoff: a client changing edge servers (Server = old, -1 on the
	// first attachment; Target = new).
	StageHandoff Stage = "handoff"
	// StageColdStart: a handoff that found none of the plan's server-side
	// layers cached (Layers = the layers to upload).
	StageColdStart Stage = "cold_start"
	// StagePartialHit: a handoff that found some but not all plan layers
	// cached (Layers = the layers present).
	StagePartialHit Stage = "partial_hit"
	// StagePlanCacheMiss: the first use of a partitioning plan within a
	// simulated run (Layers and Bytes = the plan's server side).
	StagePlanCacheMiss Stage = "plan_cache_miss"
	// StageFractionTruncated: the fractional-migration cap dropped Layers
	// layers from a transfer to Target (Bytes = the cap).
	StageFractionTruncated Stage = "fraction_truncated"
	// StageServerDown and StageServerUp: an injected fault took edge
	// server Server offline (losing its cache), or it recovered.
	StageServerDown Stage = "server_down"
	StageServerUp   Stage = "server_up"
	// StageUploadUnit: one schedule-unit chunk of layers moving client→edge.
	StageUploadUnit Stage = "upload.unit"
	// StageExecQueue: an exec request waiting for the edge GPU.
	StageExecQueue Stage = "exec.queue"
	// StageExecCompute: the server-side portion of a query on the GPU.
	StageExecCompute Stage = "exec.compute"
	// StageMigrate: a live proactive layer migration between edge servers —
	// the master's order round trip and the source edge's push (Target,
	// Layers, Bytes).
	StageMigrate Stage = "migrate"
	// StageMigrationOrdered and StageMigrationCompleted: the simulator's
	// migration of Layers layers (Bytes) from Server toward Target: the
	// order on the source server's track and its completion on the
	// target's, two instants of one trace.
	StageMigrationOrdered   Stage = "migration_ordered"
	StageMigrationCompleted Stage = "migration_completed"
	// StageFailover: a client re-partitioning away from a dead server
	// (Server) to a live neighbor (Target).
	StageFailover Stage = "failover"
	// StageLocalFallback: a client degrading to client-local execution
	// because no edge server (or no master) could serve it (Server = the
	// server it failed to use).
	StageLocalFallback Stage = "local_fallback"
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
	// StageShardHandoff: a client's registration moving between two shard
	// masters after its trajectory crossed a region boundary.
	StageShardHandoff Stage = "shard.handoff"
)

// NoID is the explicit "none" value of an attribute block's Client, Server
// and Target: 0 is a valid ID.
const NoID = -1

// Attrs is a span's fixed attribute block: the decision a record stands
// for. Client, Server and Target are IDs (NoID for none), Layers and Bytes
// the DNN layers and bytes involved; Hops and EstLatency are set on plan
// spans only. The zero value is "no attributes": such a span serializes
// without the block.
type Attrs struct {
	Client     int           `json:"client"`
	Server     int           `json:"server"`
	Target     int           `json:"target"`
	Layers     int           `json:"layers,omitempty"`
	Bytes      int64         `json:"bytes,omitempty"`
	Hops       int           `json:"hops,omitempty"`
	EstLatency time.Duration `json:"est_latency_ns,omitempty"`
}

// NewAttrs builds an attribute block with every identity field explicit,
// in serialization order. Pass NoID for an ID that does not apply; the
// obsjournal analyzer in internal/lint rejects Attrs literals that set
// fields outside this package, so an omitted server cannot silently
// become server 0.
func NewAttrs(client, server, target, layers int, bytes int64) Attrs {
	return Attrs{Client: client, Server: server, Target: target, Layers: layers, Bytes: bytes}
}

// WithEstimate returns a copy of a plan span's attributes carrying the
// plan's hop count and estimated latency.
func (a Attrs) WithEstimate(hops int, est time.Duration) Attrs {
	a.Hops, a.EstLatency = hops, est
	return a
}

// Span is one recorded stage interval. Spans with End == Start are
// instants (rendered as instant events in Perfetto). Field order fixes the
// JSONL serialization, so identical span slices produce byte-identical
// output; the attribute block follows the fixed fields, and only when it
// is set.
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
	// Attrs is the decision context (zero when the span has none).
	Attrs Attrs `json:"-"`
}

// spanFields is Span without its methods, for the JSON codec.
type spanFields Span

// MarshalJSON writes the fixed fields, then the attribute block's fields
// when it is set: an embedded nil pointer contributes nothing, so a span
// without attributes serializes exactly as the fixed fields alone.
func (s Span) MarshalJSON() ([]byte, error) {
	v := struct {
		spanFields
		*Attrs
	}{spanFields: spanFields(s)}
	if s.Attrs != (Attrs{}) {
		v.Attrs = &s.Attrs
	}
	return json.Marshal(v)
}

// UnmarshalJSON reads what MarshalJSON writes.
func (s *Span) UnmarshalJSON(b []byte) error {
	var a Attrs
	v := struct {
		*spanFields
		*Attrs
	}{(*spanFields)(s), &a}
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	s.Attrs = a
	return nil
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
	return t.RecordAttrs(trace, parent, stage, node, start, end, Attrs{})
}

// RecordAttrs is Record for a span that carries an attribute block.
func (t *Tracer) RecordAttrs(trace TraceID, parent SpanID, stage Stage, node string, start, end time.Duration, a Attrs) SpanID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.nextSpan++
	id := SpanID(t.nextSpan)
	t.append(Span{Trace: trace, ID: id, Parent: parent, Stage: stage, Node: node, Start: start, End: end, Attrs: a})
	t.mu.Unlock()
	return id
}

// RecordWith appends one completed span under a pre-allocated ID (from
// NewSpanID). A no-op when disabled or when id is 0.
func (t *Tracer) RecordWith(trace TraceID, id, parent SpanID, stage Stage, node string, start, end time.Duration) {
	t.RecordWithAttrs(trace, id, parent, stage, node, start, end, Attrs{})
}

// RecordWithAttrs is RecordWith for a span that carries an attribute
// block.
func (t *Tracer) RecordWithAttrs(trace TraceID, id, parent SpanID, stage Stage, node string, start, end time.Duration, a Attrs) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.append(Span{Trace: trace, ID: id, Parent: parent, Stage: stage, Node: node, Start: start, End: end, Attrs: a})
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

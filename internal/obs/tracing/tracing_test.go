package tracing

import (
	"testing"
	"time"

	"perdnn/internal/raceguard"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	if id := tr.NewTrace(); id != 0 {
		t.Fatalf("nil NewTrace = %d, want 0", id)
	}
	if id := tr.NewSpanID(); id != 0 {
		t.Fatalf("nil NewSpanID = %d, want 0", id)
	}
	if id := tr.Record(1, 0, StageQuery, "client/0", 0, time.Second); id != 0 {
		t.Fatalf("nil Record = %d, want 0", id)
	}
	tr.RecordWith(1, 2, 0, StageQuery, "client/0", 0, time.Second)
	if tr.Spans() != nil {
		t.Fatal("nil tracer recorded spans")
	}
	if tr.Now() != 0 {
		t.Fatal("nil Now != 0")
	}
}

func TestSequentialIDs(t *testing.T) {
	tr := New()
	if got := tr.NewTrace(); got != 1 {
		t.Fatalf("first trace ID = %d, want 1", got)
	}
	if got := tr.NewTrace(); got != 2 {
		t.Fatalf("second trace ID = %d, want 2", got)
	}
	root := tr.NewSpanID()
	if root != 1 {
		t.Fatalf("first span ID = %d, want 1", root)
	}
	child := tr.Record(1, root, StageExecCompute, "server/0", time.Millisecond, 2*time.Millisecond)
	if child != 2 {
		t.Fatalf("recorded span ID = %d, want 2", child)
	}
	tr.RecordWith(1, root, 0, StageQuery, "client/0", 0, 3*time.Millisecond)
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].ID != child || spans[0].Parent != root || spans[0].Stage != StageExecCompute {
		t.Fatalf("child span mismatch: %+v", spans[0])
	}
	if spans[1].ID != root || spans[1].Parent != 0 || spans[1].Duration() != 3*time.Millisecond {
		t.Fatalf("root span mismatch: %+v", spans[1])
	}
}

func TestChunkGrowthPreservesOrder(t *testing.T) {
	tr := New()
	trace := tr.NewTrace()
	const n = 3*chunkSpans + 17
	for i := 0; i < n; i++ {
		tr.Record(trace, 0, StageUploadUnit, "client/0",
			time.Duration(i), time.Duration(i+1))
	}
	spans := tr.Spans()
	if len(spans) != n {
		t.Fatalf("got %d spans, want %d", len(spans), n)
	}
	for i := range spans {
		if spans[i].Start != time.Duration(i) {
			t.Fatalf("span %d out of order: start %v", i, spans[i].Start)
		}
		if spans[i].ID != SpanID(i+1) {
			t.Fatalf("span %d has ID %d, want %d", i, spans[i].ID, i+1)
		}
	}
}

func TestNewWallClockAdvances(t *testing.T) {
	tr := NewWallClock()
	a := tr.Now()
	time.Sleep(time.Millisecond)
	if b := tr.Now(); b <= a {
		t.Fatalf("clock did not advance: %v then %v", a, b)
	}
}

// TestRecordSteadyStateZeroAlloc is the hot-path gate: once the tracer's
// active chunk has capacity, recording a span allocates nothing.
func TestRecordSteadyStateZeroAlloc(t *testing.T) {
	if raceguard.Enabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	trace := TraceID(1)
	// Each measurement gets a fresh tracer whose first chunk is prewarmed
	// by one span, and stays well within the chunk's capacity.
	prewarmed := func() *Tracer {
		tr := New()
		tr.Record(trace, 0, StageQuery, "client/0", 0, 0)
		return tr
	}
	tr := prewarmed()
	allocs := testing.AllocsPerRun(chunkSpans/2, func() {
		tr.Record(trace, 0, StageQuery, "client/0", time.Millisecond, 2*time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f allocs/op in steady state, want 0", allocs)
	}
	tr = prewarmed()
	id := tr.NewSpanID()
	allocs = testing.AllocsPerRun(chunkSpans/2, func() {
		tr.RecordWith(trace, id, 0, StageQuery, "client/0", time.Millisecond, 2*time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("RecordWith allocates %.1f allocs/op in steady state, want 0", allocs)
	}
	tr = prewarmed()
	a := NewAttrs(3, 7, NoID, 12, 1<<20).WithEstimate(2, time.Millisecond)
	allocs = testing.AllocsPerRun(chunkSpans/2, func() {
		tr.RecordAttrs(trace, 0, StagePlan, "master", time.Millisecond, time.Millisecond, a)
	})
	if allocs != 0 {
		t.Fatalf("RecordAttrs allocates %.1f allocs/op in steady state, want 0", allocs)
	}
	if got := tr.Spans()[1].Attrs; got != a {
		t.Fatalf("recorded attributes %+v, want %+v", got, a)
	}
}

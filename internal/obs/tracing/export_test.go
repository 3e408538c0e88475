package tracing

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenSpans builds a small deterministic journal exercising every export
// shape: a root query with same-node and cross-node children, an instant
// migration pair carrying attributes, and a run label.
func goldenSpans() []Span {
	tr := New()
	q := tr.NewTrace()
	root := tr.NewSpanID() // 1
	tr.Record(q, root, StageClientCompute, "client/0", 0, 2*time.Millisecond)
	tr.Record(q, root, StageTransferUp, "client/0", 2*time.Millisecond, 5*time.Millisecond)
	tr.Record(q, root, StageExecCompute, "server/3", 5*time.Millisecond, 9*time.Millisecond)
	tr.Record(q, root, StageTransferDown, "client/0", 9*time.Millisecond, 10*time.Millisecond)
	tr.RecordWith(q, root, 0, StageQuery, "client/0", 0, 10*time.Millisecond)

	m := tr.NewTrace()
	mig := NewAttrs(0, 3, 5, 12, 1<<20)
	order := tr.RecordAttrs(m, 0, StageMigrationOrdered, "server/3", 4*time.Millisecond, 4*time.Millisecond, mig)
	tr.RecordAttrs(m, order, StageMigrationCompleted, "server/5", 8*time.Millisecond, 8*time.Millisecond, mig)

	spans := tr.Spans()
	for i := range spans {
		spans[i] = spans[i].WithRun("golden/cell")
	}
	return spans
}

// TestSpanJSONAttrs: a span without attributes serializes exactly as the
// fixed fields alone; a span with them appends the block, server 0 and
// NoID included.
func TestSpanJSONAttrs(t *testing.T) {
	spans := goldenSpans()
	plain, err := json.Marshal(spans[2])
	if err != nil {
		t.Fatal(err)
	}
	const wantPlain = `{"trace":1,"span":4,"parent":1,"stage":"exec.compute","node":"server/3","start_ns":5000000,"end_ns":9000000,"run":"golden/cell"}`
	if string(plain) != wantPlain {
		t.Errorf("span without attributes:\n got %s\nwant %s", plain, wantPlain)
	}
	tr := New()
	tr.RecordAttrs(1, 0, StagePlan, "master", 0, 0, NewAttrs(0, 0, NoID, 4, 512).WithEstimate(1, time.Millisecond))
	withAttrs, err := json.Marshal(tr.Spans()[0])
	if err != nil {
		t.Fatal(err)
	}
	const wantAttrs = `{"trace":1,"span":1,"stage":"plan","node":"master","start_ns":0,"end_ns":0,` +
		`"client":0,"server":0,"target":-1,"layers":4,"bytes":512,"hops":1,"est_latency_ns":1000000}`
	if string(withAttrs) != wantAttrs {
		t.Errorf("span with attributes:\n got %s\nwant %s", withAttrs, wantAttrs)
	}
}

func TestWriteJSONLRoundTrip(t *testing.T) {
	spans := goldenSpans()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, spans); err != nil {
		t.Fatal(err)
	}
	first := append([]byte(nil), buf.Bytes()...)
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(spans) {
		t.Fatalf("round trip lost spans: %d != %d", len(got), len(spans))
	}
	for i := range got {
		if got[i] != spans[i] {
			t.Fatalf("span %d: %+v != %+v", i, got[i], spans[i])
		}
	}
	// Byte-identical re-serialization: the determinism contract.
	var again bytes.Buffer
	if err := WriteJSONL(&again, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, again.Bytes()) {
		t.Fatal("JSONL serialization is not byte-stable")
	}
}

func TestValidateAcceptsGoldenSpans(t *testing.T) {
	if err := Validate(goldenSpans()); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsEscapingChild(t *testing.T) {
	tr := New()
	q := tr.NewTrace()
	root := tr.NewSpanID()
	tr.Record(q, root, StageExecCompute, "server/0", time.Millisecond, 20*time.Millisecond)
	tr.RecordWith(q, root, 0, StageQuery, "client/0", 0, 10*time.Millisecond)
	err := Validate(tr.Spans())
	if err == nil || !strings.Contains(err.Error(), "escapes parent") {
		t.Fatalf("want escapes-parent error, got %v", err)
	}
}

func TestValidateRejectsNegativeDuration(t *testing.T) {
	tr := New()
	q := tr.NewTrace()
	tr.Record(q, 0, StageQuery, "client/0", time.Second, 0)
	err := Validate(tr.Spans())
	if err == nil || !strings.Contains(err.Error(), "ends before it starts") {
		t.Fatalf("want ends-before-starts error, got %v", err)
	}
}

func TestValidateToleratesRemoteParent(t *testing.T) {
	// A daemon's export holds only its own spans; a parent recorded by a
	// peer's tracer is absent, not an error.
	tr := New()
	tr.RecordWith(7, 42, 41, StageExecCompute, "server/0", 0, time.Millisecond)
	if err := Validate(tr.Spans()); err != nil {
		t.Fatal(err)
	}
}

const perfettoGolden = "testdata/perfetto.golden"

func TestPerfettoGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, goldenSpans()); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(perfettoGolden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(perfettoGolden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("perfetto export drifted from golden; run with -update if intended\ngot:  %s\nwant: %s",
			buf.Bytes(), want)
	}
}

func TestPerfettoShape(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, goldenSpans()); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("perfetto export is not valid JSON: %v", err)
	}
	counts := map[string]int{}
	for _, ev := range file.TraceEvents {
		ph, _ := ev["ph"].(string)
		counts[ph]++
	}
	// 1 process (golden/cell) + 3 tracks (client/0, server/3, server/5),
	// 5 duration spans, 2 instants, and 2 flow arrows
	// (query→exec.compute, migration_ordered→migration_completed).
	if counts["M"] != 4 {
		t.Fatalf("got %d metadata events, want 4: %v", counts["M"], counts)
	}
	if counts["X"] != 5 {
		t.Fatalf("got %d complete events, want 5: %v", counts["X"], counts)
	}
	if counts["i"] != 2 {
		t.Fatalf("got %d instant events, want 2: %v", counts["i"], counts)
	}
	if counts["s"] != 2 || counts["f"] != 2 {
		t.Fatalf("got %d/%d flow start/finish events, want 2/2", counts["s"], counts["f"])
	}
}

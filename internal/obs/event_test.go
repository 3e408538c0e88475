package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestWriteJSONLDeterministic: identical event slices serialize to
// byte-identical JSONL, one object per line, zero server IDs included.
func TestWriteJSONLDeterministic(t *testing.T) {
	events := []Event{
		{T: time.Second, Type: EventHandoff, Run: "a", Client: 3, Server: -1, Target: 0},
		{T: 2 * time.Second, Type: EventMigrationOrdered, Run: "a", Client: 3, Server: 0, Target: 7, Layers: 12, Bytes: 1 << 20},
	}
	var b1, b2 bytes.Buffer
	if err := WriteJSONL(&b1, events); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&b2, events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("identical slices serialized differently")
	}
	lines := strings.Split(strings.TrimRight(b1.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("wrote %d lines, want 2: %q", len(lines), b1.String())
	}
	// Target 0 is a valid server and must not be dropped by omitempty.
	if !strings.Contains(lines[0], `"target":0`) {
		t.Errorf("line 1 dropped target 0: %s", lines[0])
	}
	if !strings.Contains(lines[1], `"type":"migration_ordered"`) {
		t.Errorf("line 2 missing type: %s", lines[1])
	}
}

// TestJournalNilSafe: a run that records no events has a nil journal (a nil
// event slice), which is a valid no-op: it serializes to nothing, and a
// WithRun label on an empty journal adds no lines either.
func TestJournalNilSafe(t *testing.T) {
	var journal []Event
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, journal); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("nil journal wrote %q", buf.String())
	}
	labeled := make([]Event, 0, len(journal))
	for _, e := range journal {
		labeled = append(labeled, e.WithRun("a"))
	}
	if err := WriteJSONL(&buf, labeled); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("empty labeled journal wrote %q", buf.String())
	}
}

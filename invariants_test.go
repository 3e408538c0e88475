package perdnn_test

// The tree's invariants that no runtime test can see: identifiers that
// must not come back, formatting, what the binaries link, the docs' line
// budgets and the vet roster DESIGN.md documents. They run in `go test .`,
// so a plain `go build ./... && go test ./...` checks everything CI does
// about the source itself. Each check names the DESIGN.md section that
// states its invariant.

import (
	"bytes"
	"fmt"
	"go/format"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"perdnn/internal/lint"
)

// srcFile is one .go file of the tree, its path slash-separated and
// relative to the module root.
type srcFile struct {
	path string
	data []byte
}

// goFiles reads every .go file under the module root once per test
// binary: bench/ and testdata/ included, dot-directories (build caches)
// and this file, which holds the patterns, left out.
var goFiles = sync.OnceValues(func() ([]srcFile, error) {
	var files []srcFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || path == "invariants_test.go" {
			return nil
		}
		data, err := os.ReadFile(path)
		files = append(files, srcFile{filepath.ToSlash(path), data})
		return err
	})
	return files, err
})

func readGoFiles(t *testing.T) []srcFile {
	t.Helper()
	files, err := goFiles()
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 100 {
		t.Fatalf("found only %d .go files; the walk is missing the tree", len(files))
	}
	return files
}

// removedFields are the 20 settable values that nothing set (DESIGN.md §2).
var removedFields = []string{"LinearSlow", "QuadSlow", "MemSlow", "ActivityMin",
	"IdleTempC", "TempPerClient", "ThrottleAtC", "ThrottlePerC", "MeasureNoise",
	"BaseMemMB", "MemPerClientMB", "Epsilon", "Lambda", "LR0", "LR", "MaxOrder",
	"SubseqRatio", "BatchSize", "EstimatorSeed", "TestFraction"}

// forbidden is a set of identifiers that must not come back.
type forbidden struct {
	name   string
	design string   // the DESIGN.md section that states the invariant
	what   string   // the invariant
	words  []string // literals, one of which any offending line holds
	re     string   // the offending lines, with %[1]s the words' alternation; "" is any word
	dir    string   // scan only below this path; "" is the whole tree
	tests  bool     // scan only _test.go files
}

var forbiddenIdents = []forbidden{
	{name: "directives", design: "§11.4", what: "allocation claims are measured and no finding is silenced: no static hot-path directive, no perdnn:vet-ignore (perdnn-vet honours none)",
		words: []string{"perdnn:hotpath", "perdnn:vet-ignore"}},
	{name: "one-record-type", design: "§8", what: "one record type: a city run's events are its decision spans, projected; no second event type or canonicalizer",
		words: []string{"obs.Event", "NewEvent", "canonicalEvents"}},
	{name: "one-migration-path", design: "§15.5", what: "one migration path: core.MigrationPolicy.Want decides what a target holds and a master orders every target itself; no routed order, second cut or flattened schedule",
		words: []string{"MsgShardMigrate", "TruncateForTransfer", "FlattenSchedule"}},
	{name: "shard-masters-apart", design: "§16.5", what: "shard masters never call each other: a handoff rides the client's redirect; no peer pool or handoff-error counter",
		words: []string{`NewRegisteredPool(m.met, "shard")`, "shard_handoff_errors_total"}},
	{name: "one-edge-model", design: "§2", what: "one edge model: core.LayerCache, partition.LabWiFi, partition.DefaultBackhaul and gpusim.DefaultParams; no second cache, link knob or GPU-parameter knob",
		words: []string{"layerStore", "simnet.Backhaul", "LinkBps", "GPUParams"}},
	{name: "no-settable-value", design: "§2", what: "no settable value that nothing sets: none of the 20 removed fields comes back as a selector or a keyed-literal field",
		words: removedFields, re: `\.(%[1]s)\b|\b(%[1]s)[[:space:]]*:([^=]|$)`},
	{name: "no-t-context", design: "§14", what: "tests build on the Go release go.mod names: testing.T.Context arrived in Go 1.24; take a context.WithCancel and register its cancel with t.Cleanup",
		words: []string{"t.Context()"}, re: `\b%[1]s`, tests: true},
	{name: "one-histogram", design: "§8", what: "one latency histogram: obs.Histogram serves the daemons and the simulator alike; no second histogram or power-of-two bucket scheme",
		words: []string{"LatencyHist", "histMid", "histBucket"}},
	{name: "typed-event-heap", design: "§16.2", what: "the event heap is typed: container/heap moves events through interface calls",
		words: []string{`"container/heap"`}, dir: "internal/edgesim/"},
	{name: "no-deprecated", design: "§14", what: "one call form: no Deprecated API left beside its replacement",
		words: []string{"Deprecated:"}},
}

// TestForbiddenIdentifiers fails on any line of the tree that brings back
// an identifier one of the invariants removed.
func TestForbiddenIdentifiers(t *testing.T) {
	files := readGoFiles(t)
	for _, f := range forbiddenIdents {
		t.Run(f.name, func(t *testing.T) {
			quoted := make([]string, len(f.words))
			for i, w := range f.words {
				quoted[i] = regexp.QuoteMeta(w)
			}
			pattern := strings.Join(quoted, "|")
			if f.re != "" {
				pattern = fmt.Sprintf(f.re, pattern)
			}
			re := regexp.MustCompile(pattern)
			for _, src := range files {
				if !strings.HasPrefix(src.path, f.dir) || f.tests && !strings.HasSuffix(src.path, "_test.go") ||
					!slices.ContainsFunc(f.words, func(w string) bool { return bytes.Contains(src.data, []byte(w)) }) {
					continue
				}
				for i, line := range bytes.Split(src.data, []byte("\n")) {
					if re.Match(line) {
						t.Errorf("%s:%d: %s\n\tbreaks DESIGN.md %s, %s", src.path, i+1, bytes.TrimSpace(line), f.design, f.what)
					}
				}
			}
		})
	}
}

// TestGofmt fails on any .go file that gofmt would rewrite (DESIGN.md §14).
func TestGofmt(t *testing.T) {
	for _, src := range readGoFiles(t) {
		got, err := format.Source(src.data)
		if err != nil {
			t.Errorf("%s: %v", src.path, err)
		} else if !bytes.Equal(got, src.data) {
			t.Errorf("%s is not gofmt-formatted (DESIGN.md §14); run gofmt -w %s", src.path, src.path)
		}
	}
}

// TestBinariesLinkNoTestCode fails when a command or example links the gob
// codec, package testing or the live-test fixture (DESIGN.md §14: one call
// form, test code stays in tests).
func TestBinariesLinkNoTestCode(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "./cmd/...", "./examples/...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	for _, dep := range strings.Fields(string(out)) {
		switch dep {
		case "encoding/gob", "testing", "perdnn/internal/livetest":
			t.Errorf("a binary under cmd/ or examples/ links %s (DESIGN.md §14)", dep)
		}
	}
}

// TestDocLineBudgets holds EXPERIMENTS.md and DESIGN.md to their line
// budgets. DESIGN.md's only falls, on its way to 1,000.
func TestDocLineBudgets(t *testing.T) {
	for _, doc := range []struct {
		name   string
		budget int
	}{{"EXPERIMENTS.md", 600}, {"DESIGN.md", 1640}} {
		data, err := os.ReadFile(doc.name)
		if err != nil {
			t.Fatal(err)
		}
		if n := bytes.Count(data, []byte("\n")); n > doc.budget {
			t.Errorf("%s has %d lines, over its budget of %d", doc.name, n, doc.budget)
		}
	}
}

// TestVetRosterMatchesDesign holds DESIGN.md §10.8's analyzer roster to
// lint.All(), which perdnn-vet and lint.TestRepoInvariants run, so the
// documentation cannot drift from the suite.
func TestVetRosterMatchesDesign(t *testing.T) {
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, block, ok := strings.Cut(string(data), "<!-- vet-roster:begin -->")
	block, _, ok2 := strings.Cut(block, "<!-- vet-roster:end -->")
	if !ok || !ok2 {
		t.Fatal("DESIGN.md §10.8 lost its vet-roster markers")
	}
	var want, got []string
	for _, line := range strings.Split(block, "\n") {
		if line != "" && !strings.HasPrefix(line, "```") {
			want = append(want, line)
		}
	}
	for _, a := range lint.All() {
		got = append(got, a.Name)
	}
	if !slices.Equal(want, got) {
		t.Errorf("DESIGN.md §10.8 lists the analyzers\n\t%v\nlint.All() runs\n\t%v", want, got)
	}
}

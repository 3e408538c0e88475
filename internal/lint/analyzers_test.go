package lint

import (
	"fmt"
	"go/importer"
	"go/token"
	"strings"
	"testing"
)

// Each analyzer is exercised against a fixture package under testdata/src
// that mixes violating lines (annotated with // want "...") and conforming
// counterparts. The harness fails on missing AND unexpected diagnostics,
// so every fixture simultaneously proves the analyzer fires and that it
// stays silent on the sanctioned idioms.

const fixtureRoot = "testdata/src"

func TestSimDeterminism(t *testing.T) {
	// simdep is a non-sim helper package: the transitive check flags the
	// edgesim call site that reaches nondeterminism through it.
	RunFixture(t, fixtureRoot, SimDeterminism, "perdnn/internal/edgesim", "perdnn/internal/simdep")
}

func TestSimDeterminismIgnoresNonSimPackages(t *testing.T) {
	// The notsim fixture reads the wall clock and global rand freely but
	// lives outside the simulation packages, so the analyzer stays silent.
	RunFixture(t, fixtureRoot, SimDeterminism, "notsim")
}

func TestSentErr(t *testing.T) {
	RunFixture(t, fixtureRoot, SentErr, "senterr")
}

func TestCtxFlow(t *testing.T) {
	RunFixture(t, fixtureRoot, CtxFlow, "perdnn/internal/mobile")
}

func TestEnvMutate(t *testing.T) {
	RunFixture(t, fixtureRoot, EnvMutate, "envuser")
}

func TestObsJournal(t *testing.T) {
	RunFixture(t, fixtureRoot, ObsJournal, "attruser")
}

func TestObsJournalSpans(t *testing.T) {
	RunFixture(t, fixtureRoot, ObsJournal, "spanuser")
}

func TestLockHygiene(t *testing.T) {
	RunFixture(t, fixtureRoot, LockHygiene, "lockuser")
}

func TestAllAnalyzersRegistered(t *testing.T) {
	names := map[string]bool{}
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Fatalf("analyzer %+v incomplete", a)
		}
		if names[a.Name] {
			t.Fatalf("duplicate analyzer name %q", a.Name)
		}
		names[a.Name] = true
		if Lookup(a.Name) != a {
			t.Fatalf("Lookup(%q) does not round-trip", a.Name)
		}
	}
	if len(names) < 6 {
		t.Fatalf("suite has %d analyzers, want >= 6", len(names))
	}
	if Lookup("nope") != nil {
		t.Fatal("Lookup of unknown name should be nil")
	}
}

func TestSelect(t *testing.T) {
	all, err := Select("")
	if err != nil || len(all) != len(All()) {
		t.Fatalf("Select(\"\") = %d analyzers, err %v; want the full suite", len(all), err)
	}
	some, err := Select("senterr, ctxflow")
	if err != nil || len(some) != 2 || some[0] != SentErr || some[1] != CtxFlow {
		t.Fatalf("Select(\"senterr, ctxflow\") = %v, err %v", some, err)
	}
	if _, err := Select("senterr,doesnotexist"); err == nil || !strings.Contains(err.Error(), "unknown analyzer") {
		t.Fatalf("Select with a nonexistent analyzer: err = %v, want unknown-analyzer error", err)
	}
}

// failRecorder captures harness failures so the harness itself can be
// tested: a fixture violation without its want comment must fail.
type failRecorder struct {
	errors []string
	fatals []string
}

func (r *failRecorder) Helper() {}
func (r *failRecorder) Errorf(format string, args ...any) {
	r.errors = append(r.errors, fmt.Sprintf(format, args...))
}
func (r *failRecorder) Fatalf(format string, args ...any) {
	r.fatals = append(r.fatals, fmt.Sprintf(format, args...))
}

// TestFixturesFailWithoutAnalyzer proves the gate is real: running a
// fixture that contains want comments against an analyzer that never
// reports must fail with "no diagnostic matching" for every want. Every
// fixture wired into the suite — including the call-graph-backed ones —
// goes through this check.
func TestFixturesFailWithoutAnalyzer(t *testing.T) {
	silent := &Analyzer{
		Name: "silent",
		Doc:  "reports nothing, ever",
		Run:  func(*Pass) error { return nil },
	}
	fixtures := [][]string{
		{"attruser"},
		{"lockuser"},
		{"perdnn/internal/mobile"},
		{"perdnn/internal/edgesim", "perdnn/internal/simdep"},
	}
	for _, paths := range fixtures {
		rec := &failRecorder{}
		RunFixture(rec, fixtureRoot, silent, paths...)
		if len(rec.fatals) != 0 {
			t.Fatalf("%v: unexpected fatal: %v", paths, rec.fatals)
		}
		if len(rec.errors) == 0 {
			t.Fatalf("%v: silent analyzer passed a fixture with want comments; the fixture gates nothing", paths)
		}
		for _, e := range rec.errors {
			if !strings.Contains(e, "no diagnostic matching") {
				t.Fatalf("%v: unexpected harness failure %q", paths, e)
			}
		}
	}
}

// TestIgnoreDirective proves a diagnostic is suppressed only for the named
// analyzer and only on the directive's line or the line below, and that
// suppression marks the directive used for the stale audit.
func TestIgnoreDirective(t *testing.T) {
	ix := &ignoreIndex{byLine: map[string]map[int][]*directive{}}
	ix.add(token.Position{Filename: "f.go", Line: 10}, []string{"ctxflow"})
	ix.add(token.Position{Filename: "f.go", Line: 20}, []string{"all"})
	cases := []struct {
		analyzer string
		line     int
		want     bool
	}{
		{"ctxflow", 10, true},
		{"ctxflow", 11, true},
		{"ctxflow", 12, false},
		{"senterr", 10, false},
		{"senterr", 20, true},
		{"senterr", 21, true},
	}
	for _, c := range cases {
		got := ix.covers(c.analyzer, token.Position{Filename: "f.go", Line: c.line})
		if got != c.want {
			t.Errorf("covers(%s, line %d) = %v, want %v", c.analyzer, c.line, got, c.want)
		}
	}
	for _, d := range ix.list {
		if !d.used {
			t.Errorf("directive at line %d not marked used after suppressing", d.pos.Line)
		}
	}
}

// TestStaleDirectiveAudit exercises the audit matrix directly: used
// directives pass, unused ones for analyzers that ran are stale, unknown
// names are always reported, and analyzers outside the run set are not
// judged.
func TestStaleDirectiveAudit(t *testing.T) {
	ix := &ignoreIndex{byLine: map[string]map[int][]*directive{}}
	ix.add(token.Position{Filename: "f.go", Line: 10}, []string{"ctxflow"}) // used below
	ix.add(token.Position{Filename: "f.go", Line: 20}, []string{"ctxflow"}) // stale
	ix.add(token.Position{Filename: "f.go", Line: 30}, []string{"bogus"})   // unknown
	ix.add(token.Position{Filename: "f.go", Line: 40}, []string{"senterr"}) // not in run set
	ix.add(token.Position{Filename: "f.go", Line: 50}, []string{"all"})     // judged only on full-suite runs
	ix.covers("ctxflow", token.Position{Filename: "f.go", Line: 10})

	diags := staleDirectiveDiags(ix, []*Analyzer{CtxFlow})
	byLine := map[int]string{}
	for _, d := range diags {
		if d.Analyzer != "vet-ignore" {
			t.Errorf("audit diagnostic under analyzer %q, want vet-ignore", d.Analyzer)
		}
		byLine[d.Pos.Line] = d.Message
	}
	if len(diags) != 2 {
		t.Fatalf("got %d audit diagnostics (%v), want 2", len(diags), byLine)
	}
	if !strings.Contains(byLine[20], "stale vet-ignore") {
		t.Errorf("line 20: %q, want stale report", byLine[20])
	}
	if !strings.Contains(byLine[30], "unknown analyzer") {
		t.Errorf("line 30: %q, want unknown-analyzer report", byLine[30])
	}

	// On a full-suite run the unused "all" and "senterr" directives are
	// judged too.
	full := staleDirectiveDiags(ix, All())
	if len(full) != 4 {
		t.Fatalf("full-suite audit: got %d diagnostics, want 4", len(full))
	}
}

// TestStaleAndUnknownIgnoreDirectives runs the audit end to end over the
// staleuser fixture. Want comments cannot annotate directive lines (a
// trailing comment joins the directive's reason text), so the assertions
// are explicit.
func TestStaleAndUnknownIgnoreDirectives(t *testing.T) {
	fset := token.NewFileSet()
	ld := &fixtureLoader{root: fixtureRoot, fset: fset, cache: map[string]*Package{}}
	ld.std = importer.ForCompiler(fset, "gc", nil)
	pkg, err := ld.load("staleuser")
	if err != nil {
		t.Fatalf("loading staleuser fixture: %v", err)
	}
	diags, err := RunAnalyzers([]*Package{pkg}, []*Analyzer{CtxFlow})
	if err != nil {
		t.Fatalf("running ctxflow: %v", err)
	}
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics %v, want stale + unknown", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, `stale vet-ignore for "ctxflow"`) {
		t.Errorf("first diagnostic %q, want stale ctxflow report", diags[0].Message)
	}
	if !strings.Contains(diags[1].Message, `unknown analyzer "nosuchanalyzer"`) {
		t.Errorf("second diagnostic %q, want unknown-analyzer report", diags[1].Message)
	}
}

package lint

import (
	"fmt"
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
	}
	if len(names) < 6 {
		t.Fatalf("suite has %d analyzers, want >= 6", len(names))
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

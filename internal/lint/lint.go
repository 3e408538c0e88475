// Package lint is perdnn's in-tree static-analysis suite. It enforces the
// invariants the simulator's headline numbers rest on — bit-for-bit
// determinism of runs and journals, sentinel-error discipline, context
// plumbing on the live path, Env immutability, and fixed-shape journal
// spans — as compile-time checks instead of review lore.
//
// The suite is deliberately self-contained: it mirrors the shape of
// golang.org/x/tools/go/analysis (Analyzer, Pass, diagnostics, testdata
// fixtures with "// want" comments) but is built only on the standard
// library's go/ast and go/types, because the build environment pins the
// module to a zero-dependency footprint. Packages under analysis are
// loaded from `go list -export` output, so type information comes from
// the same compiler export data the build uses.
//
// Run the whole suite with:
//
//	go run ./cmd/perdnn-vet ./...
//
// A finding can be suppressed at a specific line — for a documented
// exception — with a directive comment on the same line or the line
// above, as the lockuser fixture does:
//
//	//perdnn:vet-ignore lockhygiene fixture exercises a line-above suppression
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check. The shape follows
// golang.org/x/tools/go/analysis so the suite can migrate to the real
// framework wholesale if the dependency ever becomes available.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives.
	Name string
	// Doc states the invariant the analyzer encodes, first line short.
	Doc string
	// Run reports the analyzer's findings for one package via pass.Reportf.
	Run func(pass *Pass) error
}

// A Pass provides one analyzer with one type-checked package and collects
// its diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Facts carries run-wide interprocedural state — the call graph and
	// memoized derived closures — shared by every pass of the run.
	Facts *Facts

	diags   *[]Diagnostic
	ignores *ignoreIndex
}

// A Diagnostic is one reported invariant violation.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the diagnostic in the canonical file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a diagnostic at pos unless an ignore directive for this
// analyzer covers the line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.ignores.covers(p.Analyzer.Name, position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// InTestFile reports whether pos lies in a _test.go file. Several
// invariants (wall-clock use, context.Background) are relaxed in tests.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// IgnoreDirective is the comment prefix that suppresses a finding.
const IgnoreDirective = "//perdnn:vet-ignore"

// A directive is one parsed vet-ignore comment. Used tracks whether any
// diagnostic was actually suppressed by it during the run, so stale
// directives can be reported instead of accumulating silently.
type directive struct {
	pos   token.Position
	names []string
	used  bool
}

// ignoreIndex holds every vet-ignore directive of the run, indexed by
// file and line. The index is global (all packages), because an
// interprocedural analyzer visiting package A may position a diagnostic
// in package B, where the suppression lives.
type ignoreIndex struct {
	byLine map[string]map[int][]*directive
	list   []*directive
}

// covers reports whether a directive for analyzer suppresses a diagnostic
// at pos — on the directive's own line or the line below, so it can trail
// a statement or sit above a declaration — and marks the directive used.
func (ix *ignoreIndex) covers(analyzer string, pos token.Position) bool {
	if ix == nil {
		return false
	}
	lines := ix.byLine[pos.Filename]
	if lines == nil {
		return false
	}
	hit := false
	for _, ln := range [2]int{pos.Line, pos.Line - 1} {
		for _, d := range lines[ln] {
			for _, name := range d.names {
				if name == analyzer || name == "all" {
					d.used = true
					hit = true
				}
			}
		}
	}
	return hit
}

// add indexes one directive at pos.
func (ix *ignoreIndex) add(pos token.Position, names []string) {
	d := &directive{pos: pos, names: names}
	ix.list = append(ix.list, d)
	lines := ix.byLine[pos.Filename]
	if lines == nil {
		lines = map[int][]*directive{}
		ix.byLine[pos.Filename] = lines
	}
	lines[pos.Line] = append(lines[pos.Line], d)
}

// buildIgnoreIndex scans comments for vet-ignore directives. The directive
// grammar is "//perdnn:vet-ignore name1,name2 reason..." — everything after
// the comma-separated analyzer list is a free-form justification.
func buildIgnoreIndex(pkgs []*Package) *ignoreIndex {
	ix := &ignoreIndex{byLine: map[string]map[int][]*directive{}}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, IgnoreDirective)
					if !ok {
						continue
					}
					fields := strings.Fields(rest)
					if len(fields) == 0 {
						continue
					}
					var names []string
					for _, name := range strings.Split(fields[0], ",") {
						if name = strings.TrimSpace(name); name != "" {
							names = append(names, name)
						}
					}
					if len(names) > 0 {
						ix.add(pkg.Fset.Position(c.Slash), names)
					}
				}
			}
		}
	}
	return ix
}

// staleDirectiveDiags audits the run's directives after all analyzers
// finished. Two failure modes are reported, both under the reserved
// analyzer name "vet-ignore":
//
//   - a directive naming an analyzer that does not exist (typo'd
//     suppressions silently suppress nothing);
//   - a directive naming an analyzer that ran over the whole input yet
//     suppressed no diagnostic — the finding it once justified is gone,
//     so the directive is dead weight and must be removed.
//
// Staleness is only judged for analyzers in the run set ("all" only when
// the full suite ran), so running a single analyzer over a fixture never
// flags the other analyzers' legitimate suppressions.
func staleDirectiveDiags(ix *ignoreIndex, analyzers []*Analyzer) []Diagnostic {
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	known := map[string]bool{"all": true}
	for _, a := range All() {
		known[a.Name] = true
	}
	for name := range ran {
		known[name] = true
	}
	fullSuite := true
	for _, a := range All() {
		if !ran[a.Name] {
			fullSuite = false
			break
		}
	}
	var diags []Diagnostic
	for _, d := range ix.list {
		for _, name := range d.names {
			switch {
			case !known[name]:
				diags = append(diags, Diagnostic{
					Analyzer: "vet-ignore",
					Pos:      d.pos,
					Message:  fmt.Sprintf("vet-ignore names unknown analyzer %q: it suppresses nothing", name),
				})
			case d.used:
				// The directive earned its keep this run.
			case name == "all" && fullSuite, name != "all" && ran[name]:
				diags = append(diags, Diagnostic{
					Analyzer: "vet-ignore",
					Pos:      d.pos,
					Message:  fmt.Sprintf("stale vet-ignore for %q: no diagnostic here to suppress; remove the directive", name),
				})
			}
		}
	}
	return diags
}

// RunAnalyzers applies every analyzer to every package and returns all
// diagnostics sorted by position. Analyzer errors (not findings) abort.
// The run shares one Facts (call graph + memoized closures) and one
// global ignore index across all packages; after the last analyzer,
// unused and unknown ignore directives are reported as findings.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	ignores := buildIgnoreIndex(pkgs)
	facts := NewFacts(pkgs)
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Facts:     facts,
				diags:     &diags,
				ignores:   ignores,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Types.Path(), err)
			}
		}
	}
	diags = append(diags, staleDirectiveDiags(ignores, analyzers)...)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// All returns the full perdnn-vet suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		SimDeterminism,
		SentErr,
		CtxFlow,
		EnvMutate,
		ObsJournal,
		LockHygiene,
	}
}

// Lookup returns the analyzer with the given name, or nil.
func Lookup(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Select resolves a comma-separated list of analyzer names (as passed to
// perdnn-vet -run) to analyzers, rejecting unknown names. An empty list
// selects the whole suite.
func Select(names string) ([]*Analyzer, error) {
	if strings.TrimSpace(names) == "" {
		return All(), nil
	}
	var out []*Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a := Lookup(name)
		if a == nil {
			return nil, fmt.Errorf("unknown analyzer %q (run -list for the roster)", name)
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return All(), nil
	}
	return out, nil
}

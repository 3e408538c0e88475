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
// There is no suppression directive: every finding is reported, and a
// finding fails CI until the code is fixed.
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
	// Name identifies the analyzer in diagnostics.
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

	diags *[]Diagnostic
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

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// InTestFile reports whether pos lies in a _test.go file. Several
// invariants (wall-clock use, context.Background) are relaxed in tests.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// RunAnalyzers applies every analyzer to every package and returns all
// diagnostics sorted by position. Analyzer errors (not findings) abort.
// The run shares one Facts (call graph + memoized closures) across all
// packages.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
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
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Types.Path(), err)
			}
		}
	}
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

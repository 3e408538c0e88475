package lint

import (
	"go/ast"
)

// ObsJournal enforces fixed-shape journal records. Outside
// internal/obs/tracing, tracing.Span values come only from the Tracer
// recording methods (Record, RecordWith and their Attrs forms) and the
// Span.WithRun combinator, never as ad-hoc literals — a hand-rolled span
// can skip ID allocation and break the journal's uniqueness and
// determinism contracts. An attribute block is built with
// tracing.NewAttrs, never as a literal that sets fields: a keyed literal
// silently zero-fills omitted fields, and for Server/Target the zero value
// is a *valid server ID* — the constructor forces both to be stated (with
// -1 meaning "none"), which keeps the event journal projected from the
// spans unambiguous. The empty literal is allowed: it is the documented
// "no attributes" value. _test.go files may use literals to state
// expectations.
var ObsJournal = &Analyzer{
	Name: "obsjournal",
	Doc:  "spans and their attribute blocks are built by tracing constructors, not ad-hoc literals",
	Run:  runObsJournal,
}

func runObsJournal(pass *Pass) error {
	if pass.Pkg.Path() == tracingPath {
		return nil
	}
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[lit]
			if !ok {
				return true
			}
			if isNamed(tv.Type, tracingPath, "Span") {
				pass.Reportf(lit.Pos(),
					"ad-hoc tracing.Span literal: record spans through Tracer.Record/RecordWith so IDs are allocated and the journal stays deterministic")
			}
			if len(lit.Elts) > 0 && isNamed(tv.Type, tracingPath, "Attrs") {
				pass.Reportf(lit.Pos(),
					"ad-hoc tracing.Attrs literal: use tracing.NewAttrs (fixed field order, explicit Server/Target) so omitted fields cannot silently become server 0")
			}
			return true
		})
	}
	return nil
}

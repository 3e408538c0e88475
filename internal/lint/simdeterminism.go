package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// SimDeterminism enforces the simulator's core contract: a run — including
// its event journal — is a pure function of its configuration, so results
// and journals are byte-identical at every RunSweepContext worker count.
//
// In the simulation packages (edgesim, simnet, mobility, estimator,
// gpusim, geo) it forbids, outside _test.go files:
//
//   - wall-clock reads (time.Now, time.Since, and the timer family):
//     simulated time must come from the engine's virtual clock;
//   - package-level math/rand functions (rand.Intn, rand.Float64,
//     rand.Shuffle, ...): they draw from the process-global source, whose
//     state depends on every other goroutine; all randomness must flow
//     from a run-scoped rand.New(rand.NewSource(seed));
//   - `range` over a map whose body records spans or accumulates
//     tracing.Span values: Go map order is deliberately randomized, so
//     anything journal-bound must iterate a sorted copy of the keys.
var SimDeterminism = &Analyzer{
	Name: "simdeterminism",
	Doc:  "forbid wall-clock, global math/rand, and journal-feeding map iteration in simulation packages",
	Run:  runSimDeterminism,
}

// wallClockFuncs are the time package functions that observe or schedule
// against the host clock.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true, "Tick": true,
	"NewTimer": true, "NewTicker": true, "AfterFunc": true, "Sleep": true,
}

// seededRandFuncs are the math/rand constructors that produce run-scoped
// generators; everything else at package level draws from the global source.
var seededRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

func runSimDeterminism(pass *Pass) error {
	if !simPackages[pass.Pkg.Path()] {
		return nil
	}
	impure := transitiveImpurity(pass.Facts)
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkWallClock(pass, n)
				checkTransitiveImpurity(pass, n, impure)
			case *ast.SelectorExpr:
				checkGlobalRand(pass, n)
			case *ast.RangeStmt:
				checkJournalMapRange(pass, n)
			}
			return true
		})
	}
	return nil
}

// transitiveImpurity computes, once per run, which functions reach (over
// static call edges) a wall-clock read or a package-level math/rand draw.
// The direct checks above own calls straight into time and math/rand;
// this closure is for helpers one or more hops away.
func transitiveImpurity(facts *Facts) map[*FuncNode]Step {
	return facts.Memo("simdeterminism.impure", func() any {
		return facts.Graph.Propagate(func(n *FuncNode) (token.Pos, bool) {
			if n.Defined() || n.Fn == nil || n.Fn.Pkg() == nil {
				return token.NoPos, false
			}
			switch n.Fn.Pkg().Path() {
			case "time":
				return token.NoPos, funcSig(n.Fn).Recv() == nil && wallClockFuncs[n.Fn.Name()]
			case "math/rand", "math/rand/v2":
				return token.NoPos, funcSig(n.Fn).Recv() == nil && !seededRandFuncs[n.Fn.Name()]
			}
			return token.NoPos, false
		})
	}).(map[*FuncNode]Step)
}

// checkTransitiveImpurity flags a call from a simulation package to a
// helper defined outside the simulation packages that transitively
// reaches the wall clock or the global rand source. Helpers inside sim
// packages are flagged in their own package by the direct checks, and
// direct time/rand calls are owned by checkWallClock/checkGlobalRand, so
// this reports each root cause exactly once.
func checkTransitiveImpurity(pass *Pass, call *ast.CallExpr, impure map[*FuncNode]Step) {
	fn, ok := calleeObject(pass.TypesInfo, call).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time", "math/rand", "math/rand/v2":
		return // direct checks own these
	}
	node := pass.Facts.Graph.Node(FuncKey(fn))
	if node == nil || !node.Defined() || simPackages[node.Pkg.ImportPath] {
		return
	}
	if _, isImpure := impure[node]; isImpure {
		pass.Reportf(call.Pos(),
			"call from simulation package %s reaches nondeterminism: %s — derive time and randomness from run-scoped state",
			pass.Pkg.Name(), DescribeChain(impure, node))
	}
}

func checkWallClock(pass *Pass, call *ast.CallExpr) {
	obj := calleeObject(pass.TypesInfo, call)
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || funcSig(fn).Recv() != nil {
		return
	}
	if wallClockFuncs[fn.Name()] {
		pass.Reportf(call.Pos(),
			"wall-clock time.%s in simulation package %s: derive time from the engine's virtual clock",
			fn.Name(), pass.Pkg.Name())
	}
}

func checkGlobalRand(pass *Pass, sel *ast.SelectorExpr) {
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || funcSig(fn).Recv() != nil {
		return
	}
	path := fn.Pkg().Path()
	if path != "math/rand" && path != "math/rand/v2" {
		return
	}
	if seededRandFuncs[fn.Name()] {
		return
	}
	pass.Reportf(sel.Pos(),
		"package-level rand.%s draws from the process-global source: use a run-scoped rand.New(rand.NewSource(seed))",
		fn.Name())
}

// checkJournalMapRange flags `range m` over a map when the loop body
// records journal spans, because map iteration order would leak into the
// journal.
func checkJournalMapRange(pass *Pass, rng *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	// Ignoring both loop variables (e.g. `for range m`) cannot leak order.
	if rng.Key == nil && rng.Value == nil {
		return
	}
	var emit ast.Node
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if emit != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if recordsJournal(pass.TypesInfo, call) {
			emit = call
			return false
		}
		return true
	})
	if emit != nil {
		pass.Reportf(rng.Pos(),
			"map iteration order reaches the journal (span recorded in loop body): iterate a sorted copy of the keys")
	}
}

// recordsJournal reports whether the call puts a span on the record: a
// Tracer recording method (Record, RecordWith and their Attrs forms), an
// append of tracing.Span values, or a call to a local recording helper
// (a function or method named emit/record* by convention, such as
// world.recordDecision in edgesim).
func recordsJournal(info *types.Info, call *ast.CallExpr) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && len(call.Args) > 0 {
			if tv, ok := info.Types[call.Args[0]]; ok {
				if s, ok := tv.Type.Underlying().(*types.Slice); ok && isNamed(s.Elem(), tracingPath, "Span") {
					return true
				}
			}
		}
	}
	fn, ok := calleeObject(info, call).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	name := fn.Name()
	if recv := funcSig(fn).Recv(); recv != nil && isNamed(recv.Type(), tracingPath, "Tracer") {
		return strings.HasPrefix(name, "Record")
	}
	name = strings.ToLower(name)
	return name == "emit" || strings.HasPrefix(name, "record")
}

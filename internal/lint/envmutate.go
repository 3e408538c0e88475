package lint

import (
	"go/ast"
	"go/types"
)

// EnvMutate enforces the immutability contract behind the parallel sweep
// engine: an *edgesim.Env is shared, unsynchronized, by every concurrent
// RunSweepContext worker, so after PrepareEnv returns nothing may write
// through it. Code that wants a variant must copy the struct value
// (`v := *env; v.Predictor = p`) — writes to a value copy are fine and are
// not flagged. Outside _test.go files the analyzer reports any field
// assignment (including op-assign and ++/--) or whole-struct store made
// through an *edgesim.Env pointer, in every package including edgesim
// itself.
var EnvMutate = &Analyzer{
	Name: "envmutate",
	Doc:  "no writes through *edgesim.Env after PrepareEnv: copy the struct for variants",
	Run:  runEnvMutate,
}

func runEnvMutate(pass *Pass) error {
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					checkEnvWrite(pass, lhs)
				}
			case *ast.IncDecStmt:
				checkEnvWrite(pass, n.X)
			}
			return true
		})
	}
	return nil
}

// checkEnvWrite reports lhs when it stores through an *edgesim.Env.
func checkEnvWrite(pass *Pass, lhs ast.Expr) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		// env.Field = ... where env is a *Env (selectors on an Env *value*
		// mutate a copy and are allowed).
		tv, ok := pass.TypesInfo.Types[lhs.X]
		if !ok {
			return
		}
		if _, isPtr := types.Unalias(tv.Type).(*types.Pointer); !isPtr {
			return
		}
		if isNamed(tv.Type, edgesimPath, "Env") {
			pass.Reportf(lhs.Pos(),
				"write to %s through *edgesim.Env: an Env is immutable after PrepareEnv (concurrent sweeps share it); copy the struct for variants",
				lhs.Sel.Name)
		}
	case *ast.StarExpr:
		// *env = Env{...}
		tv, ok := pass.TypesInfo.Types[lhs.X]
		if ok && isNamed(tv.Type, edgesimPath, "Env") {
			pass.Reportf(lhs.Pos(),
				"store through *edgesim.Env: an Env is immutable after PrepareEnv; build a new Env instead")
		}
	}
}

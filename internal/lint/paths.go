package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Canonical import paths of the packages whose invariants the suite
// encodes. Fixtures stub these packages under the same import paths in
// testdata/src, so matching is exact, not suffix-based.
const (
	corePath    = "perdnn/internal/core"
	tracingPath = "perdnn/internal/obs/tracing"
	edgesimPath = "perdnn/internal/edgesim"
)

// simPackages are the simulation packages whose runs must be bit-for-bit
// deterministic: no wall clock, no process-global randomness, no map-order
// dependence on anything that reaches a journal or result.
var simPackages = map[string]bool{
	"perdnn/internal/edgesim":   true,
	"perdnn/internal/simnet":    true,
	"perdnn/internal/mobility":  true,
	"perdnn/internal/estimator": true,
	"perdnn/internal/gpusim":    true,
	"perdnn/internal/geo":       true,
}

// livePackages are the live-path packages where context plumbing is
// mandatory: every dial, send, and receive must be cancelable from the
// caller.
var livePackages = map[string]bool{
	"perdnn/internal/wire":   true,
	"perdnn/internal/mobile": true,
	"perdnn/internal/master": true,
	"perdnn/internal/edged":  true,
}

// calleeObject resolves the object a call expression invokes, or nil for
// indirect calls (function values, method expressions through variables).
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fn]
	case *ast.SelectorExpr:
		return info.Uses[fn.Sel]
	}
	return nil
}

// funcSig returns fn's signature. (*types.Func).Signature exists only
// from go1.23; this type assertion keeps the module at go1.22.
func funcSig(fn *types.Func) *types.Signature {
	return fn.Type().(*types.Signature)
}

// isPkgFunc reports whether obj is the package-level function pkgPath.name.
func isPkgFunc(obj types.Object, pkgPath, name string) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == pkgPath && fn.Name() == name && funcSig(fn).Recv() == nil
}

// namedType unwraps pointers and aliases down to a named type, or nil.
func namedType(t types.Type) *types.Named {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// isNamed reports whether t (possibly behind a pointer) is the named type
// pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	n := namedType(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == pkgPath && n.Obj().Name() == name
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	return isNamed(t, "context", "Context")
}

var errorInterface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrorType reports whether t implements the error interface.
func isErrorType(t types.Type) bool {
	return t != nil && types.Implements(t, errorInterface)
}

// coreSentinel returns the core sentinel-error variable expr refers to
// (a package-level Err* var of error type in internal/core), or nil.
func coreSentinel(info *types.Info, expr ast.Expr) *types.Var {
	var id *ast.Ident
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil || v.Pkg().Path() != corePath {
		return nil
	}
	if v.Parent() != v.Pkg().Scope() || !strings.HasPrefix(v.Name(), "Err") {
		return nil
	}
	if !isErrorType(v.Type()) {
		return nil
	}
	return v
}

// isNilLiteral reports whether expr is the predeclared nil.
func isNilLiteral(info *types.Info, expr ast.Expr) bool {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}

package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxFlow enforces context plumbing on the live path (wire, mobile,
// master, edged): every network operation must be cancelable from the
// caller, because PR 3's fault-tolerance semantics (deadlines, retry
// budgets, clean shutdown) all flow through context. Outside _test.go
// files it reports:
//
//   - a context.Context parameter anywhere but first position: the
//     convention callers and wrappers rely on;
//   - context.Background() / context.TODO() outside package main: a
//     fresh root context severs the caller's cancellation;
//   - exported functions that dial the network without accepting a
//     context: net.Dial/net.DialTimeout and friends cannot be canceled
//     at all.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "live-path functions take ctx first and never mint root contexts outside main",
	Run:  runCtxFlow,
}

// bareDialFuncs are the net-package entry points that open connections
// without accepting a context.
var bareDialFuncs = map[string]bool{
	"Dial": true, "DialTimeout": true, "DialTCP": true, "DialUDP": true, "DialIP": true, "DialUnix": true,
}

func runCtxFlow(pass *Pass) error {
	if !livePackages[pass.Pkg.Path()] {
		return nil
	}
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			checkCtxPosition(pass, fn)
			checkExportedDialer(pass, fn)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			obj := calleeObject(pass.TypesInfo, call)
			if isPkgFunc(obj, "context", "Background") || isPkgFunc(obj, "context", "TODO") {
				pass.Reportf(call.Pos(),
					"context.%s() on the live path severs the caller's cancellation: thread the caller's ctx",
					obj.Name())
			}
			return true
		})
	}
	return nil
}

// checkCtxPosition reports context.Context parameters not in first position.
func checkCtxPosition(pass *Pass, fn *ast.FuncDecl) {
	if fn.Type.Params == nil {
		return
	}
	pos := 0
	for _, field := range fn.Type.Params.List {
		tv, ok := pass.TypesInfo.Types[field.Type]
		isCtx := ok && isContextType(tv.Type)
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if isCtx && pos > 0 {
			pass.Reportf(field.Pos(),
				"context.Context must be the first parameter of %s", fn.Name.Name)
			return
		}
		pos += n
	}
}

// checkExportedDialer reports exported functions that open network
// connections without taking a context.
func checkExportedDialer(pass *Pass, fn *ast.FuncDecl) {
	if !fn.Name.IsExported() || fn.Body == nil || hasCtxParam(pass.TypesInfo, fn) {
		return
	}
	var dial *ast.CallExpr
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if dial != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if obj, ok := calleeObject(pass.TypesInfo, call).(*types.Func); ok {
			if obj.Pkg() != nil && obj.Pkg().Path() == "net" &&
				funcSig(obj).Recv() == nil && bareDialFuncs[obj.Name()] {
				dial = call
				return false
			}
		}
		return true
	})
	if dial != nil {
		name := fn.Name.Name
		if fn.Recv != nil {
			name = recvName(fn) + "." + name
		}
		pass.Reportf(dial.Pos(),
			"exported %s dials the network without accepting a context.Context: the connection cannot be canceled",
			name)
	}
}

func hasCtxParam(info *types.Info, fn *ast.FuncDecl) bool {
	if fn.Type.Params == nil {
		return false
	}
	for _, field := range fn.Type.Params.List {
		if tv, ok := info.Types[field.Type]; ok && isContextType(tv.Type) {
			return true
		}
	}
	return false
}

func recvName(fn *ast.FuncDecl) string {
	if len(fn.Recv.List) == 0 {
		return "?"
	}
	var sb strings.Builder
	writeTypeExpr(&sb, fn.Recv.List[0].Type)
	return sb.String()
}

func writeTypeExpr(sb *strings.Builder, e ast.Expr) {
	switch e := e.(type) {
	case *ast.StarExpr:
		sb.WriteByte('*')
		writeTypeExpr(sb, e.X)
	case *ast.Ident:
		sb.WriteString(e.Name)
	case *ast.IndexExpr:
		writeTypeExpr(sb, e.X)
	default:
		sb.WriteByte('?')
	}
}

package lint

import (
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"
)

// LockHygiene enforces the daemons' lock discipline statically. The
// -race gate catches data races; it cannot catch a latency cliff, and
// PerDNN's SLO story dies the first time a request handler sleeps or
// does wire I/O while holding the mutex every other request needs. Two
// rules, checked in every package:
//
//  1. No blocking operation — channel send/receive/range, select without
//     a default, time.Sleep, WaitGroup.Wait, Cond.Wait, wire/net I/O,
//     io.ReadFull and friends — may execute while a sync.Mutex or
//     RWMutex is held. The check is interprocedural: a call to a
//     function that transitively blocks (over static call edges) is a
//     violation at the call site, with the offending chain named.
//  2. Every Lock/RLock must be matched by an Unlock/RUnlock of the same
//     lock expression somewhere in the function — deferred or explicit.
//     A function that acquires and never releases leaks the lock past
//     every return.
//
// The blocking fact propagates over static edges only; interface method
// calls are classified by the interface method itself (net.Conn.Read is
// blocking wherever it resolves), not by fanning out to every
// implementation, which would let one slow test double poison every
// caller of io.Writer.
//
// Locks are identified by the rendered receiver expression ("s.mu",
// "p.clients.mu"), so aliasing through pointers is invisible — the
// analyzer is deliberately syntactic where the repo's style is too.
var LockHygiene = &Analyzer{
	Name: "lockhygiene",
	Doc:  "forbid blocking operations under sync.Mutex/RWMutex and locks without a matching release",
	Run:  runLockHygiene,
}

// blockingExternal classifies external callees (by FuncKey) that park
// the calling goroutine.
var blockingExternal = map[string]string{
	"time.Sleep":             "time.Sleep",
	"sync.WaitGroup.Wait":    "WaitGroup.Wait",
	"sync.Cond.Wait":         "Cond.Wait",
	"io.ReadFull":            "io.ReadFull",
	"io.ReadAll":             "io.ReadAll",
	"io.Copy":                "io.Copy",
	"io.CopyN":               "io.CopyN",
	"net.Conn.Read":          "net.Conn.Read",
	"net.Conn.Write":         "net.Conn.Write",
	"net.Listener.Accept":    "net.Listener.Accept",
	"net.Dial":               "net.Dial",
	"net.DialTimeout":        "net.DialTimeout",
	"net.Listen":             "net.Listen",
	"net.Dialer.DialContext": "Dialer.DialContext",
	"os/exec.Cmd.Run":        "exec.Cmd.Run",
	"os/exec.Cmd.Wait":       "exec.Cmd.Wait",
	"os/exec.Cmd.Output":     "exec.Cmd.Output",
}

// lockAcquire and lockRelease are the sync mutex methods the analyzer
// tracks.
var lockAcquire = map[string]bool{"Lock": true, "RLock": true}
var lockRelease = map[string]bool{"Unlock": true, "RUnlock": true}

func runLockHygiene(pass *Pass) error {
	blocks := transitiveBlocking(pass.Facts)
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := &lockWalker{pass: pass, blocks: blocks}
			w.stmts(fd.Body.List, lockState{})
			checkLockReleased(pass, fd)
		}
	}
	return nil
}

// transitiveBlocking computes, once per run, which defined functions can
// park the calling goroutine, with an exemplar chain to the evidence.
func transitiveBlocking(facts *Facts) map[*FuncNode]Step {
	return facts.Memo("lockhygiene.blocking", func() any {
		return facts.Graph.Propagate(func(n *FuncNode) (token.Pos, bool) {
			if !n.Defined() {
				_, ok := blockingExternal[n.Key]
				return token.NoPos, ok
			}
			return directBlockingSite(n.Pkg.Info, n.Decl.Body)
		})
	}).(map[*FuncNode]Step)
}

// directBlockingSite reports the first syntactic blocking construct in a
// body, if any.
func directBlockingSite(info *types.Info, body ast.Node) (token.Pos, bool) {
	var found token.Pos
	visitBlocking(info, body, func(pos token.Pos, _ string) bool {
		found = pos
		return false
	})
	return found, found != token.NoPos
}

// visitBlocking reports each direct blocking construct under n to f
// (position and a short label) until f returns false. Bodies of
// `go`-spawned code are skipped: the goroutine blocks, not the caller.
func visitBlocking(info *types.Info, n ast.Node, f func(token.Pos, string) bool) {
	if n == nil {
		return
	}
	stop := false
	var visit func(nd ast.Node) bool
	visit = func(nd ast.Node) bool {
		if stop {
			return false
		}
		report := func(pos token.Pos, what string) {
			if !f(pos, what) {
				stop = true
			}
		}
		switch nd := nd.(type) {
		case *ast.GoStmt:
			return false
		case *ast.SendStmt:
			report(nd.Pos(), "channel send")
			return !stop
		case *ast.UnaryExpr:
			if nd.Op == token.ARROW {
				report(nd.Pos(), "channel receive")
			}
			return !stop
		case *ast.RangeStmt:
			if tv, ok := info.Types[nd.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					report(nd.Pos(), "range over channel")
				}
			}
			return !stop
		case *ast.SelectStmt:
			hasDefault := false
			for _, cl := range nd.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				report(nd.Pos(), "select without default")
			}
			// The comm operations belong to the select; walk only the
			// clause bodies so they are not re-reported individually.
			for _, cl := range nd.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok {
					for _, st := range cc.Body {
						ast.Inspect(st, visit)
					}
				}
			}
			return false
		case *ast.CallExpr:
			if fn, ok := calleeObject(info, nd).(*types.Func); ok {
				if what, ok := blockingExternal[FuncKey(fn)]; ok {
					report(nd.Pos(), what)
				}
			}
			return !stop
		}
		return true
	}
	ast.Inspect(n, visit)
}

// lockCall decodes a call to (*sync.Mutex)/(*sync.RWMutex) Lock/RLock/
// Unlock/RUnlock, returning the rendered lock expression and method name.
func lockCall(info *types.Info, fset *token.FileSet, callExpr *ast.CallExpr) (lock, method string, ok bool) {
	sel, isSel := ast.Unparen(callExpr.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	fn, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	recv := funcSig(fn).Recv()
	if recv == nil {
		return "", "", false
	}
	n := namedType(recv.Type())
	if n == nil || (n.Obj().Name() != "Mutex" && n.Obj().Name() != "RWMutex") {
		return "", "", false
	}
	if !lockAcquire[fn.Name()] && !lockRelease[fn.Name()] {
		return "", "", false
	}
	return renderExpr(fset, sel.X), fn.Name(), true
}

// renderExpr prints a receiver expression compactly for use as a lock key.
func renderExpr(fset *token.FileSet, e ast.Expr) string {
	var sb strings.Builder
	_ = printer.Fprint(&sb, fset, e)
	return sb.String()
}

// lockState tracks which lock expressions are held at a program point.
type lockState map[string]token.Pos

func (s lockState) clone() lockState {
	c := make(lockState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

type lockWalker struct {
	pass   *Pass
	blocks map[*FuncNode]Step
}

// stmts interprets a statement list in order, returning the lock state at
// its end (nil when the list always terminates the function).
func (w *lockWalker) stmts(list []ast.Stmt, held lockState) lockState {
	for _, st := range list {
		held = w.stmt(st, held)
		if held == nil {
			return nil
		}
	}
	return held
}

func (w *lockWalker) stmt(st ast.Stmt, held lockState) lockState {
	switch st := st.(type) {
	case *ast.ExprStmt:
		if callExpr, ok := st.X.(*ast.CallExpr); ok {
			if lock, method, ok := lockCall(w.pass.TypesInfo, w.pass.Fset, callExpr); ok {
				switch {
				case lockAcquire[method]:
					held[lock] = callExpr.Pos()
				case lockRelease[method]:
					delete(held, lock)
				}
				return held
			}
		}
		w.check(st, held)
		return held
	case *ast.DeferStmt:
		// A deferred Unlock releases only at return: the lock stays held
		// for every statement that follows, which is exactly the region
		// the blocking rule must cover, so held is unchanged.
		return held
	case *ast.ReturnStmt:
		w.check(st, held)
		return nil
	case *ast.BranchStmt:
		return held
	case *ast.BlockStmt:
		return w.stmts(st.List, held.clone())
	case *ast.IfStmt:
		w.check(st.Init, held)
		w.check(st.Cond, held)
		after := w.stmts(st.Body.List, held.clone())
		elseAfter := held.clone()
		switch e := st.Else.(type) {
		case *ast.BlockStmt:
			elseAfter = w.stmts(e.List, held.clone())
		case *ast.IfStmt:
			elseAfter = w.stmt(e, held.clone())
		}
		return unionLocks(after, elseAfter)
	case *ast.SwitchStmt:
		w.check(st.Init, held)
		w.check(st.Tag, held)
		return w.caseClauses(st.Body.List, held)
	case *ast.TypeSwitchStmt:
		w.check(st.Init, held)
		w.check(st.Assign, held)
		return w.caseClauses(st.Body.List, held)
	case *ast.ForStmt:
		// One pass over the body: locks acquired inside an iteration are
		// assumed balanced within it; the post-state unions the body's
		// end so a Lock in the body is still seen downstream.
		w.check(st.Init, held)
		w.check(st.Cond, held)
		end := w.stmts(st.Body.List, held.clone())
		return unionLocks(held, end)
	case *ast.RangeStmt:
		if len(held) > 0 {
			if tv, ok := w.pass.TypesInfo.Types[st.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					w.report(st.Pos(), "range over channel", held)
				}
			}
		}
		w.check(st.X, held)
		end := w.stmts(st.Body.List, held.clone())
		return unionLocks(held, end)
	case *ast.SelectStmt:
		// The select (with its comm clauses and bodies) is one region;
		// visitBlocking understands its default-clause semantics.
		w.check(st, held)
		return held
	case *ast.LabeledStmt:
		return w.stmt(st.Stmt, held)
	case *ast.GoStmt:
		return held
	default:
		w.check(st, held)
		return held
	}
}

// caseClauses interprets switch clause bodies independently and unions
// their post-states. Without a default clause the entry state joins the
// union (the switch may match nothing); with one, only the clause
// post-states survive, so a nil result means every path terminates.
func (w *lockWalker) caseClauses(clauses []ast.Stmt, held lockState) lockState {
	hasDefault := false
	any := false
	var merged lockState
	for _, cl := range clauses {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		for _, e := range cc.List {
			w.check(e, held)
		}
		merged = unionLocks(merged, w.stmts(cc.Body, held.clone()))
		any = true
	}
	if !hasDefault || !any {
		merged = unionLocks(merged, held.clone())
	}
	return merged
}

// unionLocks merges two post-states: a lock is held after the join if it
// is held on any non-terminating branch.
func unionLocks(a, b lockState) lockState {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	for k, v := range b {
		if _, ok := a[k]; !ok {
			a[k] = v
		}
	}
	return a
}

func (w *lockWalker) report(pos token.Pos, what string, held lockState) {
	lock := ""
	for k := range held {
		if lock == "" || k < lock {
			lock = k
		}
	}
	w.pass.Reportf(pos, "%s while %s is held: release the lock before blocking", what, lock)
}

// check reports blocking constructs and transitively-blocking calls under
// n while any lock is held.
func (w *lockWalker) check(n ast.Node, held lockState) {
	if n == nil || len(held) == 0 {
		return
	}
	visitBlocking(w.pass.TypesInfo, n, func(pos token.Pos, what string) bool {
		w.report(pos, what, held)
		return true
	})
	lock := ""
	for k := range held {
		if lock == "" || k < lock {
			lock = k
		}
	}
	ast.Inspect(n, func(nd ast.Node) bool {
		switch nd.(type) {
		case *ast.GoStmt, *ast.FuncLit:
			return false
		}
		callExpr, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn, ok := calleeObject(w.pass.TypesInfo, callExpr).(*types.Func)
		if !ok {
			return true
		}
		node := w.pass.Facts.Graph.Node(FuncKey(fn))
		if node == nil || !node.Defined() {
			return true
		}
		if _, blocksBelow := w.blocks[node]; blocksBelow {
			w.pass.Reportf(callExpr.Pos(),
				"call to %s blocks while %s is held (chain: %s): release the lock first",
				node.Name(), lock, DescribeChain(w.blocks, node))
		}
		return true
	})
}

// checkLockReleased enforces rule 2: every acquire has a matching release
// (deferred or explicit) of the same lock expression in the function.
func checkLockReleased(pass *Pass, fd *ast.FuncDecl) {
	type acquire struct {
		pos    token.Pos
		method string
	}
	acquires := map[string][]acquire{}
	released := map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a literal balances its own locks
		}
		callExpr, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		lock, method, ok := lockCall(pass.TypesInfo, pass.Fset, callExpr)
		if !ok {
			return true
		}
		if lockAcquire[method] {
			acquires[lock] = append(acquires[lock], acquire{callExpr.Pos(), method})
		} else {
			released[lock] = true
		}
		return true
	})
	for lock, list := range acquires {
		if released[lock] {
			continue
		}
		for _, a := range list {
			pass.Reportf(a.pos, "%s.%s is never released in %s: add a matching unlock (defer preferred)",
				lock, a.method, fnName(fd))
		}
	}
}

func fnName(fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		return fmt.Sprintf("(%s).%s", renderRecvType(fd.Recv.List[0].Type), fd.Name.Name)
	}
	return fd.Name.Name
}

func renderRecvType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return "*" + renderRecvType(e.X)
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr:
		return renderRecvType(e.X)
	case *ast.IndexListExpr:
		return renderRecvType(e.X)
	}
	return "?"
}

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the suite's interprocedural backbone: a static call graph
// over every loaded package, shared across analyzers through the per-run
// Facts layer. lockhygiene and simdeterminism, which would otherwise stop
// at a function boundary, ask it which functions transitively reach a
// blocking call or a nondeterminism source.
//
// Design constraints, in order of importance:
//
//   - A package type-checked from source and the same package seen through
//     gc export data yield *different* types.Object values, so nodes are
//     keyed by a stable string ("pkg/path.Recv.Name"), never by object
//     identity.
//   - Only calls Go resolves statically — a named function or a concrete
//     method — become edges. Calls through an interface or a func value
//     have none: lockhygiene classifies the interface methods it cares
//     about (net.Conn.Read, …) at the call site instead.
//   - Function literals have no identity of their own: their bodies are
//     attributed to the enclosing declared function, which matches how the
//     invariants are stated ("must not block under the lock", including in
//     any closure it runs synchronously).

// An Edge is one resolved call: at Site, Node calls the owning node.
type Edge struct {
	Site token.Pos
	Node *FuncNode
}

// A FuncNode is one function in the graph. Functions defined in a loaded
// package carry their declaration; everything else (stdlib, export-data
// deps, interface methods) is an external node with only identity.
type FuncNode struct {
	// Key is the stable identity: "pkg/path.Name" for package functions,
	// "pkg/path.Recv.Name" for methods (the receiver's named type, for
	// both concrete and interface receivers).
	Key string
	// Fn is the type-checker object the node was created from. Distinct
	// loads of the same function may carry distinct objects; Key is the
	// identity, Fn is a representative.
	Fn *types.Func
	// Pkg is the loaded package defining the function, nil for external.
	Pkg *Package
	// Decl is the function's declaration when Pkg != nil.
	Decl *ast.FuncDecl
	// In lists the node's callers, one edge per caller.
	In []Edge
}

// Defined reports whether the node's body is available for inspection.
func (n *FuncNode) Defined() bool { return n.Decl != nil }

// Name returns a short human form of the key — the package basename plus
// the function ("partition.Solver.Partition", "time.Now") — so
// diagnostics stay readable without losing which package a hop is in.
func (n *FuncNode) Name() string {
	if i := strings.LastIndex(n.Key, "/"); i >= 0 {
		return n.Key[i+1:]
	}
	return n.Key
}

// A CallGraph is the whole-program (all loaded packages) call graph.
type CallGraph struct {
	nodes map[string]*FuncNode
}

// Node returns the node for key, or nil.
func (g *CallGraph) Node(key string) *FuncNode { return g.nodes[key] }

// Nodes returns every node in deterministic key order.
func (g *CallGraph) Nodes() []*FuncNode {
	keys := make([]string, 0, len(g.nodes))
	for k := range g.nodes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*FuncNode, len(keys))
	for i, k := range keys {
		out[i] = g.nodes[k]
	}
	return out
}

// FuncKey computes the stable node key for fn. Interface methods key on
// the interface's named type, so "net.Conn.Write" identifies the method
// set member independent of any implementation.
func FuncKey(fn *types.Func) string {
	path := ""
	if fn.Pkg() != nil {
		path = fn.Pkg().Path()
	}
	if recv := funcSig(fn).Recv(); recv != nil {
		recvName := "?"
		if n := namedType(recv.Type()); n != nil {
			recvName = n.Obj().Name()
			if n.Obj().Pkg() != nil {
				path = n.Obj().Pkg().Path()
			}
		} else if iface, ok := types.Unalias(recv.Type()).(*types.Interface); ok && iface != nil {
			// Method of an anonymous interface type; fall back to the
			// method's own package with a marker receiver.
			recvName = "interface"
		}
		if path == "" {
			return recvName + "." + fn.Name()
		}
		return path + "." + recvName + "." + fn.Name()
	}
	if path == "" {
		return fn.Name()
	}
	return path + "." + fn.Name()
}

// BuildCallGraph constructs the graph over pkgs. Call sites in _test.go
// files are included; analyzers that relax invariants in tests filter at
// reporting time.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{nodes: map[string]*FuncNode{}}
	seen := map[[2]*FuncNode]bool{} // one edge per (caller, callee); the first site stands in for all
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				// A caller seen earlier may already have created the node
				// as external; the declaration fills it in.
				caller := g.ensure(fn)
				caller.Pkg, caller.Decl, caller.Fn = pkg, fd, fn
				ast.Inspect(fd.Body, func(nd ast.Node) bool {
					call, ok := nd.(*ast.CallExpr)
					if !ok {
						return true
					}
					callee, ok := calleeObject(pkg.Info, call).(*types.Func)
					if !ok {
						return true // conversion, builtin, or call through a func value
					}
					if recv := funcSig(callee).Recv(); recv != nil && types.IsInterface(recv.Type()) {
						return true
					}
					n := g.ensure(callee)
					if k := [2]*FuncNode{caller, n}; !seen[k] {
						seen[k] = true
						n.In = append(n.In, Edge{Site: call.Lparen, Node: caller})
					}
					return true
				})
			}
		}
	}
	return g
}

func (g *CallGraph) ensure(fn *types.Func) *FuncNode {
	key := FuncKey(fn)
	if n, ok := g.nodes[key]; ok {
		return n
	}
	n := &FuncNode{Key: key, Fn: fn}
	g.nodes[key] = n
	return n
}

// A Step is one link in an exemplar chain produced by Propagate: the
// owning node calls Next at Site; a Step with Next == nil marks direct
// evidence at Site in the node itself.
type Step struct {
	Site token.Pos
	Next *FuncNode
}

// Propagate computes the transitive closure of a boolean property over
// reverse edges: a node has the property if direct(node) reports it, or if
// it calls a node that has it. The result maps each holding node to one
// exemplar step toward the evidence; following Next links always
// terminates because each node is assigned a step exactly once, when first
// discovered.
func (g *CallGraph) Propagate(direct func(*FuncNode) (token.Pos, bool)) map[*FuncNode]Step {
	facts := map[*FuncNode]Step{}
	var queue []*FuncNode
	for _, n := range g.Nodes() {
		if pos, ok := direct(n); ok {
			facts[n] = Step{Site: pos}
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.In {
			caller := e.Node
			if _, ok := facts[caller]; ok {
				continue
			}
			facts[caller] = Step{Site: e.Site, Next: n}
			queue = append(queue, caller)
		}
	}
	return facts
}

// DescribeChain renders the exemplar evidence chain for n as
// "a → b → leaf", up to a small bound. n must hold the property in facts.
func DescribeChain(facts map[*FuncNode]Step, n *FuncNode) string {
	var parts []string
	for hops := 0; n != nil && hops < 8; hops++ {
		parts = append(parts, n.Name())
		step, ok := facts[n]
		if !ok {
			break
		}
		n = step.Next
	}
	return strings.Join(parts, " → ")
}

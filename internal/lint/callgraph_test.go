package lint

import (
	"go/importer"
	"go/token"
	"strings"
	"testing"
)

// loadFixtureGraph type-checks fixture packages and builds their call
// graph, the shared setup for the graph unit tests.
func loadFixtureGraph(t *testing.T, paths ...string) *CallGraph {
	t.Helper()
	fset := token.NewFileSet()
	ld := &fixtureLoader{root: fixtureRoot, fset: fset, cache: map[string]*Package{}}
	ld.std = importer.ForCompiler(fset, "gc", nil)
	var pkgs []*Package
	for _, p := range paths {
		pkg, err := ld.load(p)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", p, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return BuildCallGraph(pkgs)
}

func calledBy(n *FuncNode, caller string) bool {
	for _, e := range n.In {
		if e.Node.Key == caller {
			return true
		}
	}
	return false
}

const (
	simdepPath   = "perdnn/internal/simdep"
	transitively = edgesimPath + ".transitively"
)

func TestCallGraphStaticEdges(t *testing.T) {
	g := loadFixtureGraph(t, edgesimPath, simdepPath)
	caller := g.Node(transitively)
	if caller == nil || !caller.Defined() {
		t.Fatalf("%s missing from graph", transitively)
	}
	// Cross-package calls resolve to the callee's declaration whichever
	// package was loaded first; stdlib callees stay external.
	for _, key := range []string{simdepPath + ".Elapsed", simdepPath + ".Pure"} {
		n := g.Node(key)
		if n == nil || !n.Defined() {
			t.Fatalf("%s should be a defined node (its package was loaded)", key)
		}
		if !calledBy(n, transitively) {
			t.Errorf("no edge %s -> %s", transitively, key)
		}
	}
	since := g.Node("time.Since")
	if since == nil || since.Defined() {
		t.Fatal("time.Since should be an external node")
	}
	if !calledBy(since, simdepPath+".wallStep") {
		t.Error("no edge wallStep -> time.Since")
	}
}

func TestCallGraphMethodEdges(t *testing.T) {
	g := loadFixtureGraph(t, "lockuser")
	drain := g.Node("lockuser.S.drain")
	if drain == nil || !calledBy(drain, "lockuser.S.TransitiveWait") {
		t.Fatal("concrete method call TransitiveWait -> drain has no edge")
	}
	if n := len(g.Node("sync.Mutex.Lock").In); n < 2 {
		t.Errorf("sync.Mutex.Lock has %d callers, want one edge per calling function", n)
	}
	for _, e := range g.Node("lockuser.S.pingA").In {
		if e.Node.Key == "lockuser.S.pingA" {
			t.Error("pingA lists itself as a caller")
		}
	}
}

func TestPropagateAndDescribeChain(t *testing.T) {
	g := loadFixtureGraph(t, edgesimPath, simdepPath)
	facts := g.Propagate(func(n *FuncNode) (token.Pos, bool) {
		return token.NoPos, n.Key == "time.Since"
	})
	caller := g.Node(transitively)
	if _, ok := facts[caller]; !ok {
		t.Fatalf("%s should inherit the property from time.Since", transitively)
	}
	if _, ok := facts[g.Node(simdepPath+".Pure")]; ok {
		t.Error("Pure does not reach time.Since and must not hold the property")
	}
	if got, want := DescribeChain(facts, caller), "edgesim.transitively → simdep.Elapsed → simdep.wallStep → time.Since"; got != want {
		t.Errorf("chain %q, want %q", got, want)
	}
}

func TestPropagateTerminatesOnCycle(t *testing.T) {
	g := loadFixtureGraph(t, "lockuser")
	facts := g.Propagate(func(n *FuncNode) (token.Pos, bool) {
		return token.NoPos, n.Key == "lockuser.S.pingB"
	})
	for _, key := range []string{"lockuser.S.pingA", "lockuser.S.pingB", "lockuser.S.CycleUnderLock"} {
		if _, ok := facts[g.Node(key)]; !ok {
			t.Errorf("%s reaches pingB and should hold the property", key)
		}
	}
	if chain := DescribeChain(facts, g.Node("lockuser.S.pingA")); !strings.HasSuffix(chain, "lockuser.S.pingB") {
		t.Errorf("chain %q should end at pingB, the direct evidence", chain)
	}
}

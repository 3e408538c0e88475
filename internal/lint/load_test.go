package lint

import "testing"

// TestRepoInvariants runs the full suite over the real tree, so `go test
// ./...` is the gate that `go run ./cmd/perdnn-vet` runs by hand.
// Loading shells out to `go list -export`, which is served from the build
// cache; skip under -short for tight edit loops.
func TestRepoInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping whole-repo analysis in -short mode")
	}
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading repo: %v", err)
	}
	if len(pkgs) < 15 {
		t.Fatalf("loaded only %d packages; loader is missing the tree", len(pkgs))
	}
	diags, err := RunAnalyzers(pkgs, All())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestLoadBuildTaggedPackage checks that export-data loading respects
// build constraints: raceguard has //go:build race and !race files, and
// only the file matching the default (race-off) build may be parsed, or
// the package would declare Enabled twice and fail to check.
func TestLoadBuildTaggedPackage(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go toolchain")
	}
	pkgs, err := Load("../..", "./internal/raceguard")
	if err != nil {
		t.Fatalf("loading internal/raceguard: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	if n := len(pkg.Files); n != 2 {
		// doc.go + exactly one of race.go / norace.go.
		t.Fatalf("parsed %d files, want 2 (doc + the build-selected variant)", n)
	}
	obj := pkg.Types.Scope().Lookup("Enabled")
	if obj == nil {
		t.Fatal("raceguard.Enabled missing from type info")
	}
}

// TestLoadSinglePackage checks the loader's type information is real: it
// must resolve imports through export data, not stubs.
func TestLoadSinglePackage(t *testing.T) {
	pkgs, err := Load("../..", "./internal/obs")
	if err != nil {
		t.Fatalf("loading internal/obs: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	if pkg.ImportPath != "perdnn/internal/obs" {
		t.Fatalf("import path %q", pkg.ImportPath)
	}
	if pkg.Types.Scope().Lookup("NewRegistry") == nil {
		t.Fatal("type info missing obs.NewRegistry")
	}
	if len(pkg.Info.Uses) == 0 {
		t.Fatal("no uses recorded; type checking did not run")
	}
}

// Command perdnn-vet runs the repo's custom static-analysis suite — the
// compile-time form of the invariants PerDNN's reproduction numbers rest
// on: deterministic simulation runs, sentinel-error discipline, context
// plumbing on the live path, Env immutability, fixed-shape journal
// spans, and lock hygiene. See internal/lint for the analyzers and the
// call graph behind the interprocedural ones.
//
// Usage:
//
//	go run ./cmd/perdnn-vet [flags] [packages]
//
// With no package patterns it analyzes ./.... It always runs the whole
// suite, prints each finding as file:line:col, and exits 1 when any
// analyzer reports one; no finding can be suppressed. -list prints the
// roster and exits. lint.TestRepoInvariants runs the same suite over ./...
// inside `go test ./...`.
package main

import (
	"flag"
	"fmt"
	"os"

	"perdnn/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: perdnn-vet [flags] [packages]\n\nperdnn's invariant checks; see internal/lint.\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	pkgs, err := lint.Load("", flag.Args()...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perdnn-vet: %v\n", err)
		os.Exit(2)
	}
	diags, err := lint.RunAnalyzers(pkgs, lint.All())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perdnn-vet: %v\n", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "perdnn-vet: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}

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
// suite and exits 1 when any analyzer reports a finding, so CI can use it
// as a hard gate; no finding can be suppressed.
//
// Output modes: the default is the classic file:line:col form; -github
// emits GitHub Actions workflow commands (::error file=...) so findings
// annotate the PR diff inline. -list prints the roster and exits.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"perdnn/internal/lint"
)

func main() {
	var (
		list = flag.Bool("list", false, "list analyzers and exit")
		gh   = flag.Bool("github", false, "emit findings as GitHub Actions ::error annotations")
	)
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
		if *gh {
			fmt.Println(githubAnnotation(d))
		} else {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "perdnn-vet: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}

// githubAnnotation renders one finding as a workflow command. Property
// values escape %, CR, LF, comma, and colon per the Actions spec; the
// message data escapes %, CR, LF.
func githubAnnotation(d lint.Diagnostic) string {
	return fmt.Sprintf("::error file=%s,line=%d,col=%d,title=perdnn-vet(%s)::%s",
		escapeGHProperty(d.Pos.Filename), d.Pos.Line, d.Pos.Column,
		escapeGHProperty(d.Analyzer), escapeGHData(d.Message))
}

func escapeGHData(s string) string {
	r := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A")
	return r.Replace(s)
}

func escapeGHProperty(s string) string {
	r := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A", ":", "%3A", ",", "%2C")
	return r.Replace(s)
}

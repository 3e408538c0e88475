package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"perdnn/internal/raceguard"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/quick golden files")

// volatile names the only output fields that may differ between two quick
// runs of one build. Each is masked on both sides of the comparison.
var volatile = []struct {
	exp, field string
	re         *regexp.Regexp
	repl       string
}{
	// Wall-clock training time.
	{"table3", "fit time", regexp.MustCompile(`(?m)^(\S+ +\S+ +\S+% +\S+% +\S+m) +\S+$`), "$1 <fit time>"},
	// A plan request racing the settling of its flight counts as coalesced
	// rather than hit; their sum is exact.
	{"fig9", "plan-cache hits/coalesced split", regexp.MustCompile(`\d+ hits, \d+ coalesced`), "<hits> hits, <coalesced> coalesced"},
}

func mask(exp, out string) string {
	for _, v := range volatile {
		if v.exp == exp {
			out = v.re.ReplaceAllString(out, v.repl)
		}
	}
	return out
}

// TestQuickGolden runs every experiment in main's order, in quick mode, and
// compares its output, banner included, with testdata/quick/<exp>.golden;
// concatenated, the files are what `perdnn-bench -quick` prints. Run with
// -update to rewrite them. fig9 reports the plan cache's work during the
// sweep, so its golden assumes one run per process (-count=1). To profile
// one figure:
//
//	go test -run 'TestQuickGolden/fig9' -cpuprofile cpu.out ./cmd/perdnn-bench
func TestQuickGolden(t *testing.T) {
	if raceguard.Enabled {
		t.Skip("the quick suite is too slow under the race detector")
	}
	for _, e := range experiments {
		t.Run(e.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := runExperiment(context.Background(), &buf, e, true); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "quick", e.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden file (regenerate with -update): %v", err)
			}
			if mask(e.name, buf.String()) != mask(e.name, string(raw)) {
				t.Errorf("%s drifted from %s:\ngot:\n%s\nwant:\n%s\n(if intentional, run with -update)",
					e.name, path, buf.Bytes(), raw)
			}
		})
	}
}

package main

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestRoutingAtDefaultShards: -shards 0, the default, resolves to one
// engine for routing runs (a routing client's home server may sit in
// another region), so a routing cell runs on a multi-core host rather
// than failing the sharded-routing check.
func TestRoutingAtDefaultShards(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	defer func(args []string) { os.Args = args }(os.Args)
	os.Args = []string{"perdnn-sim", "-mode", "routing", "-radius", "0", "-model", "mobilenet", "-steps", "4"}
	if err := run(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckExports(t *testing.T) {
	tests := []struct {
		name     string
		pipeline bool
		cells    int
		paths    exportPaths
		wantFlag string // flag the error must name; "" wants no error
	}{
		{"city without exports", false, 4, exportPaths{}, ""},
		{"city single cell csv", false, 1, exportPaths{csv: "a.csv"}, ""},
		{"city sweep csv", false, 2, exportPaths{csv: "a.csv"}, "-csv"},
		{"city sweep journals", false, 6, exportPaths{events: "e", trace: "t", spans: "s"}, ""},
		{"pipeline trace and spans", true, 3, exportPaths{trace: "t", spans: "s"}, ""},
		{"pipeline events", true, 3, exportPaths{events: "e"}, "-events"},
		{"pipeline csv", true, 1, exportPaths{csv: "a.csv"}, "-csv"},
		{"pipeline events with spans", true, 1, exportPaths{events: "e", spans: "s"}, "-events"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := checkExports(tc.pipeline, tc.cells, tc.paths)
			switch {
			case tc.wantFlag == "" && err != nil:
				t.Fatalf("unexpected error: %v", err)
			case tc.wantFlag != "" && err == nil:
				t.Fatalf("accepted; want an error naming %s", tc.wantFlag)
			case tc.wantFlag != "" && !strings.Contains(err.Error(), tc.wantFlag):
				t.Fatalf("error %q does not name %s", err, tc.wantFlag)
			}
		})
	}
}

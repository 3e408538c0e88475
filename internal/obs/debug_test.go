package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// TestDebugMuxMetricsAndPprof: the debug mux serves the registry as JSON at
// /metrics and the pprof index at /debug/pprof/.
func TestDebugMuxMetricsAndPprof(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("exec_requests_total").Add(3)
	reg.Histogram("exec_latency_ns").Observe(1500)
	srv := httptest.NewServer(NewDebugMux(reg))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics is not JSON: %v\n%s", err, body)
	}
	if snap.Counters["exec_requests_total"] != 3 {
		t.Errorf("counter missing from /metrics: %+v", snap)
	}
	if h, ok := snap.Histograms["exec_latency_ns"]; !ok || h.Count != 1 {
		t.Errorf("histogram missing from /metrics: %+v", snap)
	}

	pprofResp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	pprofBody, err := io.ReadAll(pprofResp.Body)
	if cerr := pprofResp.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if pprofResp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", pprofResp.StatusCode)
	}
	if len(pprofBody) == 0 {
		t.Error("/debug/pprof/ returned an empty body")
	}
}

// TestServeDebugLifecycle: ServeDebugMux binds :0, serves, and closes cleanly.
func TestServeDebugLifecycle(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("up").Set(1)
	d, err := ServeDebugMux("127.0.0.1:0", NewDebugMux(reg))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + d.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	if cerr := resp.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := http.Get("http://" + d.Addr() + "/metrics"); err == nil {
		t.Error("debug server still serving after Close")
	}

	if _, err := ServeDebugMux("127.0.0.1:0", nil); err == nil {
		t.Error("nil handler accepted")
	}
}

// getJSON fetches url and decodes its JSON body into v.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("%s: %v", url, err)
	}
}

// TestMetricsCarriesProcessHealth: /metrics reports the goroutine count,
// the live heap and the total GC pause beside the registry.
func TestMetricsCarriesProcessHealth(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("exec_requests_total").Inc()
	srv := httptest.NewServer(NewDebugMux(reg))
	defer srv.Close()
	runtime.GC() // a pause to count and a marked live heap

	var page struct {
		Counters map[string]int64       `json:"counters"`
		Process  map[string]json.Number `json:"process"`
	}
	getJSON(t, srv.URL+"/metrics", &page)
	if page.Counters["exec_requests_total"] != 1 {
		t.Errorf("registry missing from /metrics: %+v", page.Counters)
	}
	for _, name := range []string{"goroutines", "heap_live_bytes", "gc_pause_total_ns"} {
		v, err := page.Process[name].Int64()
		if err != nil || v <= 0 {
			t.Errorf("/metrics process.%s = %q, want a positive integer", name, page.Process[name])
		}
	}
}

// TestSnapshotHoldsNoProcessHealth: process health stays out of Snapshot,
// so a quiesced registry snapshots the same however the process around it
// moves — the determinism city results and sim journals rely on.
func TestSnapshotHoldsNoProcessHealth(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("exec_requests_total").Inc()
	reg.Gauge("clients").Set(2)
	before, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	go func() { <-stop }() // one more goroutine, and a GC pause
	runtime.GC()
	after, err := json.Marshal(reg.Snapshot())
	close(stop)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Errorf("snapshot moved with the process:\n%s\n%s", before, after)
	}
	for _, key := range []string{"process", "goroutines", "heap_live_bytes", "gc_pause_total_ns"} {
		if strings.Contains(string(after), key) {
			t.Errorf("snapshot carries %q: %s", key, after)
		}
	}
}

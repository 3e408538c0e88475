package edged

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"perdnn/internal/dnn"
	"perdnn/internal/obs"
	"perdnn/internal/wire"
)

// TestDebugEndpointServesDaemonMetrics: wiring a daemon's registry into the
// obs debug listener — exactly what perdnn-edge -debug-addr does — serves
// its live counters on /metrics and the pprof index on /debug/pprof/.
func TestDebugEndpointServesDaemonMetrics(t *testing.T) {
	ctx := context.Background()
	addr, srv := startEdge(t, testConfig())
	dbg, err := obs.ServeDebug("127.0.0.1:0", srv.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cerr := dbg.Close(); cerr != nil {
			t.Errorf("closing debug server: %v", cerr)
		}
	}()

	// Drive one request through the daemon so the counters move.
	conn, err := wire.DialContext(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	resp, err := conn.RoundTripContext(ctx, &wire.Envelope{
		Type:   wire.MsgUploadUnit,
		Upload: &wire.Upload{ClientID: 1, Layers: []dnn.LayerID{0, 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Ack == nil || !resp.Ack.OK {
		t.Fatal("upload rejected")
	}

	get := func(path string) []byte {
		t.Helper()
		r, err := http.Get("http://" + dbg.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, r.StatusCode)
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	var snap obs.Snapshot
	if err := json.Unmarshal(get("/metrics"), &snap); err != nil {
		t.Fatalf("decoding /metrics: %v", err)
	}
	if snap.Counters["requests_total"] < 1 {
		t.Errorf("requests_total = %d, want >= 1", snap.Counters["requests_total"])
	}
	if snap.Counters["uploads_total"] != 1 {
		t.Errorf("uploads_total = %d, want 1", snap.Counters["uploads_total"])
	}
	if !strings.Contains(string(get("/debug/pprof/")), "pprof") {
		t.Error("/debug/pprof/ does not serve the pprof index")
	}
}

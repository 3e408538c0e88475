package mobile_test

import (
	"context"
	"net"
	"testing"
	"time"

	"perdnn/internal/dnn"
	"perdnn/internal/edged"
	"perdnn/internal/geo"
	"perdnn/internal/master"
	"perdnn/internal/mobile"
)

// liveCluster starts two edge daemons in adjacent cells and a master over
// localhost TCP, returning the master address, the edge infos, the master,
// and the edge daemons themselves (for server-side metric assertions).
func liveCluster(t *testing.T) (string, []master.EdgeInfo, *master.Master, []*edged.Server) {
	t.Helper()
	ctx := context.Background()
	grid := geo.NewHexGrid(50)
	locs := []geo.Point{grid.Center(geo.HexCell{Q: 0, R: 0}), grid.Center(geo.HexCell{Q: 1, R: 0})}

	edges := make([]master.EdgeInfo, 0, 2)
	servers := make([]*edged.Server, 0, 2)
	for i, loc := range locs {
		cfg := edged.DefaultConfig(dnn.ModelMobileNet)
		cfg.TimeScale = 0.0005
		cfg.GPUSeed = int64(i + 1)
		srv, err := edged.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			if serveErr := srv.ServeContext(ctx, ln); serveErr != nil {
				t.Errorf("edge serve: %v", serveErr)
			}
		}()
		t.Cleanup(func() {
			if cerr := srv.Close(); cerr != nil {
				t.Logf("closing edge: %v", cerr)
			}
		})
		edges = append(edges, master.EdgeInfo{Addr: ln.Addr().String(), Location: loc})
		servers = append(servers, srv)
	}

	mcfg := master.DefaultConfig(edges)
	mcfg.Radius = 100
	m, err := master.New(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	mln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if serveErr := m.ServeContext(ctx, mln); serveErr != nil {
			t.Errorf("master serve: %v", serveErr)
		}
	}()
	t.Cleanup(func() {
		if cerr := m.Close(); cerr != nil {
			t.Logf("closing master: %v", cerr)
		}
	})
	return mln.Addr().String(), edges, m, servers
}

// TestLiveOffloadingEndToEnd drives the full networked path: register,
// connect to edge A (miss), incremental upload, queries, trajectory reports
// that trigger proactive migration to edge B, then a reconnect at B that
// finds the layers already cached (hit).
func TestLiveOffloadingEndToEnd(t *testing.T) {
	ctx := context.Background()
	masterAddr, edges, m, _ := liveCluster(t)
	pl := m.Placement()

	client, err := mobile.DialContext(ctx, mobile.Config{
		ID:         7,
		Model:      dnn.ModelMobileNet,
		MasterAddr: masterAddr,
		TimeScale:  0.0005,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cerr := client.Close(); cerr != nil {
			t.Logf("closing client: %v", cerr)
		}
	}()

	serverA := pl.ServerAt(edges[0].Location)
	serverB := pl.ServerAt(edges[1].Location)
	if serverA == geo.NoServer || serverB == geo.NoServer || serverA == serverB {
		t.Fatalf("bad placement: %v %v", serverA, serverB)
	}

	// Connect to A: cold, so nothing cached.
	if err := client.ConnectContext(ctx, serverA, edges[0].Addr); err != nil {
		t.Fatal(err)
	}
	present, total := client.CacheState()
	if total == 0 {
		t.Fatal("plan has no server layers")
	}
	if present != 0 {
		t.Errorf("cold connect has %d layers cached", present)
	}

	// A query before upload runs fully locally but must still succeed.
	if _, err := client.QueryContext(ctx); err != nil {
		t.Fatal(err)
	}

	// Incremental upload until complete.
	steps := 0
	for {
		more, err := client.UploadStepContext(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
		steps++
		if steps > 1000 {
			t.Fatal("upload did not terminate")
		}
	}
	if present, total = client.CacheState(); present != total {
		t.Fatalf("upload incomplete: %d/%d", present, total)
	}
	lat, err := client.QueryContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 {
		t.Errorf("query latency %v", lat)
	}
	if est := client.EstimatedLatency(); est <= 0 {
		t.Errorf("estimated latency %v", est)
	}

	// Walk from A toward B; each report lets the master predict and
	// proactively migrate layers A -> B.
	a := edges[0].Location
	for i := 0; i < 5; i++ {
		p := geo.Point{X: a.X + float64(i)*8, Y: a.Y}
		if err := client.ReportLocationContext(ctx, p); err != nil {
			t.Fatal(err)
		}
	}

	// Give the synchronous migration a moment to land at B.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := client.ConnectContext(ctx, serverB, edges[1].Addr); err != nil {
			t.Fatal(err)
		}
		present, total = client.CacheState()
		if present == total || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if present != total {
		t.Fatalf("proactive migration missed: %d/%d layers at B", present, total)
	}

	// The hit connection offloads immediately.
	if _, err := client.QueryContext(ctx); err != nil {
		t.Fatal(err)
	}
}

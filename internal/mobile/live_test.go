package mobile_test

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"perdnn/internal/dnn"
	"perdnn/internal/edged"
	"perdnn/internal/estimator"
	"perdnn/internal/geo"
	"perdnn/internal/gpusim"
	"perdnn/internal/master"
	"perdnn/internal/mobile"
	"perdnn/internal/profile"
)

// trainEstimator trains, once per test binary, the slowdown forest
// master.New would train at every start: same device, parameters and
// seed 1, so it is the forest each cluster helper's master would have
// built for itself.
var trainEstimator = sync.OnceValues(func() (*estimator.ServerEstimator, error) {
	return estimator.TrainServerEstimator(profile.ServerTitanXp(), gpusim.DefaultParams(), 1)
})

// sharedEstimator is the master.Config.Estimator of every test cluster.
func sharedEstimator(tb testing.TB) *estimator.ServerEstimator {
	tb.Helper()
	est, err := trainEstimator()
	if err != nil {
		tb.Fatal(err)
	}
	return est
}

// liveCluster starts two edge daemons in adjacent cells and a master over
// localhost TCP, returning the master address, the edge infos, the master,
// and the edge daemons themselves (for server-side metric assertions).
func liveCluster(t *testing.T) (string, []master.EdgeInfo, *master.Master, []*edged.Server) {
	t.Helper()
	return liveLine(t, 2, 0.0005)
}

// liveLine is liveCluster over n edge daemons in a row of adjacent cells,
// each compressing its simulated time by scale (0: no sleeps at all).
func liveLine(t *testing.T, n int, scale float64) (string, []master.EdgeInfo, *master.Master, []*edged.Server) {
	t.Helper()
	ctx := context.Background()
	grid := geo.NewHexGrid(50)
	locs := make([]geo.Point, n)
	for i := range locs {
		locs[i] = grid.Center(geo.HexCell{Q: i, R: 0})
	}

	edges := make([]master.EdgeInfo, 0, n)
	servers := make([]*edged.Server, 0, n)
	for i, loc := range locs {
		cfg := edged.DefaultConfig(dnn.ModelMobileNet)
		cfg.TimeScale = scale
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
	mcfg.Estimator = sharedEstimator(t)
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

// TestWalkAcrossThreeEdgesPushesOncePerRefresh: a client walking a row of
// three real edges finds its whole plan waiting at every cell it enters,
// while the master orders a push per target once per four reports — not one
// per target on every report.
func TestWalkAcrossThreeEdgesPushesOncePerRefresh(t *testing.T) {
	ctx := context.Background()
	masterAddr, edges, m, servers := liveLine(t, 3, 0.0005)
	pl := m.Placement()
	client, err := mobile.DialContext(ctx, mobile.Config{
		ID:         11,
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
	addrOf := make(map[geo.ServerID]string, len(edges))
	for _, e := range edges {
		addrOf[pl.ServerAt(e.Location)] = e.Addr
	}

	// 8 m a report from the first centre to the last: 87 m between centres,
	// so about eleven reports per cell.
	from, to := edges[0].Location, edges[2].Location
	const stride = 8.0
	reports := int(from.Dist(to)/stride) + 1
	cur, attaches := geo.NoServer, 0
	for i := 0; i < reports; i++ {
		p := from.Lerp(to, float64(i)*stride/from.Dist(to))
		if err := client.ReportLocationContext(ctx, p); err != nil {
			t.Fatalf("report %d: %v", i, err)
		}
		server := pl.ServerAt(p)
		if server == cur {
			continue
		}
		if err := client.ConnectContext(ctx, server, addrOf[server]); err != nil {
			t.Fatalf("attach at report %d: %v", i, err)
		}
		present, total := client.CacheState()
		if cur == geo.NoServer {
			if _, err := client.UploadAllContext(ctx); err != nil {
				t.Fatal(err)
			}
		} else if present != total {
			t.Errorf("attach %d (report %d): %d of %d layers were waiting, want a full hit", attaches, i, present, total)
		}
		cur = server
		attaches++
	}
	if attaches != 3 {
		t.Fatalf("the walk attached %d times, want once per edge", attaches)
	}

	var pushes int64
	for _, s := range servers {
		pushes += s.Metrics().Counter("migrations_total").Value()
	}
	// An edge is pushed to when it enters the prediction and then once per
	// four reports while it stays, so no edge sees more than reports/4 + 1
	// pushes. Ordering every target on every report costs about two pushes
	// per report here.
	if bound := int64(len(edges) * (reports/4 + 1)); pushes > bound || pushes == 0 {
		t.Errorf("%d reports cost %d pushes, want 1..%d", reports, pushes, bound)
	}
	ordered := m.Metrics().Counter("migrations_ordered_total").Value()
	suppressed := m.Metrics().Counter("migrations_suppressed_total").Value()
	if ordered >= int64(reports) || suppressed < ordered {
		t.Errorf("master ordered %d and suppressed %d targets over %d reports; most targets of an ongoing walk are suppressed", ordered, suppressed, reports)
	}
	t.Logf("%d reports: %d orders, %d suppressed, %d pushes", reports, ordered, suppressed, pushes)
}

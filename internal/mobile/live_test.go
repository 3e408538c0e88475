package mobile_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"perdnn/internal/dnn"
	"perdnn/internal/edged"
	"perdnn/internal/geo"
	"perdnn/internal/livetest"
	"perdnn/internal/master"
	"perdnn/internal/mobile"
	"perdnn/internal/obs/tracing"
)

// topology is a live test cluster: Edges edge daemons serving Model in a
// row of adjacent cells, each compressing modelled time by Scale (0: no
// sleeps at all), and a master over them. EdgeTracers[i], where there is
// one, traces edge i as node "server/i"; Master, when set, edits the
// master's config before the master is built.
type topology struct {
	Edges        int
	Model        dnn.ModelName
	Scale        float64
	EdgeTracers  []*tracing.Tracer
	MasterTracer *tracing.Tracer
	Master       func(*master.Config)
}

// twoEdges is the topology most live tests run on.
var twoEdges = topology{Edges: 2, Model: dnn.ModelMobileNet, Scale: 0.0005}

// cluster is a started topology. Every daemon runs on loopback until the
// test ends.
type cluster struct {
	addr    string // the master's
	m       *master.Master
	edges   []master.EdgeInfo // as the master's config names them
	servers []*edged.Server   // servers[i] runs at edges[i]'s cell
	stops   []func()          // stops[i] stops servers[i]
}

func (topo topology) start(tb testing.TB) *cluster {
	tb.Helper()
	grid := geo.NewHexGrid(50)
	c := &cluster{}
	for i := 0; i < topo.Edges; i++ {
		cfg := edged.DefaultConfig(topo.Model)
		cfg.TimeScale = topo.Scale
		cfg.GPUSeed = int64(i + 1)
		cfg.Logger = quietLogger()
		cfg.Node = fmt.Sprintf("server/%d", i)
		if i < len(topo.EdgeTracers) {
			cfg.Tracer = topo.EdgeTracers[i]
		}
		srv, err := edged.New(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		addr, stop := livetest.Serve(tb, srv)
		c.edges = append(c.edges, master.EdgeInfo{Addr: addr, Location: grid.Center(geo.HexCell{Q: i, R: 0})})
		c.servers = append(c.servers, srv)
		c.stops = append(c.stops, stop)
	}
	mcfg := master.DefaultConfig(c.edges)
	mcfg.Estimator = livetest.Estimator(tb)
	mcfg.Logger = quietLogger()
	mcfg.Tracer = topo.MasterTracer
	if topo.Master != nil {
		topo.Master(&mcfg)
	}
	m, err := master.New(mcfg)
	if err != nil {
		tb.Fatal(err)
	}
	c.addr, _ = livetest.Serve(tb, m)
	c.m, c.edges = m, mcfg.Edges
	return c
}

// TestLiveOffloadingEndToEnd drives the full networked path: register,
// connect to edge A (miss), incremental upload, queries, trajectory reports
// that trigger proactive migration to edge B, then a reconnect at B that
// finds the layers already cached (hit).
func TestLiveOffloadingEndToEnd(t *testing.T) {
	ctx := context.Background()
	c := twoEdges.start(t)
	pl := c.m.Placement()

	client, err := mobile.DialContext(ctx, mobile.Config{
		ID:         7,
		Model:      dnn.ModelMobileNet,
		MasterAddr: c.addr,
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

	serverA := pl.ServerAt(c.edges[0].Location)
	serverB := pl.ServerAt(c.edges[1].Location)
	if serverA == geo.NoServer || serverB == geo.NoServer || serverA == serverB {
		t.Fatalf("bad placement: %v %v", serverA, serverB)
	}

	// Connect to A: cold, so nothing cached.
	if err := client.ConnectContext(ctx, serverA, c.edges[0].Addr); err != nil {
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
	a := c.edges[0].Location
	for i := 0; i < 5; i++ {
		p := geo.Point{X: a.X + float64(i)*8, Y: a.Y}
		if err := client.ReportLocationContext(ctx, p); err != nil {
			t.Fatal(err)
		}
	}

	// Give the synchronous migration a moment to land at B.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := client.ConnectContext(ctx, serverB, c.edges[1].Addr); err != nil {
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
	c := topology{Edges: 3, Model: dnn.ModelMobileNet, Scale: 0.0005}.start(t)
	pl := c.m.Placement()
	client, err := mobile.DialContext(ctx, mobile.Config{
		ID:         11,
		Model:      dnn.ModelMobileNet,
		MasterAddr: c.addr,
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
	addrOf := make(map[geo.ServerID]string, len(c.edges))
	for _, e := range c.edges {
		addrOf[pl.ServerAt(e.Location)] = e.Addr
	}

	// 8 m a report from the first centre to the last: 87 m between centres,
	// so about eleven reports per cell.
	from, to := c.edges[0].Location, c.edges[2].Location
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
	for _, s := range c.servers {
		pushes += s.Metrics().Counter("migrations_total").Value()
	}
	// An edge is pushed to when it enters the prediction and then once per
	// four reports while it stays, so no edge sees more than reports/4 + 1
	// pushes. Ordering every target on every report costs about two pushes
	// per report here.
	if bound := int64(len(c.edges) * (reports/4 + 1)); pushes > bound || pushes == 0 {
		t.Errorf("%d reports cost %d pushes, want 1..%d", reports, pushes, bound)
	}
	ordered := c.m.Metrics().Counter("migrations_ordered_total").Value()
	suppressed := c.m.Metrics().Counter("migrations_suppressed_total").Value()
	if ordered >= int64(reports) || suppressed < ordered {
		t.Errorf("master ordered %d and suppressed %d targets over %d reports; most targets of an ongoing walk are suppressed", ordered, suppressed, reports)
	}
	t.Logf("%d reports: %d orders, %d suppressed, %d pushes", reports, ordered, suppressed, pushes)
}

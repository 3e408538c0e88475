package master

import (
	"context"
	"io"
	"log/slog"
	"testing"
	"time"

	"perdnn/internal/dnn"
	"perdnn/internal/edged"
	"perdnn/internal/geo"
	"perdnn/internal/livetest"
	"perdnn/internal/obs"
	"perdnn/internal/obs/tracing"
	"perdnn/internal/partition"
	"perdnn/internal/wire"
)

// newMaster builds a master over cfg with the test binary's trained
// estimator and a quiet logger.
func newMaster(t testing.TB, cfg Config) *Master {
	t.Helper()
	cfg.Estimator = livetest.Estimator(t)
	cfg.Logger = obs.NewLogger(io.Discard, slog.LevelError, "master")
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// startMaster serves newMaster(cfg) and returns it with its address.
func startMaster(t testing.TB, cfg Config) (*Master, string) {
	t.Helper()
	m := newMaster(t, cfg)
	addr, _ := livetest.Serve(t, m)
	return m, addr
}

// startEdged serves an edge daemon of model at TimeScale 0, its GPU seeded
// with seed.
func startEdged(t testing.TB, model dnn.ModelName, seed int64) (*edged.Server, string) {
	t.Helper()
	cfg := edged.DefaultConfig(model)
	cfg.TimeScale = 0
	cfg.GPUSeed = seed
	cfg.Logger = obs.NewLogger(io.Discard, slog.LevelError, "edged")
	srv, err := edged.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := livetest.Serve(t, srv)
	return srv, addr
}

// startEdges serves a MobileNet edge daemon at the centre of each cell,
// the i-th one's GPU seeded i+1.
func startEdges(t testing.TB, cells ...geo.HexCell) ([]EdgeInfo, []*edged.Server) {
	t.Helper()
	grid := geo.NewHexGrid(50)
	infos := make([]EdgeInfo, len(cells))
	servers := make([]*edged.Server, len(cells))
	for i, cell := range cells {
		srv, addr := startEdged(t, dnn.ModelMobileNet, int64(i+1))
		infos[i], servers[i] = EdgeInfo{Addr: addr, Location: grid.Center(cell)}, srv
	}
	return infos, servers
}

// mustRegister registers an inception client (the zoo model whose idle
// throughput plan spans two hops).
func mustRegister(t *testing.T, conn *wire.Conn, id int) {
	t.Helper()
	registerAs(t, conn, id, dnn.ModelInception)
}

// waitClients polls the clients gauge until it reads want: connection
// teardown runs on the handler goroutine after the peer has closed, and
// nothing signals the test when it is done.
func waitClients(t *testing.T, m *Master, want int64) {
	t.Helper()
	g := m.Metrics().Gauge("clients")
	for deadline := time.Now().Add(10 * time.Second); g.Value() != want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("clients gauge = %d, want %d", g.Value(), want)
		}
	}
}

// TestChainCandidatesAndStatsFanOut: a chain plan pings the requested
// server once (the sample the single-split plan used), pings only the edges
// within Radius of it, skips an unreachable neighbour and still serves a
// chain over the rest.
func TestChainCandidatesAndStatsFanOut(t *testing.T) {
	ctx := context.Background()
	grid := geo.NewHexGrid(50)
	first, firstAddr := startEdged(t, dnn.ModelInception, 1)
	near, nearAddr := startEdged(t, dnn.ModelInception, 1)
	far, farAddr := startEdged(t, dnn.ModelInception, 1)
	deadAddr := livetest.DeadAddr(t)
	cfg := DefaultConfig([]EdgeInfo{
		{Addr: firstAddr, Location: grid.Center(geo.HexCell{Q: 0, R: 0})},
		{Addr: deadAddr, Location: grid.Center(geo.HexCell{Q: 0, R: 1})}, // 87 m: a candidate, unreachable
		{Addr: nearAddr, Location: grid.Center(geo.HexCell{Q: 1, R: 0})}, // 87 m: a candidate
		{Addr: farAddr, Location: grid.Center(geo.HexCell{Q: 3, R: 0})},  // 260 m: outside Radius 100
	})
	cfg.MaxHops = 3
	cfg.Objective = partition.ObjectiveThroughput
	m, addr := startMaster(t, cfg)
	conn, err := wire.DialContext(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close() //nolint:errcheck // test teardown
	mustRegister(t, conn, 1)

	const plans = 3
	for i := 0; i < plans; i++ {
		resp, err := conn.RoundTripContext(ctx, &wire.Envelope{
			Type:    wire.MsgPlanRequest,
			PlanReq: &wire.PlanReq{ClientID: 1, Server: m.Placement().ServerAt(cfg.Edges[0].Location)},
		})
		if err != nil || resp.PlanResp == nil {
			t.Fatalf("plan %d: %v %+v", i, err, resp)
		}
		chain := resp.PlanResp.Chain
		if len(chain) != 2 || chain[0].Addr != firstAddr || chain[1].Addr != nearAddr {
			t.Fatalf("plan %d: chain %+v, want the requested edge then its reachable neighbour", i, chain)
		}
		if len(resp.PlanResp.ServerLayers) == 0 {
			t.Errorf("plan %d: no single-split failover plan", i)
		}
	}
	wantCounters(t, m, map[string]int64{
		"plan_requests_total":         plans,
		"chain_plans_total":           plans, // cache hits count too
		"chain_candidate_skips_total": plans,
		"chain_plan_errors_total":     0,
	})
	for _, e := range []struct {
		name string
		srv  *edged.Server
		want int64
	}{{"requested", first, plans}, {"neighbour", near, plans}, {"out of radius", far, 0}} {
		if got := e.srv.Metrics().Counter("requests_total").Value(); got != e.want {
			t.Errorf("%s edge served %d stats requests, want %d", e.name, got, e.want)
		}
	}
}

// TestPlanSpanCarriesDecision: the master's plan span states the decision
// it answered with — client, requested edge, server-side layers and bytes,
// the returned plan's hop count and its estimated latency.
func TestPlanSpanCarriesDecision(t *testing.T) {
	ctx := context.Background()
	grid := geo.NewHexGrid(50)
	_, firstAddr := startEdged(t, dnn.ModelInception, 1)
	_, nearAddr := startEdged(t, dnn.ModelInception, 1)
	cfg := DefaultConfig([]EdgeInfo{
		{Addr: firstAddr, Location: grid.Center(geo.HexCell{Q: 0, R: 0})},
		{Addr: nearAddr, Location: grid.Center(geo.HexCell{Q: 1, R: 0})},
	})
	cfg.MaxHops = 3
	cfg.Objective = partition.ObjectiveThroughput
	cfg.Tracer = tracing.New()
	m, addr := startMaster(t, cfg)
	conn, err := wire.DialContext(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close() //nolint:errcheck // test teardown
	mustRegister(t, conn, 7)
	sid := m.Placement().ServerAt(cfg.Edges[0].Location)
	resp, err := conn.RoundTripContext(ctx, &wire.Envelope{
		Type:    wire.MsgPlanRequest,
		PlanReq: &wire.PlanReq{ClientID: 7, Server: sid},
	})
	if err != nil || resp.PlanResp == nil {
		t.Fatalf("plan: %v %+v", err, resp)
	}
	plan := resp.PlanResp
	if len(plan.Chain) != 2 {
		t.Fatalf("chain of %d hops, want 2", len(plan.Chain))
	}
	var spans []tracing.Span
	for _, s := range m.Tracer().Spans() {
		if s.Stage == tracing.StagePlan {
			spans = append(spans, s)
		}
	}
	if len(spans) != 1 {
		t.Fatalf("%d plan spans, want 1", len(spans))
	}
	a := spans[0].Attrs
	if a.Client != 7 || a.Server != int(sid) || a.Target != tracing.NoID {
		t.Errorf("plan span names client %d, edge %d, target %d; want 7, %d, -1", a.Client, a.Server, a.Target, sid)
	}
	if a.Layers != len(plan.ServerLayers) || a.Bytes <= 0 {
		t.Errorf("plan span carries %d layers / %d bytes, plan has %d server layers", a.Layers, a.Bytes, len(plan.ServerLayers))
	}
	if a.Hops != len(plan.Chain) || a.EstLatency != time.Duration(plan.EstLatencyNs) {
		t.Errorf("plan span carries %d hops, est %v; plan has %d hops, est %v",
			a.Hops, a.EstLatency, len(plan.Chain), time.Duration(plan.EstLatencyNs))
	}
}

// TestClientsForgottenWithTheirConnection: the client table follows the
// live connections — 10k clients that registered and left cost nothing,
// the ordered-at tables of the tenth of them that reported until the
// master had pushed for them included, while a client whose connection is
// open, or that re-registered over a newer connection, stays.
func TestClientsForgottenWithTheirConnection(t *testing.T) {
	ctx := context.Background()
	m, addr, edges, at := scriptedLine(t, 2)
	// Two reports from one spot: the second orders a push to the other
	// edge and marks it, and the source with it.
	const marksPerClient = 2
	walk := func(conn *wire.Conn, id int) {
		report(t, conn, id, at(0))
		report(t, conn, id, at(0))
	}
	const stay, rehomed = 1_000_000, 1_000_001
	keeper := dialMaster(t, addr)
	mustRegister(t, keeper, stay)
	walk(keeper, stay)

	const conns, perConn, walkEvery = 100, 100, 10
	for c := 0; c < conns; c++ {
		conn := dialMaster(t, addr)
		for i := 0; i < perConn; i++ {
			mustRegister(t, conn, c*perConn+i)
			if i%walkEvery == 0 {
				walk(conn, c*perConn+i)
			}
		}
		if err := conn.Close(); err != nil {
			t.Fatal(err)
		}
	}
	waitClients(t, m, 1)
	if got, _ := edges[0].ordered(); got != conns*perConn/walkEvery+1 {
		t.Fatalf("%d pushes ordered, want one per reporting client", got)
	}
	m.mu.Lock()
	entries, marks := len(m.clients), 0
	for _, cs := range m.clients {
		marks += len(cs.ordered)
	}
	m.mu.Unlock()
	if entries != 1 || marks != marksPerClient {
		t.Errorf("after the churn the master holds %d clients with %d marks, want 1 with %d", entries, marks, marksPerClient)
	}

	// A re-registration over a newer connection takes the client over: the
	// older connection's teardown (seen here by its other client going)
	// must leave it alone.
	older := dialMaster(t, addr)
	mustRegister(t, older, rehomed)
	mustRegister(t, older, rehomed+1)
	mustRegister(t, keeper, rehomed)
	waitClients(t, m, 3)
	if err := older.Close(); err != nil {
		t.Fatal(err)
	}
	waitClients(t, m, 2)
	for _, id := range []int{stay, rehomed} {
		resp, err := keeper.RoundTripContext(ctx, &wire.Envelope{
			Type:       wire.MsgTrajectory,
			Trajectory: &wire.Trajectory{ClientID: id, Points: []geo.Point{{}}},
		})
		if err != nil || resp.Ack == nil || !resp.Ack.OK {
			t.Errorf("client %d was forgotten: %v %+v", id, err, resp)
		}
	}
}

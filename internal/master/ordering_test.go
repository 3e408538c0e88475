package master

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"slices"
	"sync"
	"testing"

	"perdnn/internal/dnn"
	"perdnn/internal/geo"
	"perdnn/internal/gpusim"
	"perdnn/internal/livetest"
	"perdnn/internal/obs"
	"perdnn/internal/profile"
	"perdnn/internal/wire"
)

// scriptedEdge is a fake edge daemon: it answers stats pings with an idle
// GPU sample and records every migration order, answering each from reply
// (nil acknowledges the whole list as pushed).
type scriptedEdge struct {
	addr  string
	reply func(n int, m *wire.Migrate) *wire.Envelope // n counts this edge's orders from 1

	mu     sync.Mutex
	orders []wire.Migrate
}

func startScriptedEdge(t *testing.T) *scriptedEdge {
	t.Helper()
	e := &scriptedEdge{}
	idle := gpusim.New(profile.ServerTitanXp(), gpusim.DefaultParams(), 1).Sample(0)
	srv := &wire.Server{
		Name: "scripted-edge",
		Log:  obs.NewLogger(io.Discard, slog.LevelError, "edge"),
		Open: func() (wire.Dispatch, func()) {
			return func(_ context.Context, req *wire.Envelope) *wire.Envelope {
				switch req.Type {
				case wire.MsgStatsRequest:
					st := idle
					return &wire.Envelope{Type: wire.MsgStatsResponse, Stats: &wire.StatsMsg{Sample: &st}}
				case wire.MsgMigrateRequest:
					e.mu.Lock()
					defer e.mu.Unlock()
					e.orders = append(e.orders, *req.Migrate) // Layers is not read later
					if e.reply != nil {
						return e.reply(len(e.orders), req.Migrate)
					}
					return wire.NewCountAck(len(req.Migrate.Layers), nil)
				}
				return wire.NewAck(nil)
			}, nil
		},
	}
	e.addr, _ = livetest.Serve(t, srv)
	return e
}

// ordered returns how many orders the edge has received, and to which peers.
func (e *scriptedEdge) ordered() (int, []string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	peers := make([]string, len(e.orders))
	for i, o := range e.orders {
		peers[i] = o.PeerAddr
	}
	return len(peers), peers
}

// scriptedLine starts n scripted edges in a row of adjacent cells (87 m
// apart, so with the default Radius 100 a client standing on a centre
// predicts that cell's row neighbours) and a master over them. at(d)
// is the point d metres along the row from the first centre.
func scriptedLine(t *testing.T, n int) (m *Master, addr string, edges []*scriptedEdge, at func(d float64) geo.Point) {
	t.Helper()
	grid := geo.NewHexGrid(50)
	infos := make([]EdgeInfo, n)
	for i := range infos {
		e := startScriptedEdge(t)
		edges = append(edges, e)
		infos[i] = EdgeInfo{Addr: e.addr, Location: grid.Center(geo.HexCell{Q: i, R: 0})}
	}
	m, addr = startMaster(t, DefaultConfig(infos))
	a := infos[0].Location
	step := grid.Center(geo.HexCell{Q: 1, R: 0}).Sub(a)
	unit := step.Scale(1 / step.Dist(geo.Point{}))
	return m, addr, edges, func(d float64) geo.Point { return a.Add(unit.Scale(d)) }
}

func dialMaster(t *testing.T, addr string) *wire.Conn {
	t.Helper()
	conn, err := wire.DialContext(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() }) //nolint:errcheck // often closed by the test already
	return conn
}

func registerAs(t *testing.T, conn *wire.Conn, id int, model dnn.ModelName) {
	t.Helper()
	resp, err := conn.RoundTripContext(context.Background(), &wire.Envelope{
		Type:     wire.MsgRegister,
		Register: &wire.Register{ClientID: id, Model: model},
	})
	if err != nil || resp.Ack == nil || !resp.Ack.OK {
		t.Fatalf("register %d as %s: %v %+v", id, model, err, resp)
	}
}

// tryReport sends one trajectory point and returns what went wrong, if
// anything; report fails the test on it.
func tryReport(conn *wire.Conn, id int, p geo.Point) error {
	resp, err := conn.RoundTripContext(context.Background(), &wire.Envelope{
		Type:       wire.MsgTrajectory,
		Trajectory: &wire.Trajectory{ClientID: id, Points: []geo.Point{p}},
	})
	if err != nil {
		return err
	}
	if resp.Ack == nil || !resp.Ack.OK {
		return fmt.Errorf("report by %d at %+v answered %+v", id, p, resp)
	}
	return nil
}

func report(t *testing.T, conn *wire.Conn, id int, p geo.Point) {
	t.Helper()
	if err := tryReport(conn, id, p); err != nil {
		t.Fatal(err)
	}
}

func wantCounters(t *testing.T, m *Master, want map[string]int64) {
	t.Helper()
	for name, w := range want {
		if got := m.Metrics().Counter(name).Value(); got != w {
			t.Errorf("%s = %d, want %d", name, got, w)
		}
	}
}

// TestUnchangedPredictionOrdersOncePerRefresh: a client standing still
// predicts the same two neighbours on every report. Each is ordered once,
// left alone for three reports, and ordered again on the fourth — one
// report before the paper's five-interval TTL would lapse at the edge.
func TestUnchangedPredictionOrdersOncePerRefresh(t *testing.T) {
	m, addr, edges, at := scriptedLine(t, 3)
	conn := dialMaster(t, addr)
	registerAs(t, conn, 1, dnn.ModelMobileNet)
	// From the middle cell both row neighbours are within Radius.
	here := at(87)
	wantOrders := []int{0, 2, 2, 2, 2, 4, 4, 4, 4, 6} // after report 1, 2, ...
	for i, want := range wantOrders {
		report(t, conn, 1, here)
		if got, _ := edges[1].ordered(); got != want {
			t.Fatalf("after report %d the source edge has %d orders, want %d", i+1, got, want)
		}
	}
	_, peers := edges[1].ordered()
	for i := 0; i < len(peers); i += 2 {
		if pair := peers[i : i+2]; !slices.Contains(pair, edges[0].addr) || !slices.Contains(pair, edges[2].addr) {
			t.Errorf("orders %d,%d went to %v, want one per neighbour", i, i+1, pair)
		}
	}
	wantCounters(t, m, map[string]int64{
		"migrations_ordered_total":    6,
		"migrations_suppressed_total": 2 * 6, // reports 3-5 and 7-9
		"migration_errors_total":      0,
	})
	for i, e := range []*scriptedEdge{edges[0], edges[2]} {
		if got, _ := e.ordered(); got != 0 {
			t.Errorf("neighbour %d was asked to push %d times; only the client's edge is a source", i, got)
		}
	}
}

// TestNewTargetOrderedWhileOthersStaySuppressed: when the prediction moves
// far enough to take in a further edge, that edge is ordered on that very
// report; the one already pushed to is not ordered with it.
func TestNewTargetOrderedWhileOthersStaySuppressed(t *testing.T) {
	m, addr, edges, at := scriptedLine(t, 3)
	conn := dialMaster(t, addr)
	registerAs(t, conn, 1, dnn.ModelMobileNet)
	for _, step := range []struct {
		d    float64
		want []string // peers ordered so far, all from edge 0
	}{
		{0, nil},
		{0, []string{edges[1].addr}},                 // predicts 0 m: edge 1 (87 m) is near
		{10, []string{edges[1].addr}},                // predicts 20 m: still only edge 1
		{42, []string{edges[1].addr, edges[2].addr}}, // predicts 74 m: edge 2 (173 m) enters
		{42, []string{edges[1].addr, edges[2].addr}}, // predicts 42 m: edge 1 again, suppressed
	} {
		report(t, conn, 1, at(step.d))
		if _, got := edges[0].ordered(); !slices.Equal(got, step.want) {
			t.Fatalf("at %v m: orders to %v, want %v", step.d, got, step.want)
		}
	}
	wantCounters(t, m, map[string]int64{"migrations_ordered_total": 2, "migrations_suppressed_total": 3})
}

// TestIncompleteOrFailedOrderIsRetried: only an ack that counts every
// ordered layer marks the target. An empty push (the source holds nothing
// yet — the first-border-crossing case), a partial one, and a rejected
// order are each ordered again on the next report.
func TestIncompleteOrFailedOrderIsRetried(t *testing.T) {
	m, addr, edges, at := scriptedLine(t, 2)
	edges[0].reply = func(n int, mig *wire.Migrate) *wire.Envelope {
		switch n {
		case 1:
			return wire.NewCountAck(0, nil)
		case 2:
			return wire.NewCountAck(len(mig.Layers)-1, nil)
		case 3:
			return &wire.Envelope{Type: wire.MsgAck, Ack: &wire.Ack{OK: false, Error: "scripted failure", Seq: int64(len(mig.Layers))}}
		}
		return wire.NewCountAck(len(mig.Layers), nil)
	}
	conn := dialMaster(t, addr)
	registerAs(t, conn, 1, dnn.ModelMobileNet)
	wantOrders := []int{0, 1, 2, 3, 4, 4, 4, 4, 5} // empty, partial, failed, complete, 3 quiet, refresh
	for i, want := range wantOrders {
		report(t, conn, 1, at(0))
		if got, _ := edges[0].ordered(); got != want {
			t.Fatalf("after report %d the source edge has %d orders, want %d", i+1, got, want)
		}
	}
	wantCounters(t, m, map[string]int64{
		"migrations_ordered_total":    4, // sent and acked OK, complete or not
		"migration_errors_total":      1,
		"migrations_suppressed_total": 3,
	})
}

// TestSourceOfCompletePushIsNotOrderedBack: a complete push proves the
// source holds the plan too, so when the client crosses into the target
// and the cell it left becomes a target itself, nothing is pushed back
// until that cell is due for its refresh.
func TestSourceOfCompletePushIsNotOrderedBack(t *testing.T) {
	_, addr, edges, at := scriptedLine(t, 2)
	conn := dialMaster(t, addr)
	registerAs(t, conn, 1, dnn.ModelMobileNet)
	report(t, conn, 1, at(30))
	report(t, conn, 1, at(40)) // report 2, still in cell 0: pushes 0 → 1
	if got, _ := edges[0].ordered(); got != 1 {
		t.Fatalf("walking toward edge 1 ordered %d pushes from edge 0, want 1", got)
	}
	for _, d := range []float64{50, 60, 70} { // reports 3-5, in cell 1: cell 0 is the target
		report(t, conn, 1, at(d))
		if got, _ := edges[1].ordered(); got != 0 {
			t.Fatalf("at %v m edge 1 was told to push back %d times, want 0", d, got)
		}
	}
	report(t, conn, 1, at(80)) // report 6: cell 0 was marked at report 2
	if got, peers := edges[1].ordered(); got != 1 || peers[0] != edges[0].addr {
		t.Errorf("refresh of the cell left behind: %d orders to %v, want 1 to %s", got, peers, edges[0].addr)
	}
	if got, _ := edges[0].ordered(); got != 1 {
		t.Errorf("edge 0 was a source %d times, want 1", got)
	}
}

// TestOrderedTableLivesWithTheRegistration: the table belongs to the
// client entry. A same-model re-registration over a newer connection keeps
// it (the edges' caches did not change); a disconnect, or a registration
// for another model — whose layers are other layers — starts an empty one.
func TestOrderedTableLivesWithTheRegistration(t *testing.T) {
	m, addr, edges, at := scriptedLine(t, 2)
	orders := func() int { n, _ := edges[0].ordered(); return n }
	first := dialMaster(t, addr)
	registerAs(t, first, 1, dnn.ModelMobileNet)
	report(t, first, 1, at(0))
	report(t, first, 1, at(0))
	report(t, first, 1, at(0))
	if got := orders(); got != 1 {
		t.Fatalf("three reports ordered %d pushes, want 1", got)
	}

	// Same model, newer connection: the marks survive, and so does the
	// report count they are measured against.
	second := dialMaster(t, addr)
	registerAs(t, second, 1, dnn.ModelMobileNet)
	report(t, second, 1, at(0))
	if got := orders(); got != 1 {
		t.Fatalf("re-registering the same model re-ordered: %d pushes, want 1", got)
	}

	// Another model: a new entry, so its second report (the first it can
	// predict from) orders although the old mark was two reports young.
	registerAs(t, second, 1, dnn.ModelInception)
	report(t, second, 1, at(0))
	report(t, second, 1, at(0))
	if got := orders(); got != 2 {
		t.Fatalf("after registering another model: %d pushes, want 2", got)
	}
	edges[0].mu.Lock()
	mobilenet, inception := len(edges[0].orders[0].Layers), len(edges[0].orders[1].Layers)
	edges[0].mu.Unlock()
	if mobilenet == inception {
		t.Errorf("both models ordered %d layers; the second order must be inception's plan", mobilenet)
	}

	// Gone with its connection (the older one no longer owns it), and back:
	// an empty table again.
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	if err := second.Close(); err != nil {
		t.Fatal(err)
	}
	waitClients(t, m, 0)
	third := dialMaster(t, addr)
	registerAs(t, third, 1, dnn.ModelInception)
	report(t, third, 1, at(0))
	report(t, third, 1, at(0))
	report(t, third, 1, at(0))
	if got := orders(); got != 3 {
		t.Errorf("after disconnect and return: %d pushes, want 3", got)
	}
}

// TestConcurrentClientsKeepSeparateTables: two clients reporting at once
// over their own connections each get exactly the orders their own report
// count calls for (run under -race).
func TestConcurrentClientsKeepSeparateTables(t *testing.T) {
	m, addr, edges, at := scriptedLine(t, 3)
	const reports = 18 // orders on reports 2, 6, 10, 14, 18
	var wg sync.WaitGroup
	for id := 1; id <= 2; id++ {
		conn := dialMaster(t, addr)
		registerAs(t, conn, id, dnn.ModelMobileNet)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reports; i++ {
				if err := tryReport(conn, id, at(87)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	perClient := map[int]int{}
	edges[1].mu.Lock()
	for _, o := range edges[1].orders {
		perClient[o.ClientID]++
	}
	edges[1].mu.Unlock()
	for id := 1; id <= 2; id++ {
		if got := perClient[id]; got != 5*2 {
			t.Errorf("client %d: %d orders, want 10 (two neighbours on each of five due reports)", id, got)
		}
	}
	wantCounters(t, m, map[string]int64{"migrations_ordered_total": 20, "migrations_suppressed_total": 2 * 2 * 12})
}

package master

import (
	"context"
	"net"
	"slices"
	"testing"
	"time"

	"perdnn/internal/dnn"
	"perdnn/internal/edged"
	"perdnn/internal/geo"
	"perdnn/internal/wire"
)

// cluster is one test's live cluster: two edge daemons in adjacent cells
// and a master over them, all stopped with the test.
type cluster struct {
	edges []EdgeInfo
	edged []*edged.Server // edged[i] serves edges[i]
	m     *Master
	addr  string // the master's
}

func fixture(t testing.TB) *cluster {
	t.Helper()
	c := &cluster{}
	c.edges, c.edged = startEdges(t, geo.HexCell{Q: 0, R: 0}, geo.HexCell{Q: 1, R: 0})
	c.m, c.addr = startMaster(t, DefaultConfig(c.edges))
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("no edges accepted")
	}
	cfg := DefaultConfig([]EdgeInfo{{Addr: "x", Location: geo.Point{}}})
	cfg.Radius = 0
	if _, err := New(cfg); err == nil {
		t.Error("zero radius accepted")
	}
}

func TestRegisterAndPlan(t *testing.T) {
	ctx := context.Background()
	c := fixture(t)
	addr, loc, masterAddr, m := c.edges[0].Addr, c.edges[0].Location, c.addr, c.m

	conn, err := wire.DialContext(ctx, masterAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close() //nolint:errcheck // test teardown

	// Plan request before registration must fail cleanly.
	resp, err := conn.RoundTripContext(ctx, &wire.Envelope{
		Type:    wire.MsgPlanRequest,
		PlanReq: &wire.PlanReq{ClientID: 1, Server: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Ack == nil || resp.Ack.OK {
		t.Errorf("unregistered plan request not rejected: %+v", resp)
	}

	// Register, then plan.
	resp, err = conn.RoundTripContext(ctx, &wire.Envelope{
		Type:     wire.MsgRegister,
		Register: &wire.Register{ClientID: 1, Model: dnn.ModelMobileNet},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Ack == nil || !resp.Ack.OK {
		t.Fatalf("register rejected: %+v", resp)
	}

	sid := m.Placement().ServerAt(loc)
	resp, err = conn.RoundTripContext(ctx, &wire.Envelope{
		Type:    wire.MsgPlanRequest,
		PlanReq: &wire.PlanReq{ClientID: 1, Server: sid},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != wire.MsgPlanResponse || resp.PlanResp == nil {
		t.Fatalf("bad plan response: %+v", resp)
	}
	if len(resp.PlanResp.ServerLayers) == 0 {
		t.Error("plan offloads nothing")
	}
	if resp.PlanResp.Slowdown < 1 {
		t.Errorf("plan slowdown %v", resp.PlanResp.Slowdown)
	}
	if got, ok := m.EdgeAddr(sid); !ok || got != addr {
		t.Errorf("EdgeAddr = %q/%v", got, ok)
	}
	if _, ok := m.EdgeAddr(geo.ServerID(99)); ok {
		t.Error("unknown server has an address")
	}
}

func TestRegisterUnknownModel(t *testing.T) {
	ctx := context.Background()
	masterAddr := fixture(t).addr
	conn, err := wire.DialContext(ctx, masterAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close() //nolint:errcheck // test teardown
	resp, err := conn.RoundTripContext(ctx, &wire.Envelope{
		Type:     wire.MsgRegister,
		Register: &wire.Register{ClientID: 1, Model: "bogus"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Ack == nil || resp.Ack.OK {
		t.Errorf("bogus model accepted: %+v", resp)
	}
}

func TestTrajectoryUnknownClient(t *testing.T) {
	ctx := context.Background()
	masterAddr := fixture(t).addr
	conn, err := wire.DialContext(ctx, masterAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close() //nolint:errcheck // test teardown
	resp, err := conn.RoundTripContext(ctx, &wire.Envelope{
		Type:       wire.MsgTrajectory,
		Trajectory: &wire.Trajectory{ClientID: 77, Points: []geo.Point{{}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Ack == nil || resp.Ack.OK {
		t.Errorf("unknown client's trajectory accepted: %+v", resp)
	}
}

// TestTrajectoryTriggersMigration drives the master's proactive pipeline:
// the client's layers sit at edge A; walking toward edge B makes the master
// order A to push them to B.
func TestTrajectoryTriggersMigration(t *testing.T) {
	ctx := context.Background()
	c := fixture(t)
	masterAddr, m := c.addr, c.m
	conn, err := wire.DialContext(ctx, masterAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close() //nolint:errcheck // test teardown

	const clientID = 55
	if resp, err := conn.RoundTripContext(ctx, &wire.Envelope{
		Type:     wire.MsgRegister,
		Register: &wire.Register{ClientID: clientID, Model: dnn.ModelMobileNet},
	}); err != nil || resp.Ack == nil || !resp.Ack.OK {
		t.Fatalf("register: %v %+v", err, resp)
	}

	// Seed edge A with every layer of the model.
	mdl, err := dnn.ZooModel(dnn.ModelMobileNet)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]dnn.LayerID, 0, mdl.NumLayers())
	for i := 0; i < mdl.NumLayers(); i++ {
		all = append(all, dnn.LayerID(i))
	}
	edgeA, err := wire.DialContext(ctx, c.edges[0].Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer edgeA.Close() //nolint:errcheck // test teardown
	if resp, err := edgeA.RoundTripContext(ctx, &wire.Envelope{
		Type:   wire.MsgUploadUnit,
		Upload: &wire.Upload{ClientID: clientID, Layers: all},
	}); err != nil || resp.Ack == nil || !resp.Ack.OK {
		t.Fatalf("seed upload: %v %+v", err, resp)
	}

	// Walk from A toward B; the dead-reckoning predictor extrapolates into
	// B's neighbourhood and the master orders the migration synchronously.
	a := c.edges[0].Location
	for i := 0; i < 5; i++ {
		resp, err := conn.RoundTripContext(ctx, &wire.Envelope{
			Type:       wire.MsgTrajectory,
			Trajectory: &wire.Trajectory{ClientID: clientID, Points: []geo.Point{{X: a.X + float64(i)*8, Y: a.Y}}},
		})
		if err != nil || resp.Ack == nil || !resp.Ack.OK {
			t.Fatalf("trajectory %d: %v %+v", i, err, resp)
		}
	}

	edgeB, err := wire.DialContext(ctx, c.edges[1].Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer edgeB.Close() //nolint:errcheck // test teardown
	resp, err := edgeB.RoundTripContext(ctx, &wire.Envelope{
		Type: wire.MsgHasRequest,
		Has:  &wire.Has{ClientID: clientID, Layers: all},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Has == nil || len(resp.Has.Layers) == 0 {
		t.Fatal("no layers migrated to edge B")
	}
	if got := m.Placement().Len(); got != 2 {
		t.Errorf("placement has %d servers", got)
	}
}

// TestCompleteOrderPushesWhatTheSimulatorWould is the sim-vs-live
// agreement check for one migration: the source edge holds the whole model,
// the idle target nothing, so the simulator's world.migrate would push
// exactly Want of the target's future plan (the source's set and the
// target's empty one change nothing). A complete live order must move that
// set: the source's migration_bytes_total grows by its weight, and the
// target then holds exactly its layers.
func TestCompleteOrderPushesWhatTheSimulatorWould(t *testing.T) {
	ctx := context.Background()
	c := fixture(t)
	masterAddr, m := c.addr, c.m
	const clientID = 56
	conn := dialMaster(t, masterAddr)
	registerAs(t, conn, clientID, dnn.ModelMobileNet)
	mdl, err := dnn.ZooModel(dnn.ModelMobileNet)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]dnn.LayerID, mdl.NumLayers())
	for i := range all {
		all[i] = dnn.LayerID(i)
	}
	edgeA, err := wire.DialContext(ctx, c.edges[0].Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer edgeA.Close() //nolint:errcheck // test teardown
	if resp, err := edgeA.RoundTripContext(ctx, &wire.Envelope{
		Type:   wire.MsgUploadUnit,
		Upload: &wire.Upload{ClientID: clientID, Layers: all},
	}); err != nil || resp.Ack == nil || !resp.Ack.OK {
		t.Fatalf("seed upload: %v %+v", err, resp)
	}

	cur := m.Placement().ServerAt(c.edges[0].Location)
	target := m.Placement().ServerAt(c.edges[1].Location)
	m.mu.Lock()
	planner, pol := m.planners[dnn.ModelMobileNet], m.policy
	m.mu.Unlock()
	// What the simulator computes for this target, from its stats now.
	wantSet := func() dnn.LayerSet {
		st, err := m.pingStats(ctx, c.edges[1].Addr)
		if err != nil {
			t.Fatal(err)
		}
		entry, err := planner.PlanFor(*st)
		if err != nil {
			t.Fatal(err)
		}
		want, dropped := pol.Want(entry, cur, target)
		if dropped != 0 {
			t.Fatalf("an uncapped master cut %d layers", dropped)
		}
		return want
	}
	want := wantSet()
	if want.Count() == 0 {
		t.Fatal("the target's future plan offloads nothing")
	}

	bytes := c.edged[0].Metrics().Counter("migration_bytes_total")
	ordered := m.Metrics().Counter("migrations_ordered_total")
	bytesBefore, orderedBefore := bytes.Value(), ordered.Value()
	report(t, conn, clientID, c.edges[0].Location)
	report(t, conn, clientID, c.edges[0].Location) // standing still predicts the neighbour
	if got := ordered.Value() - orderedBefore; got != 1 {
		t.Fatalf("two reports ordered %d migrations, want 1", got)
	}
	if again := wantSet(); !slices.Equal(again.AppendIDs(nil), want.AppendIDs(nil)) {
		t.Fatal("the target's plan changed during the test; it must stay idle")
	}
	if got, w := bytes.Value()-bytesBefore, want.WeightBytes(mdl); got != w {
		t.Errorf("source pushed %d bytes, the simulator's set weighs %d", got, w)
	}
	edgeB, err := wire.DialContext(ctx, c.edges[1].Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer edgeB.Close() //nolint:errcheck // test teardown
	resp, err := edgeB.RoundTripContext(ctx, &wire.Envelope{
		Type: wire.MsgHasRequest,
		Has:  &wire.Has{ClientID: clientID, Layers: all},
	})
	if err != nil || resp.Has == nil {
		t.Fatalf("has: %v %+v", err, resp)
	}
	if got := resp.Has.Layers; !slices.Equal(got, want.AppendIDs(nil)) {
		t.Errorf("target holds %d layers, want the simulator's %d", len(got), want.Count())
	}
}

// TestCloseBeforeServe: a Close that runs before ServeContext has a
// listener to close must still stop the daemon, not leave it in Accept.
func TestCloseBeforeServe(t *testing.T) {
	m := newMaster(t, DefaultConfig([]EdgeInfo{{Addr: "127.0.0.1:1", Location: geo.Point{}}}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.ServeContext(context.Background(), ln) }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("ServeContext after Close = %v, want nil", err)
		}
	case <-time.After(time.Second):
		ln.Close() //nolint:errcheck // unblock the leaked Accept
		t.Fatal("ServeContext after Close is still accepting")
	}
}

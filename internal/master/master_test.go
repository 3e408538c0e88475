package master

import (
	"context"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"perdnn/internal/dnn"
	"perdnn/internal/edged"
	"perdnn/internal/geo"
	"perdnn/internal/wire"
)

// The shared test fixture: two edge daemons in adjacent cells and one
// master, reused across tests because master construction trains the
// execution-time estimator.
var (
	fixtureOnce   sync.Once
	fixtureEdges  []EdgeInfo
	fixtureMaster *Master
	fixtureAddr   string
	fixtureErr    error
)

func fixture(t *testing.T) (edgeAddr string, loc geo.Point, masterAddr string, m *Master) {
	t.Helper()
	ctx := context.Background()
	fixtureOnce.Do(func() {
		grid := geo.NewHexGrid(50)
		locs := []geo.Point{grid.Center(geo.HexCell{Q: 0, R: 0}), grid.Center(geo.HexCell{Q: 1, R: 0})}
		for i, loc := range locs {
			ecfg := edged.DefaultConfig(dnn.ModelMobileNet)
			ecfg.TimeScale = 0
			ecfg.GPUSeed = int64(i + 1)
			esrv, err := edged.New(ecfg)
			if err != nil {
				fixtureErr = err
				return
			}
			eln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				fixtureErr = err
				return
			}
			go esrv.ServeContext(ctx, eln) //nolint:errcheck // lives for the test binary
			fixtureEdges = append(fixtureEdges, EdgeInfo{Addr: eln.Addr().String(), Location: loc})
		}

		mm, err := New(DefaultConfig(fixtureEdges))
		if err != nil {
			fixtureErr = err
			return
		}
		mln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fixtureErr = err
			return
		}
		go mm.ServeContext(ctx, mln) //nolint:errcheck // lives for the test binary
		fixtureMaster = mm
		fixtureAddr = mln.Addr().String()
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixtureEdges[0].Addr, fixtureEdges[0].Location, fixtureAddr, fixtureMaster
}

// TestMain keeps os.Exit semantics while allowing the shared fixture.
func TestMain(m *testing.M) {
	os.Exit(m.Run())
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
	addr, loc, masterAddr, m := fixture(t)

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
	_, _, masterAddr, _ := fixture(t)
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
	_, _, masterAddr, _ := fixture(t)
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
	_, _, masterAddr, m := fixture(t)
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
	edgeA, err := wire.DialContext(ctx, fixtureEdges[0].Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer edgeA.Close() //nolint:errcheck // test teardown
	if resp, err := edgeA.RoundTripContext(ctx, &wire.Envelope{
		Type:   wire.MsgUploadLayers,
		Upload: &wire.Upload{ClientID: clientID, Layers: all},
	}); err != nil || resp.Ack == nil || !resp.Ack.OK {
		t.Fatalf("seed upload: %v %+v", err, resp)
	}

	// Walk from A toward B; the dead-reckoning predictor extrapolates into
	// B's neighbourhood and the master orders the migration synchronously.
	a := fixtureEdges[0].Location
	for i := 0; i < 5; i++ {
		resp, err := conn.RoundTripContext(ctx, &wire.Envelope{
			Type:       wire.MsgTrajectory,
			Trajectory: &wire.Trajectory{ClientID: clientID, Points: []geo.Point{{X: a.X + float64(i)*8, Y: a.Y}}},
		})
		if err != nil || resp.Ack == nil || !resp.Ack.OK {
			t.Fatalf("trajectory %d: %v %+v", i, err, resp)
		}
	}

	edgeB, err := wire.DialContext(ctx, fixtureEdges[1].Addr)
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

// TestCloseBeforeServe: a Close that runs before ServeContext has a
// listener to close must still stop the daemon, not leave it in Accept.
func TestCloseBeforeServe(t *testing.T) {
	m, err := New(DefaultConfig([]EdgeInfo{{Addr: "127.0.0.1:1", Location: geo.Point{}}}))
	if err != nil {
		t.Fatal(err)
	}
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

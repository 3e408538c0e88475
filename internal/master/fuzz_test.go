package master

import (
	"context"
	"encoding/hex"
	"net"
	"os"
	"strings"
	"testing"

	"perdnn/internal/dnn"
	"perdnn/internal/geo"
	"perdnn/internal/wire"
)

// replyType is the response type of each request the master serves. A
// request of any other type, or one it refuses, is answered by an error
// ack.
var replyType = map[wire.MsgType]wire.MsgType{
	wire.MsgRegister:     wire.MsgAck,
	wire.MsgTrajectory:   wire.MsgAck,
	wire.MsgShardHandoff: wire.MsgAck,
	wire.MsgPlanRequest:  wire.MsgPlanResponse,
}

// decodeFrame reads one envelope from frame through a wire.Conn, as the
// daemon's serve loop would.
func decodeFrame(frame []byte) (*wire.Envelope, error) {
	peer, local := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		// The write fails once local closes: the frame may run past the
		// envelope it declares.
		_, _ = peer.Write(frame)
		_ = peer.Close()
	}()
	env, err := wire.NewConn(local).RecvContext(context.Background())
	_ = local.Close()
	<-done
	return env, err
}

// FuzzDispatch hands the master's dispatch every request a frame can
// decode to, seeded with the wire format's golden frames. Three edges run
// in-process at TimeScale 0 behind it, so stats pings, chain planning and
// migration orders stay on loopback and nothing sleeps. A plan request is
// pointed at one of them, and a report or plan request's client is
// registered first, so both reach past their lookups; points, models and
// everything else stay as decoded. A request must not panic, and must be
// answered with its response type or an error ack.
func FuzzDispatch(f *testing.F) {
	golden, err := os.ReadFile("../wire/testdata/frames.golden")
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		_, frameHex, _ := strings.Cut(line, " ")
		frame, err := hex.DecodeString(frameHex)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}

	grid := geo.NewHexGrid(geo.CellRadius)
	var edges []EdgeInfo
	for _, cell := range []geo.HexCell{{Q: 0, R: 0}, {Q: 1, R: 0}, {Q: 0, R: 1}} {
		_, addr := startEdged(f, dnn.ModelInception, 1)
		edges = append(edges, EdgeInfo{Addr: addr, Location: grid.Center(cell)})
	}
	cfg := DefaultConfig(edges)
	cfg.MaxHops = 3
	m := newMaster(f, cfg)
	f.Cleanup(func() { _ = m.Close() })
	ids := make([]geo.ServerID, 0, len(edges))
	for _, e := range edges {
		ids = append(ids, m.placement.ServerAt(e.Location))
	}

	f.Fuzz(func(t *testing.T, frame []byte) {
		req, err := decodeFrame(frame)
		if err != nil {
			return
		}
		ctx := context.Background()
		client := -1
		switch {
		case req.PlanReq != nil:
			req.PlanReq.Server = ids[uint(req.PlanReq.Server)%uint(len(ids))]
			client = req.PlanReq.ClientID
		case req.Trajectory != nil:
			client = req.Trajectory.ClientID
		}
		if client >= 0 {
			reg := &wire.Envelope{Type: wire.MsgRegister, Register: &wire.Register{ClientID: client, Model: dnn.ModelInception}}
			if r := m.dispatch(ctx, reg, 1); r.Ack == nil || !r.Ack.OK {
				t.Fatalf("registering client %d: %+v", client, r)
			}
		}
		reply := m.dispatch(ctx, req, 1)
		if reply == nil {
			t.Fatalf("type %d: no reply", req.Type)
		}
		if reply.Type == wire.MsgAck && reply.Ack != nil && !reply.Ack.OK && reply.Ack.Error != "" {
			return
		}
		if want, ok := replyType[req.Type]; !ok || reply.Type != want {
			t.Fatalf("type %d answered with type %d: %+v", req.Type, reply.Type, reply)
		}
		switch reply.Type {
		case wire.MsgAck:
			if reply.Ack == nil {
				t.Fatal("ack without a body")
			}
		case wire.MsgPlanResponse:
			if reply.PlanResp == nil {
				t.Fatal("plan reply without a body")
			}
		}
	})
}

package master

import (
	"context"
	"encoding/hex"
	"io"
	"math"
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
// ack, and a sharded master may answer a report with a redirect.
var replyType = map[wire.MsgType]wire.MsgType{
	wire.MsgRegister:     wire.MsgAck,
	wire.MsgTrajectory:   wire.MsgAck,
	wire.MsgShardHandoff: wire.MsgAck,
	wire.MsgPlanRequest:  wire.MsgPlanResponse,
}

// encodeFrame is env as the wire carries it.
func encodeFrame(f *testing.F, env *wire.Envelope) []byte {
	peer, local := net.Pipe()
	go func() {
		_ = wire.NewConn(local).SendContext(context.Background(), env)
		_ = local.Close()
	}()
	frame, err := io.ReadAll(peer)
	if err != nil {
		f.Fatal(err)
	}
	return frame
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

// FuzzDispatch hands every request a frame can decode to to the dispatch
// of two masters, one unsharded and shard 0 of two, seeded with the wire
// format's golden frames, a report 10,000 km out that shard 0 redirects
// and a report at NaN. Three
// edges run in-process at TimeScale 0 behind them, so stats pings, chain
// planning and migration orders stay on loopback and nothing sleeps. A
// plan request is pointed at one of them, a handoff at shard 0, and a
// report or plan request's client is registered first, so each reaches
// past its lookups; points, models and everything else stay as decoded.
// The peer addresses need not answer: no master dials one. A request must
// not panic, and must be answered with its response type, an error ack or,
// for a report to the sharded master, a redirect to the other shard.
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
	for _, p := range []geo.Point{{Y: 1e7}, {X: math.NaN()}} {
		f.Add(encodeFrame(f, &wire.Envelope{
			Type:       wire.MsgTrajectory,
			Trajectory: &wire.Trajectory{ClientID: 1, Points: []geo.Point{p}},
		}))
	}

	grid := geo.NewHexGrid(geo.CellRadius)
	var edges []EdgeInfo
	for _, cell := range []geo.HexCell{{Q: 0, R: 0}, {Q: 1, R: 0}, {Q: 0, R: 1}} {
		_, addr := startEdged(f, dnn.ModelInception, 1)
		edges = append(edges, EdgeInfo{Addr: addr, Location: grid.Center(cell)})
	}
	cfg := DefaultConfig(edges)
	cfg.MaxHops = 3
	single := newMaster(f, cfg)
	cfg.Peers = []string{"shard-0.invalid:1", "shard-1.invalid:1"}
	sharded := newMaster(f, cfg)
	masters := []*Master{single, sharded}
	for _, m := range masters {
		f.Cleanup(func() { _ = m.Close() })
	}
	ids := make([]geo.ServerID, 0, len(edges))
	for _, e := range edges {
		ids = append(ids, single.placement.ServerAt(e.Location))
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
		case req.Handoff != nil:
			req.Handoff.ToShard = sharded.cfg.Shard
		}
		for _, m := range masters {
			if client >= 0 {
				reg := &wire.Envelope{Type: wire.MsgRegister, Register: &wire.Register{ClientID: client, Model: dnn.ModelInception}}
				if r := m.dispatch(ctx, reg, 1); r.Ack == nil || !r.Ack.OK {
					t.Fatalf("registering client %d: %+v", client, r)
				}
			}
			checkReply(t, m, req, m.dispatch(ctx, req, 1))
		}
	})
}

// checkReply fails t unless reply is one m may give to req.
func checkReply(t *testing.T, m *Master, req, reply *wire.Envelope) {
	t.Helper()
	if reply == nil {
		t.Fatalf("type %d: no reply", req.Type)
	}
	if reply.Type == wire.MsgAck && reply.Ack != nil && !reply.Ack.OK && reply.Ack.Error != "" {
		return
	}
	if reply.Type == wire.MsgShardHandoff && req.Type == wire.MsgTrajectory && m.smap != nil {
		if h := reply.Handoff; h == nil || h.ToShard == m.cfg.Shard || h.Addr != m.cfg.Peers[h.ToShard] {
			t.Fatalf("report redirected by %+v", h)
		}
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
}

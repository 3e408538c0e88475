package edged

import (
	"context"
	"encoding/hex"
	"io"
	"log/slog"
	"net"
	"os"
	"strings"
	"testing"

	"perdnn/internal/wire"
)

// replyType is the response type of each request edged serves. A request
// of any other type, or one it refuses, is answered by an error ack.
var replyType = map[wire.MsgType]wire.MsgType{
	wire.MsgStatsRequest:   wire.MsgStatsResponse,
	wire.MsgUploadUnit:     wire.MsgUploadAck,
	wire.MsgExecRequest:    wire.MsgExecResponse,
	wire.MsgHasRequest:     wire.MsgHasResponse,
	wire.MsgMigrateRequest: wire.MsgAck,
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

// FuzzDispatch hands the daemon's dispatch every request a frame can
// decode to, seeded with the wire format's golden frames. Every address a
// request names (exec hops, a migration's peer) is pointed at in-process
// edges, so relays and migration pushes stay on loopback, and nothing
// sleeps (TimeScale 0). A request must not panic, and must be answered
// with its response type or an error ack; an exec reply's time is never
// negative. An exec request with hops runs once more with its last hop a
// liar that answers -1 ns, and must then be answered with an error ack:
// the head never passes on a time that a dishonest peer made up.
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
	cfg := testConfig()
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	// Distinct peers, so a chain of up to three hops names no address
	// twice and relays end to end; a longer one is refused as a repeat.
	peers := make([]string, 3)
	for i := range peers {
		peers[i], _ = startEdge(f, cfg)
	}
	liar := startLyingHop(f, -1)
	srv, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = srv.Close() })

	f.Fuzz(func(t *testing.T, frame []byte) {
		req, err := decodeFrame(frame)
		if err != nil {
			return
		}
		r := req.ExecReq
		if r != nil {
			for i := range r.Next {
				r.Next[i].Addr = peers[i%len(peers)]
			}
		}
		if m := req.Migrate; m != nil {
			m.PeerAddr = peers[0]
		}
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		reply := srv.dispatch(ctx, req, new(execReply))
		if reply == nil {
			t.Fatalf("type %d: no reply", req.Type)
		}
		if r != nil && len(r.Next) > 0 {
			r.Next[len(r.Next)-1].Addr = liar
			if lied := srv.dispatch(ctx, req, new(execReply)); !isErrorAck(lied) {
				t.Fatalf("a chain through a lying hop was answered %+v", lied)
			}
		}
		if isErrorAck(reply) {
			return
		}
		if want, ok := replyType[req.Type]; !ok || reply.Type != want {
			t.Fatalf("type %d answered with type %d: %+v", req.Type, reply.Type, reply)
		}
		switch reply.Type {
		case wire.MsgStatsResponse:
			if reply.Stats == nil || reply.Stats.Sample == nil {
				t.Fatal("stats reply without a sample")
			}
		case wire.MsgHasResponse:
			if reply.Has == nil {
				t.Fatal("has reply without a body")
			}
		case wire.MsgUploadAck, wire.MsgAck:
			if reply.Ack == nil {
				t.Fatal("ack without a body")
			}
		case wire.MsgExecResponse:
			if reply.ExecResp == nil || reply.ExecResp.ExecNs < 0 {
				t.Fatalf("exec reply %+v", reply.ExecResp)
			}
		}
	})
}

func isErrorAck(e *wire.Envelope) bool {
	return e != nil && e.Type == wire.MsgAck && e.Ack != nil && !e.Ack.OK && e.Ack.Error != ""
}

package mobile_test

import (
	"context"
	"sync/atomic"
	"testing"

	"perdnn/internal/livetest"
	"perdnn/internal/master"
	"perdnn/internal/wire"
)

// startLyingEdge is a scripted edge in front of the edge daemon at
// backend: it forwards every request and, while lie says so for an exec
// request, answers it with a negative exec time.
func startLyingEdge(t *testing.T, backend string, lie func(*wire.ExecReq) bool) string {
	t.Helper()
	srv := &wire.Server{Name: "lying edge", Log: quietLogger(), Open: func() (wire.Dispatch, func()) {
		var conn *wire.Conn
		dispatch := func(ctx context.Context, req *wire.Envelope) *wire.Envelope {
			if conn == nil {
				c, err := wire.DialContext(ctx, backend)
				if err != nil {
					return wire.NewAck(err)
				}
				conn = c
			}
			lying := req.Type == wire.MsgExecRequest && lie(req.ExecReq)
			resp, err := conn.RoundTripContext(ctx, req)
			if err != nil {
				return wire.NewAck(err)
			}
			if lying && resp.ExecResp != nil {
				resp.ExecResp.ExecNs = -1
			}
			return resp
		}
		return dispatch, func() {
			if conn != nil {
				_ = conn.Close() // the client's side has closed already
			}
		}
	}}
	addr, _ := livetest.Serve(t, srv)
	return addr
}

// TestNegativeExecTimeIsRefused has the client's edge answer a negative
// exec time. A chain query latches the chain broken and degrades to the
// split; a split query fails with an error. Neither reports the impossible
// latency.
func TestNegativeExecTimeIsRefused(t *testing.T) {
	const scale = 0.0005
	var lieAll atomic.Bool
	lie := func(r *wire.ExecReq) bool { return lieAll.Load() || len(r.Next) > 0 }
	cc := startChainCluster(t, topology{Scale: scale, Master: func(cfg *master.Config) {
		cfg.Edges[0].Addr = startLyingEdge(t, cfg.Edges[0].Addr, lie)
	}}, nil)
	cc.upload(t)
	client, ctx := cc.client, context.Background()
	latencies := client.Metrics().Histogram("query_latency_ns")

	lat, err := client.QueryContext(ctx)
	if err != nil {
		t.Fatalf("chain query answered a negative exec time: %v, want the split's answer", err)
	}
	if client.ChainActive() {
		t.Error("chain still active after a negative exec time")
	}
	if want := client.EstimatedLatency(); lat < want/2 {
		t.Errorf("degraded query latency = %v, the split estimates %v", lat, want)
	}
	if n := latencies.Count(); n != 1 {
		t.Errorf("query_latency_ns has %d samples after one query, want 1", n)
	}

	lieAll.Store(true)
	if lat, err := client.QueryContext(ctx); err == nil {
		t.Errorf("split query answered a negative exec time: latency %v, nil error", lat)
	}
	if n := latencies.Count(); n != 1 {
		t.Errorf("query_latency_ns has %d samples after a refused query, want 1", n)
	}
}

package mobile_test

import (
	"context"
	"net"
	"testing"

	"perdnn/internal/dnn"
	"perdnn/internal/edged"
	"perdnn/internal/geo"
	"perdnn/internal/master"
	"perdnn/internal/mobile"
	"perdnn/internal/obs/tracing"
	"perdnn/internal/partition"
)

// startEdge runs one edge daemon on a loopback listener and returns its
// address plus a kill func that cancels the daemon's context, dropping
// in-flight connections too (Close alone only stops the listener, and a
// relaying peer holds a pooled connection open).
func startEdge(t *testing.T, node string, tr *tracing.Tracer) (addr string, kill func()) {
	t.Helper()
	cfg := edged.DefaultConfig(dnn.ModelInception)
	cfg.TimeScale = 0.0005
	cfg.Tracer = tr
	cfg.Node = node
	srv, err := edged.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go srv.ServeContext(ctx, ln) //nolint:errcheck // closed by kill
	kill = func() {
		cancel()
		if cerr := srv.Close(); cerr != nil {
			t.Logf("closing edge %s: %v", node, cerr)
		}
	}
	t.Cleanup(kill)
	return ln.Addr().String(), kill
}

// TestLiveChainQuery drives a 3-node pipelined query over localhost TCP:
// the client forwards one MsgForward to hop 1, hop 1 executes its stage and
// relays the remainder to hop 2, and the reply folds the whole chain into
// one answer. Every node traces, and the assertions prove one query is ONE
// trace: client root → hop 1 exec + transfer.hop → hop 2 exec, all under
// the same trace ID. It then kills hop 2 and checks the next query degrades
// to the single-split failover plan instead of erroring.
func TestLiveChainQuery(t *testing.T) {
	grid := geo.NewHexGrid(50)
	loc1 := grid.Center(geo.HexCell{Q: 0, R: 0})
	loc2 := grid.Center(geo.HexCell{Q: 1, R: 0})

	tr1 := tracing.NewWallClock()
	tr2 := tracing.NewWallClock()
	addr1, _ := startEdge(t, "server/1", tr1)
	addr2, killEdge2 := startEdge(t, "server/2", tr2)

	masterTr := tracing.NewWallClock()
	mcfg := master.DefaultConfig([]master.EdgeInfo{
		{Addr: addr1, Location: loc1},
		{Addr: addr2, Location: loc2},
	})
	// Throughput chaining splits the server work across both hops even when
	// both GPUs are idle: halving each stage shrinks the pipeline's
	// bottleneck, which a single split cannot.
	mcfg.MaxHops = 2
	mcfg.Objective = partition.ObjectiveThroughput
	mcfg.Tracer = masterTr
	mcfg.Estimator = sharedEstimator(t)
	m, err := master.New(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	mln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go m.ServeContext(context.Background(), mln) //nolint:errcheck // closed by cleanup
	t.Cleanup(func() {
		if cerr := m.Close(); cerr != nil {
			t.Logf("closing master: %v", cerr)
		}
	})

	clientTr := tracing.NewWallClock()
	ctx := context.Background()
	client, err := mobile.DialContext(ctx, mobile.Config{
		ID:         7,
		Model:      dnn.ModelInception,
		MasterAddr: mln.Addr().String(),
		TimeScale:  0.0005,
		Tracer:     clientTr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close() //nolint:errcheck // test teardown

	server := m.Placement().ServerAt(loc1)
	if err := client.ConnectContext(ctx, server, addr1); err != nil {
		t.Fatal(err)
	}
	chain := client.Chain()
	if len(chain) < 2 {
		t.Fatalf("plan chain has %d hops, want >= 2", len(chain))
	}
	if chain[0].Addr != addr1 || chain[1].Addr != addr2 {
		t.Fatalf("chain addrs = %q, %q, want %q, %q", chain[0].Addr, chain[1].Addr, addr1, addr2)
	}
	if !client.ChainActive() {
		t.Fatal("chain not active after connect")
	}
	if _, err := client.UploadAllContext(ctx); err != nil {
		t.Fatal(err)
	}

	lat, err := client.QueryContext(ctx)
	if err != nil {
		t.Fatalf("chain query: %v", err)
	}
	if lat <= 0 {
		t.Fatalf("chain query latency = %v, want > 0", lat)
	}

	byStage := func(spans []tracing.Span, stage tracing.Stage) []tracing.Span {
		var out []tracing.Span
		for _, sp := range spans {
			if sp.Stage == stage {
				out = append(out, sp)
			}
		}
		return out
	}
	roots := byStage(clientTr.Spans(), tracing.StageQuery)
	if len(roots) != 1 {
		t.Fatalf("client recorded %d query roots, want 1", len(roots))
	}
	root := roots[0]

	// Hop 1's exec spans are children of the client's query root, on the
	// client's trace.
	for _, stage := range []tracing.Stage{tracing.StageExecQueue, tracing.StageExecCompute} {
		spans := byStage(tr1.Spans(), stage)
		if len(spans) != 1 {
			t.Fatalf("hop 1 recorded %d %q spans, want 1", len(spans), stage)
		}
		if spans[0].Trace != root.Trace || spans[0].Parent != root.ID {
			t.Errorf("hop 1 %q span (trace %d, parent %d) not under client root (trace %d, span %d)",
				stage, spans[0].Trace, spans[0].Parent, root.Trace, root.ID)
		}
	}

	// Hop 1 recorded the edge→edge relay, and hop 2's exec spans chain
	// under it — still the client's ONE trace.
	relays := byStage(tr1.Spans(), tracing.StageTransferHop)
	if len(relays) != 1 {
		t.Fatalf("hop 1 recorded %d transfer.hop spans, want 1", len(relays))
	}
	if relays[0].Trace != root.Trace {
		t.Errorf("transfer.hop trace = %d, want client trace %d", relays[0].Trace, root.Trace)
	}
	for _, stage := range []tracing.Stage{tracing.StageExecQueue, tracing.StageExecCompute} {
		spans := byStage(tr2.Spans(), stage)
		if len(spans) != 1 {
			t.Fatalf("hop 2 recorded %d %q spans, want 1", len(spans), stage)
		}
		if spans[0].Trace != root.Trace || spans[0].Parent != relays[0].ID {
			t.Errorf("hop 2 %q span (trace %d, parent %d) not under hop 1's relay (trace %d, span %d)",
				stage, spans[0].Trace, spans[0].Parent, root.Trace, relays[0].ID)
		}
	}

	// The merged four-node journal validates (per-node runs keep span IDs
	// unique across tracers).
	var merged []tracing.Span
	for node, spans := range map[string][]tracing.Span{
		"client": clientTr.Spans(), "master": masterTr.Spans(),
		"edge1": tr1.Spans(), "edge2": tr2.Spans(),
	} {
		for _, sp := range spans {
			merged = append(merged, sp.WithRun(node))
		}
	}
	if err := tracing.Validate(merged); err != nil {
		t.Errorf("merged live chain trace invalid: %v", err)
	}

	// Kill hop 2: the next query hits a mid-chain failure, latches the
	// chain broken, and degrades to the single-split failover plan — a
	// valid result, not an error.
	killEdge2()
	lat2, err := client.QueryContext(ctx)
	if err != nil {
		t.Fatalf("degraded query: %v", err)
	}
	if lat2 <= 0 {
		t.Fatalf("degraded query latency = %v, want > 0", lat2)
	}
	if client.ChainActive() {
		t.Error("chain still active after mid-chain failure")
	}
	if n := client.Metrics().Counter("chain_failovers_total").Value(); n != 1 {
		t.Errorf("chain_failovers_total = %d, want 1", n)
	}
	// Later queries skip the broken chain without another failover.
	if _, err := client.QueryContext(ctx); err != nil {
		t.Fatalf("post-failover query: %v", err)
	}
	if n := client.Metrics().Counter("chain_failovers_total").Value(); n != 1 {
		t.Errorf("chain_failovers_total after third query = %d, want 1", n)
	}
	if n := client.Metrics().Counter("chain_queries_total").Value(); n != 1 {
		t.Errorf("chain_queries_total = %d, want 1", n)
	}
}

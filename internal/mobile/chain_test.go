package mobile_test

import (
	"context"
	"math"
	"testing"

	"perdnn/internal/dnn"
	"perdnn/internal/master"
	"perdnn/internal/mobile"
	"perdnn/internal/obs/tracing"
	"perdnn/internal/partition"
	"perdnn/internal/raceguard"
)

// chainCluster is the live chain topology: two inception edges in
// adjacent cells, a master that plans two-hop throughput chains over them,
// and a client attached to edge 0 (nothing uploaded yet) whose plan rides
// the chain edge 0 → edge 1.
type chainCluster struct {
	*cluster
	client *mobile.Client
}

// startChainCluster starts topo as the chain topology; topo's scale,
// tracers and master edits are kept (an edit runs after the chain
// settings, so it may re-point edge 0).
func startChainCluster(t *testing.T, topo topology, clientTr *tracing.Tracer) *chainCluster {
	t.Helper()
	topo.Edges, topo.Model = 2, dnn.ModelInception
	edit := topo.Master
	topo.Master = func(cfg *master.Config) {
		// Throughput chaining splits the server work across both hops even
		// when both GPUs are idle: halving each stage shrinks the pipeline's
		// bottleneck, which a single split cannot.
		cfg.MaxHops = 2
		cfg.Objective = partition.ObjectiveThroughput
		if edit != nil {
			edit(cfg)
		}
	}
	cc := &chainCluster{cluster: topo.start(t)}
	ctx := context.Background()
	var err error
	cc.client, err = mobile.DialContext(ctx, mobile.Config{
		ID:         7,
		Model:      dnn.ModelInception,
		MasterAddr: cc.addr,
		TimeScale:  topo.Scale,
		Tracer:     clientTr,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cerr := cc.client.Close(); cerr != nil {
			t.Logf("closing client: %v", cerr)
		}
	})

	first, second := cc.edges[0], cc.edges[1]
	if err := cc.client.ConnectContext(ctx, cc.m.Placement().ServerAt(first.Location), first.Addr); err != nil {
		t.Fatal(err)
	}
	chain := cc.client.Chain()
	if len(chain) < 2 {
		t.Fatalf("plan chain has %d hops, want >= 2", len(chain))
	}
	if chain[0].Addr != first.Addr || chain[1].Addr != second.Addr {
		t.Fatalf("chain addrs = %q, %q, want %q, %q", chain[0].Addr, chain[1].Addr, first.Addr, second.Addr)
	}
	if !cc.client.ChainActive() {
		t.Fatal("chain not active after connect")
	}
	return cc
}

// upload streams the client's whole plan to edge 1.
func (cc *chainCluster) upload(t *testing.T) {
	t.Helper()
	if _, err := cc.client.UploadAllContext(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestLiveChainQuery drives a 3-node pipelined query over localhost TCP:
// the client sends one MsgExecRequest whose Next is hop 2 to hop 1, hop 1
// executes its stage and relays an MsgExecRequest to hop 2, and the reply
// folds the whole chain into one answer. Every node traces, and the
// assertions prove one query is ONE trace: client root → hop 1 exec +
// transfer.hop → hop 2 exec, all under the same trace ID. The client's
// estimate, before and after the upload, is the one on the master's plan
// span. It then kills hop 2 and
// checks the next query degrades to the single-split failover plan instead
// of erroring.
func TestLiveChainQuery(t *testing.T) {
	tr1 := tracing.NewWallClock()
	tr2 := tracing.NewWallClock()
	masterTr := tracing.NewWallClock()
	clientTr := tracing.NewWallClock()
	cc := startChainCluster(t, topology{Scale: 0.0005, EdgeTracers: []*tracing.Tracer{tr1, tr2}, MasterTracer: masterTr}, clientTr)
	client := cc.client
	ctx := context.Background()

	byStage := func(spans []tracing.Span, stage tracing.Stage) []tracing.Span {
		var out []tracing.Span
		for _, sp := range spans {
			if sp.Stage == stage {
				out = append(out, sp)
			}
		}
		return out
	}
	plans := byStage(masterTr.Spans(), tracing.StagePlan)
	if len(plans) != 1 {
		t.Fatalf("master recorded %d plan spans, want 1", len(plans))
	}
	wantEstimate := func(when string) {
		t.Helper()
		if a := plans[0].Attrs; a.Hops != len(client.Chain()) || client.EstimatedLatency() != a.EstLatency {
			t.Errorf("%s: client estimates %v for a %d-hop chain; the master's plan span says %v for %d hops",
				when, client.EstimatedLatency(), len(client.Chain()), a.EstLatency, a.Hops)
		}
	}
	wantEstimate("after connecting")
	cc.upload(t)
	wantEstimate("after the upload")

	lat, err := client.QueryContext(ctx)
	if err != nil {
		t.Fatalf("chain query: %v", err)
	}
	if lat <= 0 {
		t.Fatalf("chain query latency = %v, want > 0", lat)
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
	cc.stops[1]()
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

// TestChainEstimateMatchesLatency: on an idle two-hop chain the latency a
// query returns is what the plan estimated. The planner prices the hop
// from edge 1 to edge 2 on the backhaul, so the relay must too, not on the
// edge's access link.
func TestChainEstimateMatchesLatency(t *testing.T) {
	cc := startChainCluster(t, topology{}, nil)
	cc.upload(t)
	est := cc.client.EstimatedLatency()
	for i := 0; i < 5; i++ {
		lat, err := cc.client.QueryContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(float64(lat-est)) / float64(lat); d > 0.05 {
			t.Errorf("query %d: latency %v, estimate %v (%.1f %% off, want <= 5 %%)", i, lat, est, 100*d)
		}
	}
	if n := cc.client.Metrics().Counter("chain_queries_total").Value(); n != 5 {
		t.Errorf("chain_queries_total = %d, want 5", n)
	}
}

// chainQueryAllocBudget is what one two-hop chain query allocates, client
// and both edges counted together. The client's round trip costs what a
// single split's does (queryAllocBudget); the rest is edge 1's relay:
// its timeout context, the cancel watcher of its pooled round trip, the
// relayed request and the pool's copy of the reply. Before the chain tail
// rode the ExecReq, the client converted the plan's hops into a second
// slice on every query and the same measurement read 16.
const chainQueryAllocBudget = 15

// TestChainQueryAllocBudget gates the chain query the way
// TestQueryAllocBudget gates the single split.
func TestChainQueryAllocBudget(t *testing.T) {
	if raceguard.Enabled {
		t.Skip("race detector instrumentation allocates; gate runs in non-race builds")
	}
	cc := startChainCluster(t, topology{}, nil)
	cc.upload(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 10; i++ { // warm every conn's buffers and the peer pool
		if _, err := cc.client.QueryContext(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := cc.client.QueryContext(ctx); err != nil {
			t.Fatal(err)
		}
	}); n > chainQueryAllocBudget {
		t.Errorf("chain QueryContext allocates %.1f/op across client and both edges, budget %d", n, chainQueryAllocBudget)
	}
	if !cc.client.ChainActive() {
		t.Error("queries left the chain")
	}
}

package mobile_test

import (
	"context"
	"testing"

	"perdnn/internal/dnn"
	"perdnn/internal/mobile"
	"perdnn/internal/obs/tracing"
)

// TestLiveTracePropagation drives register → plan → upload → query over
// localhost TCP with tracers on every node, then checks that the span
// context propagated across the wire: the master's and edge's spans join
// the traces the client started, so one query reads as a single trace
// spanning client, master, and edge tracks.
func TestLiveTracePropagation(t *testing.T) {
	edgeTr, masterTr := tracing.NewWallClock(), tracing.NewWallClock()
	c := topology{Edges: 1, Model: dnn.ModelMobileNet, Scale: 0.0005, EdgeTracers: []*tracing.Tracer{edgeTr}, MasterTracer: masterTr}.start(t)

	clientTr := tracing.NewWallClock()
	ctx := context.Background()
	client, err := mobile.DialContext(ctx, mobile.Config{
		ID:         3,
		Model:      dnn.ModelMobileNet,
		MasterAddr: c.addr,
		TimeScale:  0.0005,
		Tracer:     clientTr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close() //nolint:errcheck // test teardown

	server := c.m.Placement().ServerAt(c.edges[0].Location)
	if err := client.ConnectContext(ctx, server, c.edges[0].Addr); err != nil {
		t.Fatal(err)
	}
	if _, err := client.UploadAllContext(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := client.QueryContext(ctx); err != nil {
		t.Fatal(err)
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
	clientSpans := clientTr.Spans()

	// The client recorded every lifecycle stage on its own track.
	for _, stage := range []tracing.Stage{
		tracing.StageRegister, tracing.StagePlan, tracing.StageUploadUnit,
		tracing.StageClientCompute, tracing.StageQuery,
	} {
		if len(byStage(clientSpans, stage)) == 0 {
			t.Errorf("client recorded no %q span", stage)
		}
	}

	roots := byStage(clientSpans, tracing.StageQuery)
	if len(roots) != 1 {
		t.Fatalf("client recorded %d query roots, want 1", len(roots))
	}
	root := roots[0]

	// The edge's exec spans joined the client's query trace as children
	// of its root span — the wire carried the context.
	for _, stage := range []tracing.Stage{tracing.StageExecQueue, tracing.StageExecCompute} {
		spans := byStage(edgeTr.Spans(), stage)
		if len(spans) != 1 {
			t.Fatalf("edge recorded %d %q spans, want 1", len(spans), stage)
		}
		if spans[0].Trace != root.Trace || spans[0].Parent != root.ID {
			t.Errorf("edge %q span (trace %d, parent %d) is not a child of the client's query root (trace %d, span %d)",
				stage, spans[0].Trace, spans[0].Parent, root.Trace, root.ID)
		}
		if spans[0].Node != "server/0" {
			t.Errorf("edge span node = %q, want server/0", spans[0].Node)
		}
	}

	// Same for the edge's upload spans against the client's plan trace.
	plans := byStage(clientSpans, tracing.StagePlan)
	edgeUploads := byStage(edgeTr.Spans(), tracing.StageUploadUnit)
	if len(edgeUploads) == 0 {
		t.Fatal("edge recorded no upload spans")
	}
	for _, sp := range edgeUploads {
		if sp.Trace != plans[0].Trace {
			t.Errorf("edge upload span trace %d is not the client's plan trace %d", sp.Trace, plans[0].Trace)
		}
	}

	// And the master's register/plan spans joined the client's traces.
	for _, stage := range []tracing.Stage{tracing.StageRegister, tracing.StagePlan} {
		cs := byStage(clientSpans, stage)
		ms := byStage(masterTr.Spans(), stage)
		if len(ms) != 1 {
			t.Fatalf("master recorded %d %q spans, want 1", len(ms), stage)
		}
		if ms[0].Trace != cs[0].Trace || ms[0].Parent != cs[0].ID {
			t.Errorf("master %q span (trace %d, parent %d) is not a child of the client's (trace %d, span %d)",
				stage, ms[0].Trace, ms[0].Parent, cs[0].Trace, cs[0].ID)
		}
	}

	// The merged journal of all three nodes validates. Each tracer
	// allocates span IDs independently, so cross-node merges label spans
	// with their originating node to keep (run, trace, id) unique.
	var merged []tracing.Span
	for node, spans := range map[string][]tracing.Span{
		"client": clientSpans, "master": masterTr.Spans(), "edge": edgeTr.Spans(),
	} {
		for _, sp := range spans {
			merged = append(merged, sp.WithRun(node))
		}
	}
	if err := tracing.Validate(merged); err != nil {
		t.Errorf("merged live trace invalid: %v", err)
	}
}

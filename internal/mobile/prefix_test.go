package mobile_test

import (
	"context"
	"testing"

	"perdnn/internal/dnn"
	"perdnn/internal/mobile"
	"perdnn/internal/partition"
	"perdnn/internal/profile"
)

// TestUploadPrefixPricedAsSimulated holds the live client to the
// simulator's price of a half-uploaded plan: after k streamed units of a
// single-split plan, EstimatedLatency is row k of partition.ScheduleSplits
// over the plan's upload order at the lab link and slowdown 1 — the row a
// simulated cold start (core.PlanEntry.Splits) and the single-client
// replays charge for the same prefix.
func TestUploadPrefixPricedAsSimulated(t *testing.T) {
	ctx := context.Background()
	c := topology{Edges: 1, Model: dnn.ModelMobileNet}.start(t)
	client, err := mobile.DialContext(ctx, mobile.Config{ID: 9, Model: dnn.ModelMobileNet, MasterAddr: c.addr, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cerr := client.Close(); cerr != nil {
			t.Logf("closing client: %v", cerr)
		}
	})
	if err := client.ConnectContext(ctx, c.m.Placement().ServerAt(c.edges[0].Location), c.edges[0].Addr); err != nil {
		t.Fatal(err)
	}
	if len(client.Chain()) != 0 {
		t.Fatal("want a single-split plan")
	}
	order := client.UploadOrder()
	if len(order) == 0 {
		t.Fatal("plan uploads nothing")
	}
	sched := make([]partition.UploadUnit, len(order))
	for i, ids := range order {
		sched[i].Layers = ids
	}
	model, err := dnn.ZooModel(dnn.ModelMobileNet)
	if err != nil {
		t.Fatal(err)
	}
	rows := partition.ScheduleSplits(profile.NewModelProfile(model, profile.ClientODROID(), profile.ServerTitanXp()), sched)
	for k := 0; ; k++ {
		if got, want := client.EstimatedLatency(), rows[k].Latency(partition.LabWiFi(), 1); got != want {
			t.Errorf("after %d units: estimate %v, table row %v", k, got, want)
		}
		more, err := client.UploadStepContext(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			if k != len(order) {
				t.Errorf("upload ended after %d of %d units", k, len(order))
			}
			break
		}
	}
}

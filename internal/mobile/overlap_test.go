package mobile_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"perdnn/internal/dnn"
	"perdnn/internal/mobile"
	"perdnn/internal/wire"
)

// TestMigrateAndHasDuringWindowedUpload overlaps the paper's headline case
// with itself: while a client streams its layers to edge A, the master's
// proactive migration order (and a resync probe) for the same client reach
// A. The daemon must answer both from a consistent copy of the cache entry
// the upload is still writing. Run under -race.
func TestMigrateAndHasDuringWindowedUpload(t *testing.T) {
	c := twoEdges.start(t)
	ctx := context.Background()
	model, err := dnn.ZooModel(dnn.ModelMobileNet)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]dnn.LayerID, model.NumLayers())
	for i := range all {
		all[i] = dnn.LayerID(i)
	}

	// The prober asks edge A to migrate and to report the current client's
	// layers, back to back, for as long as the uploads run.
	var current atomic.Int64
	stop := make(chan struct{})
	probed := make(chan struct{}) // closed after the first full probe
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := wire.DialContext(ctx, c.edges[0].Addr)
		if err != nil {
			t.Errorf("prober dial: %v", err)
			close(probed)
			return
		}
		defer conn.Close() //nolint:errcheck // test teardown
		for first := true; ; first = false {
			select {
			case <-stop:
				return
			default:
			}
			id := int(current.Load())
			resp, err := conn.RoundTripContext(ctx, &wire.Envelope{
				Type:    wire.MsgMigrateRequest,
				Migrate: &wire.Migrate{ClientID: id, Layers: all, PeerAddr: c.edges[1].Addr},
			})
			if err != nil || resp.Ack == nil || !resp.Ack.OK {
				t.Errorf("migrate during upload: %v %+v", err, resp)
			}
			resp, err = conn.RoundTripContext(ctx, &wire.Envelope{
				Type: wire.MsgHasRequest,
				Has:  &wire.Has{ClientID: id, Layers: all},
			})
			if err != nil || resp.Type != wire.MsgHasResponse {
				t.Errorf("has during upload: %v %+v", err, resp)
			}
			if first {
				close(probed)
			}
		}
	}()
	<-probed

	server := c.m.Placement().ServerAt(c.edges[0].Location)
	var uploaded int64
	for id := 100; id < 108; id++ {
		current.Store(int64(id))
		client, err := mobile.DialContext(ctx, mobile.Config{
			ID: id, Model: dnn.ModelMobileNet, MasterAddr: c.addr,
			TimeScale: 0.0005, UploadWindow: 4, Logger: quietLogger(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := client.ConnectContext(ctx, server, c.edges[0].Addr); err != nil {
			t.Fatal(err)
		}
		if _, err := client.UploadAllContext(ctx); err != nil {
			t.Fatal(err)
		}
		if present, total := client.CacheState(); present != total {
			t.Errorf("client %d: cache %d/%d after upload", id, present, total)
		}
		uploaded += client.Metrics().Counter("upload_bytes_total").Value()
		if err := client.Close(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	// Exactly-once pricing at A survives the overlap.
	if got := c.servers[0].Metrics().Counter("upload_bytes_total").Value(); got != uploaded {
		t.Errorf("edge A priced %d upload bytes, clients sent %d", got, uploaded)
	}
}

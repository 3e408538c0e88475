package mobile_test

import (
	"context"
	"testing"

	"perdnn/internal/dnn"
	"perdnn/internal/geo"
	"perdnn/internal/mobile"
)

// planBytes prices the client's current server-layer set, the ground truth
// for the edge daemon's upload_bytes_total after a complete upload.
func planBytes(t *testing.T, client *mobile.Client) int64 {
	t.Helper()
	model, err := dnn.ZooModel(dnn.ModelMobileNet)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, id := range client.ServerLayers() {
		sum += model.Layer(id).WeightBytes
	}
	return sum
}

// TestWindowedUploadStreams drives the happy path of the streaming upload:
// one UploadAllContext call pushes every schedule unit with windowed acks,
// the edge ends up with the full server-side layer set priced exactly
// once, and queries offload.
func TestWindowedUploadStreams(t *testing.T) {
	ctx := context.Background()
	c := twoEdges.start(t)
	client := dialFastClient(t, c.addr)

	serverA := c.m.Placement().ServerAt(c.edges[0].Location)
	if serverA == geo.NoServer {
		t.Fatal("no cell for edge A")
	}
	if err := client.ConnectContext(ctx, serverA, c.edges[0].Addr); err != nil {
		t.Fatal(err)
	}
	_, total := client.CacheState()
	if total == 0 {
		t.Fatal("plan has no server layers")
	}

	n, err := client.UploadAllContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("streaming upload pushed no units")
	}
	if present, tot := client.CacheState(); present != tot {
		t.Fatalf("streaming upload incomplete: %d/%d", present, tot)
	}
	// Idempotent: nothing left to stream.
	if n2, err := client.UploadAllContext(context.Background()); err != nil || n2 != 0 {
		t.Fatalf("second UploadAll: n=%d err=%v, want 0 units", n2, err)
	}
	if got, want := c.servers[0].Metrics().Counter("upload_bytes_total").Value(), planBytes(t, client); got != want {
		t.Errorf("edge priced %d upload bytes, want exactly %d", got, want)
	}
	if got := c.servers[0].Metrics().Counter("uploads_total").Value(); got != int64(n) {
		t.Errorf("edge counted %d uploads, client streamed %d units", got, n)
	}
	if _, err := client.QueryContext(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestKillMidStreamResumesWithoutResend is the tentpole's crash-safety
// proof: the proxy severs the connection after exactly two upload units
// crossed, mid-window, and the client must reconnect, resync the edge's
// cache over MsgHasRequest, and stream only what is missing. The edge's
// byte counter equals the plan total afterwards — units that landed before
// the kill (acked or not) were not re-sent.
func TestKillMidStreamResumesWithoutResend(t *testing.T) {
	ctx := context.Background()
	c := twoEdges.start(t)
	proxy := newFlakyProxy(t, c.edges[0].Addr)
	client := dialFastClient(t, c.addr)

	serverA := c.m.Placement().ServerAt(c.edges[0].Location)
	if serverA == geo.NoServer {
		t.Fatal("no cell for edge A")
	}
	if err := client.ConnectContext(ctx, serverA, proxy.Addr()); err != nil {
		t.Fatal(err)
	}
	_, total := client.CacheState()
	if total < 2 {
		t.Fatalf("plan too small to interrupt: %d server layers", total)
	}

	// Arm after Connect so the resync handshake isn't what dies: the next
	// two client→server frames are streamed upload units.
	proxy.armAfter(2)
	n, err := client.UploadAllContext(context.Background())
	if err != nil {
		t.Fatalf("streaming upload did not survive the kill: %v", err)
	}
	if present, tot := client.CacheState(); present != tot {
		t.Fatalf("resume incomplete: %d/%d", present, tot)
	}
	if rc := client.Metrics().Counter("reconnects_total").Value(); rc < 1 {
		t.Errorf("reconnects_total = %d, want >= 1", rc)
	}

	if n == 0 {
		t.Error("client acked no units around the kill")
	}
	// Exactly-once delivery: the edge priced every plan layer once. A
	// lost-resend bug undercounts; a blind restart (or a resend racing an
	// old handler without server-side dedup) double-counts.
	if got, want := c.servers[0].Metrics().Counter("upload_bytes_total").Value(), planBytes(t, client); got != want {
		t.Errorf("edge priced %d upload bytes across kill+resume, want exactly %d", got, want)
	}

	// And the session is healthy: queries offload through the (now
	// transparent) proxy.
	if _, err := client.QueryContext(ctx); err != nil {
		t.Fatal(err)
	}
}

package edged

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"perdnn/internal/core"
	"perdnn/internal/dnn"
	"perdnn/internal/profile"
	"perdnn/internal/wire"
)

// startEdge runs an edge daemon on a random port.
func startEdge(t *testing.T, cfg Config) (string, *Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if serr := srv.ServeContext(context.Background(), ln); serr != nil {
			t.Errorf("serve: %v", serr)
		}
	}()
	t.Cleanup(func() {
		if cerr := srv.Close(); cerr != nil {
			t.Logf("close: %v", cerr)
		}
	})
	return ln.Addr().String(), srv
}

func testConfig() Config {
	cfg := DefaultConfig(dnn.ModelMobileNet)
	cfg.TimeScale = 0 // no sleeping in unit tests
	return cfg
}

func TestNewValidation(t *testing.T) {
	if _, err := New(DefaultConfig("bogus")); err == nil {
		t.Error("unknown model accepted")
	}
	cfg := DefaultConfig(dnn.ModelMobileNet)
	cfg.TTL = 0
	if _, err := New(cfg); err == nil {
		t.Error("zero TTL accepted")
	}
}

func TestStatsEndpoint(t *testing.T) {
	ctx := context.Background()
	addr, _ := startEdge(t, testConfig())
	conn, err := wire.DialContext(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close() //nolint:errcheck // test teardown
	resp, err := conn.RoundTripContext(ctx, &wire.Envelope{Type: wire.MsgStatsRequest})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != wire.MsgStatsResponse || resp.Stats == nil || resp.Stats.Sample == nil {
		t.Fatalf("bad response %+v", resp)
	}
	if resp.Stats.Sample.TempC <= 0 {
		t.Errorf("stats %+v", resp.Stats.Sample)
	}
}

func TestUploadHasExec(t *testing.T) {
	ctx := context.Background()
	addr, _ := startEdge(t, testConfig())
	conn, err := wire.DialContext(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close() //nolint:errcheck // test teardown

	// Nothing cached initially.
	resp, err := conn.RoundTripContext(ctx, &wire.Envelope{
		Type: wire.MsgHasRequest,
		Has:  &wire.Has{ClientID: 1, Layers: []dnn.LayerID{0, 1, 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Has.Layers) != 0 {
		t.Errorf("cold cache has %v", resp.Has.Layers)
	}

	// Upload two layers, then check presence.
	resp, err = conn.RoundTripContext(ctx, &wire.Envelope{
		Type:   wire.MsgUploadUnit,
		Upload: &wire.Upload{ClientID: 1, Layers: []dnn.LayerID{0, 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Ack == nil || !resp.Ack.OK {
		t.Fatalf("upload rejected: %+v", resp)
	}
	resp, err = conn.RoundTripContext(ctx, &wire.Envelope{
		Type: wire.MsgHasRequest,
		Has:  &wire.Has{ClientID: 1, Layers: []dnn.LayerID{0, 1, 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Has.Layers) != 2 {
		t.Errorf("cached layers %v, want [0 2]", resp.Has.Layers)
	}
	// Another client sees nothing.
	resp, err = conn.RoundTripContext(ctx, &wire.Envelope{
		Type: wire.MsgHasRequest,
		Has:  &wire.Has{ClientID: 2, Layers: []dnn.LayerID{0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Has.Layers) != 0 {
		t.Error("cache leaked across clients")
	}

	// Execute some offloaded work.
	resp, err = conn.RoundTripContext(ctx, &wire.Envelope{
		Type:    wire.MsgExecRequest,
		ExecReq: &wire.ExecReq{ClientID: 1, ServerBaseNs: int64(5 * time.Millisecond), Intensity: 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != wire.MsgExecResponse || resp.ExecResp == nil || resp.ExecResp.ExecNs <= 0 {
		t.Fatalf("bad exec response %+v", resp)
	}
}

func TestCacheTTLExpiry(t *testing.T) {
	ctx := context.Background()
	cfg := testConfig()
	cfg.TTL = 50 * time.Millisecond
	addr, _ := startEdge(t, cfg)
	conn, err := wire.DialContext(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close() //nolint:errcheck // test teardown
	if _, err := conn.RoundTripContext(ctx, &wire.Envelope{
		Type:   wire.MsgUploadUnit,
		Upload: &wire.Upload{ClientID: 1, Layers: []dnn.LayerID{0}},
	}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(80 * time.Millisecond)
	resp, err := conn.RoundTripContext(ctx, &wire.Envelope{
		Type: wire.MsgHasRequest,
		Has:  &wire.Has{ClientID: 1, Layers: []dnn.LayerID{0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Has.Layers) != 0 {
		t.Error("layer survived TTL")
	}
}

func TestMigrateToPeer(t *testing.T) {
	ctx := context.Background()
	addrA, _ := startEdge(t, testConfig())
	addrB, _ := startEdge(t, testConfig())

	connA, err := wire.DialContext(ctx, addrA)
	if err != nil {
		t.Fatal(err)
	}
	defer connA.Close() //nolint:errcheck // test teardown

	// Seed A with layers 0..4, then order migration of 0..9 with a cap.
	if _, err := connA.RoundTripContext(ctx, &wire.Envelope{
		Type:   wire.MsgUploadUnit,
		Upload: &wire.Upload{ClientID: 9, Layers: []dnn.LayerID{0, 1, 2, 3, 4}},
	}); err != nil {
		t.Fatal(err)
	}
	resp, err := connA.RoundTripContext(ctx, &wire.Envelope{
		Type: wire.MsgMigrateRequest,
		Migrate: &wire.Migrate{
			ClientID: 9,
			Layers:   []dnn.LayerID{0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
			PeerAddr: addrB,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Ack == nil || !resp.Ack.OK {
		t.Fatalf("migrate rejected: %+v", resp)
	}

	connB, err := wire.DialContext(ctx, addrB)
	if err != nil {
		t.Fatal(err)
	}
	defer connB.Close() //nolint:errcheck // test teardown
	has, err := connB.RoundTripContext(ctx, &wire.Envelope{
		Type: wire.MsgHasRequest,
		Has:  &wire.Has{ClientID: 9, Layers: []dnn.LayerID{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Only the layers A actually had (0..4) arrive at B.
	if len(has.Has.Layers) != 5 {
		t.Errorf("B cached %v, want the 5 layers A had", has.Has.Layers)
	}
}

func TestMigrateWithNothingCachedIsNoop(t *testing.T) {
	ctx := context.Background()
	addrA, _ := startEdge(t, testConfig())
	connA, err := wire.DialContext(ctx, addrA)
	if err != nil {
		t.Fatal(err)
	}
	defer connA.Close() //nolint:errcheck // test teardown
	resp, err := connA.RoundTripContext(ctx, &wire.Envelope{
		Type: wire.MsgMigrateRequest,
		Migrate: &wire.Migrate{
			ClientID: 1,
			Layers:   []dnn.LayerID{0},
			PeerAddr: "127.0.0.1:1", // unreachable, but nothing to send
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Ack == nil || !resp.Ack.OK {
		t.Errorf("empty migration should succeed: %+v", resp)
	}
}

// TestMigrateAckCountsPushedLayers: the ack of a migration order says how
// many of the ordered layers went to the peer, which is how the master
// tells a whole plan delivered from a push it must order again.
func TestMigrateAckCountsPushedLayers(t *testing.T) {
	ctx := context.Background()
	addrA, _ := startEdge(t, testConfig())
	addrB, _ := startEdge(t, testConfig())
	conn, err := wire.DialContext(ctx, addrA)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close() //nolint:errcheck // test teardown

	order := make([]dnn.LayerID, 8)
	for i := range order {
		order[i] = dnn.LayerID(i)
	}
	const partial, full = 1, 2 // client IDs by what A caches for them
	for client, layers := range map[int][]dnn.LayerID{partial: order[:4], full: order} {
		if resp, err := conn.RoundTripContext(ctx, &wire.Envelope{
			Type:   wire.MsgUploadUnit,
			Upload: &wire.Upload{ClientID: client, Layers: layers},
		}); err != nil || resp.Ack == nil || !resp.Ack.OK {
			t.Fatalf("seeding client %d: %v %+v", client, err, resp)
		}
	}
	for _, tc := range []struct {
		name   string
		client int
		want   int64
	}{
		{"nothing cached", 3, 0},
		{"partial cache", partial, 4},
		{"full cache", full, int64(len(order))},
		{"full cache again (peer already holds it)", full, int64(len(order))},
	} {
		resp, err := conn.RoundTripContext(ctx, &wire.Envelope{
			Type:    wire.MsgMigrateRequest,
			Migrate: &wire.Migrate{ClientID: tc.client, Layers: order, PeerAddr: addrB},
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if resp.Type != wire.MsgAck || resp.Ack == nil || !resp.Ack.OK || resp.Ack.Seq != tc.want {
			t.Errorf("%s: ack %+v, want OK with Seq %d of %d ordered", tc.name, resp.Ack, tc.want, len(order))
		}
	}
	// A failed push counts nothing.
	resp, err := conn.RoundTripContext(ctx, &wire.Envelope{
		Type:    wire.MsgMigrateRequest,
		Migrate: &wire.Migrate{ClientID: full, Layers: order, PeerAddr: "127.0.0.1:1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Ack == nil || resp.Ack.OK || resp.Ack.Seq != 0 {
		t.Errorf("push to an unreachable peer: ack %+v, want an error with Seq 0", resp.Ack)
	}
}

func TestUnknownMessageAcksError(t *testing.T) {
	ctx := context.Background()
	addr, _ := startEdge(t, testConfig())
	conn, err := wire.DialContext(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close() //nolint:errcheck // test teardown
	resp, err := conn.RoundTripContext(ctx, &wire.Envelope{Type: wire.MsgPlanRequest})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Ack == nil || resp.Ack.OK {
		t.Errorf("unexpected message not rejected: %+v", resp)
	}
}

// TestBadLayerIDsAckError: layer IDs come off the wire and index bitsets
// and the model; every frame that carries them must answer an ID outside
// the model with an error ack — never a panic, never a cache entry — and
// price valid frames exactly as before.
func TestBadLayerIDsAckError(t *testing.T) {
	ctx := context.Background()
	addr, srv := startEdge(t, testConfig())
	conn, err := wire.DialContext(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close() //nolint:errcheck // test teardown
	n := dnn.LayerID(srv.model.NumLayers())
	for _, bad := range [][]dnn.LayerID{{-1}, {n}, {0, 1 << 40}, {2, -7, 3}} {
		for _, req := range []*wire.Envelope{
			{Type: wire.MsgUploadUnit, Upload: &wire.Upload{ClientID: 1, Layers: bad, Seq: 4}},
			{Type: wire.MsgHasRequest, Has: &wire.Has{ClientID: 1, Layers: bad}},
			{Type: wire.MsgMigrateRequest, Migrate: &wire.Migrate{ClientID: 1, Layers: bad, PeerAddr: "127.0.0.1:1"}},
		} {
			resp, err := conn.RoundTripContext(ctx, req)
			if err != nil {
				t.Fatalf("type %d layers %v: %v", req.Type, bad, err)
			}
			if resp.Ack == nil || resp.Ack.OK || resp.Ack.Error == "" {
				t.Errorf("type %d layers %v: want an error ack, got %+v", req.Type, bad, resp)
			}
			if req.Type == wire.MsgUploadUnit && (resp.Type != wire.MsgUploadAck || resp.Ack.Seq != 4) {
				t.Errorf("unit rejection must be an upload ack echoing seq 4, got %+v", resp)
			}
			if req.Type == wire.MsgMigrateRequest && resp.Ack.Seq != 0 {
				t.Errorf("a rejected migration order pushed nothing, yet its ack counts %d layers", resp.Ack.Seq)
			}
		}
	}
	if got := srv.Metrics().Gauge("cache_entries").Value(); got != 0 {
		t.Errorf("rejected frames left %d cache entries", got)
	}
	// A valid frame next to the rejected ones is priced exactly once.
	valid := &wire.Envelope{Type: wire.MsgUploadUnit, Upload: &wire.Upload{ClientID: 1, Layers: []dnn.LayerID{0, n - 1}}}
	for i := 0; i < 2; i++ {
		if resp, err := conn.RoundTripContext(ctx, valid); err != nil || resp.Ack == nil || !resp.Ack.OK {
			t.Fatalf("valid upload: %+v, %v", resp, err)
		}
	}
	want := srv.model.Layer(0).WeightBytes + srv.model.Layer(n-1).WeightBytes
	if got := srv.Metrics().Counter("upload_bytes_total").Value(); got != want {
		t.Errorf("upload_bytes_total = %d, want %d", got, want)
	}
}

// TestChurnedClientsAreSwept: clients that upload once and never return
// must not accumulate — expired entries go when the cache doubles, without
// anyone looking those clients up again.
func TestChurnedClientsAreSwept(t *testing.T) {
	ctx := context.Background()
	cfg := testConfig()
	cfg.TTL = 5 * time.Millisecond
	addr, srv := startEdge(t, cfg)
	conn, err := wire.DialContext(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close() //nolint:errcheck // test teardown
	const clients = 10_000
	entries := srv.Metrics().Gauge("cache_entries")
	var peak int64
	start := time.Now()
	for id := 0; id < clients; id++ {
		resp, err := conn.RoundTripContext(ctx, &wire.Envelope{
			Type:   wire.MsgUploadUnit,
			Upload: &wire.Upload{ClientID: id, Layers: []dnn.LayerID{0}},
		})
		if err != nil || resp.Ack == nil || !resp.Ack.OK {
			t.Fatalf("client %d: %+v, %v", id, resp, err)
		}
		peak = max(peak, entries.Value())
	}
	// About the clients of one TTL are live at a time and the cache holds
	// at most twice the live set (or core.LayerCache's sweep floor of 64
	// entries); the rest of the bound is slack for an uneven arrival rate.
	perTTL := int64(float64(clients)*float64(cfg.TTL)/float64(time.Since(start))) + 1
	if bound := max(6*perTTL, 4*64); peak > bound {
		t.Errorf("cache peaked at %d entries for %d churned clients (~%d per TTL), want <= %d", peak, clients, perTTL, bound)
	}
}

// TestCloseBeforeServe: a Close that runs before ServeContext has a
// listener to close must still stop the daemon, not leave it in Accept.
func TestCloseBeforeServe(t *testing.T) {
	srv, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.ServeContext(context.Background(), ln) }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("ServeContext after Close = %v, want nil", err)
		}
	case <-time.After(time.Second):
		ln.Close() //nolint:errcheck // unblock the leaked Accept
		t.Fatal("ServeContext after Close is still accepting")
	}
}

// TestConcurrentExecAndStats drives exec, relayed exec and stats requests at one
// daemon from concurrent connections. The simulated GPU takes no lock of
// its own, so the daemon's gpuMu is all that keeps these calls apart: under
// -race an unserialized GPU call fails here. Once every request drains, the
// GPU's in-flight count must be back at zero (every Begin met its End).
func TestConcurrentExecAndStats(t *testing.T) {
	cfg := testConfig()
	cfg.TimeScale = 0.001 // sleep briefly, so requests overlap on the GPU
	addr, _ := startEdge(t, cfg)
	ctx := context.Background()
	const perConn = 40
	requests := []*wire.Envelope{
		{Type: wire.MsgExecRequest, ExecReq: &wire.ExecReq{ClientID: 1,
			ServerBaseNs: int64(5 * time.Millisecond), Intensity: 0.2, InputBytes: 4 << 10}},
		{Type: wire.MsgExecRequest, ExecReq: &wire.ExecReq{ClientID: 2,
			ServerBaseNs: int64(3 * time.Millisecond), Intensity: 0.4, InputBytes: 2 << 10, Next: []wire.PlanHop{
				{Addr: addr, ServerBaseNs: int64(2 * time.Millisecond), Intensity: 0.1, InBytes: 1 << 10},
			}}},
		{Type: wire.MsgStatsRequest},
	}
	var wg sync.WaitGroup
	for i := 0; i < 3*len(requests); i++ {
		req := requests[i%len(requests)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := wire.DialContext(ctx, addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close() //nolint:errcheck // test teardown
			for j := 0; j < perConn; j++ {
				resp, err := conn.RoundTripContext(ctx, req)
				if err != nil {
					t.Error(err)
					return
				}
				if req.Type == wire.MsgStatsRequest {
					if resp.Type != wire.MsgStatsResponse || resp.Stats == nil || resp.Stats.Sample == nil {
						t.Errorf("bad stats response %+v", resp)
						return
					}
				} else if resp.Type != wire.MsgExecResponse || resp.ExecResp == nil || resp.ExecResp.ExecNs <= 0 {
					t.Errorf("bad %v response %+v", req.Type, resp)
					return
				}
			}
		}()
	}
	wg.Wait()

	conn, err := wire.DialContext(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close() //nolint:errcheck // test teardown
	resp, err := conn.RoundTripContext(ctx, &wire.Envelope{Type: wire.MsgStatsRequest})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stats == nil || resp.Stats.Sample == nil {
		t.Fatalf("bad stats response %+v", resp)
	}
	if n := resp.Stats.Sample.ActiveClients; n != 0 {
		t.Errorf("ActiveClients = %d after every request drained, want 0", n)
	}
}

// TestUploadChargesModelWeights: a unit is charged its layers' weight
// bytes and never a size its sender declares. A frame in v6's upload
// layout, which declared 1 TiB for one layer, is malformed under the
// current version and charges nothing; the same unit without the declared
// size is charged the layer's weights.
func TestUploadChargesModelWeights(t *testing.T) {
	ctx := context.Background()
	addr, srv := startEdge(t, testConfig())
	body := binary.AppendVarint([]byte{1}, 1) // presence, ClientID
	body = binary.AppendUvarint(body, 1)      // one layer ID
	body = binary.AppendVarint(body, 0)       // layer 0
	v6 := binary.AppendVarint(body, 1<<40)    // v6's declared Bytes
	v6 = binary.AppendVarint(v6, 0)           // Seq
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close() //nolint:errcheck // test teardown
	if _, err := raw.Write(append([]byte{wire.ProtoVersion, byte(wire.MsgUploadUnit), 0, 0, 0, byte(len(v6))}, v6...)); err != nil {
		t.Fatal(err)
	}
	if err := raw.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(raw); err != nil {
		t.Logf("reading the v6-layout frame's answer: %v", err)
	}
	if got := srv.Metrics().Counter("upload_bytes_total").Value(); got != 0 {
		t.Fatalf("a v6-layout unit declaring 1 TiB was charged %d bytes", got)
	}

	conn, err := wire.DialContext(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close() //nolint:errcheck // test teardown
	resp, err := conn.RoundTripContext(ctx, &wire.Envelope{Type: wire.MsgUploadUnit,
		Upload: &wire.Upload{ClientID: 1, Layers: []dnn.LayerID{0}}})
	if err != nil || resp.Ack == nil || !resp.Ack.OK {
		t.Fatalf("upload: %+v, %v", resp, err)
	}
	if got, want := srv.Metrics().Counter("upload_bytes_total").Value(), srv.model.Layer(0).WeightBytes; got != want {
		t.Errorf("upload_bytes_total = %d, want layer 0's %d weight bytes", got, want)
	}
}

// TestExecRefusals: an exec request no client of the model could send is
// refused before any GPU work or relay — its own stage or any hop above
// the model's total server time or activation bytes, an intensity that is
// NaN or outside [0, 1], a relay list longer than the model has layers or
// naming one address twice — with an error ack wrapping ErrExecRefused
// and one count under its reason. A request at every bound runs.
func TestExecRefusals(t *testing.T) {
	m, err := dnn.ZooModel(testConfig().Model)
	if err != nil {
		t.Fatal(err)
	}
	maxBase := int64(profile.NewModelProfile(m, profile.ClientODROID(), profile.ServerTitanXp()).TotalServerBase())
	maxIn := m.Topo().InBytes
	for _, b := range m.Topo().OutBytes {
		maxIn += b
	}
	ok := func() wire.ExecReq {
		return wire.ExecReq{ClientID: 1, ServerBaseNs: maxBase, Intensity: 1, InputBytes: maxIn}
	}
	hop := func(addr string) wire.PlanHop {
		return wire.PlanHop{Addr: addr, ServerBaseNs: 1000, Intensity: 0.5, InBytes: 64}
	}
	manyHops := make([]wire.PlanHop, m.NumLayers()+1)
	for i := range manyHops {
		manyHops[i] = hop(fmt.Sprintf("127.0.0.1:%d", 1+i))
	}
	cases := []struct {
		name, reason string
		edit         func(r *wire.ExecReq)
	}{
		{"base", "base", func(r *wire.ExecReq) { r.ServerBaseNs = maxBase + 1 }},
		{"hop-base", "base", func(r *wire.ExecReq) {
			r.Next = []wire.PlanHop{hop("127.0.0.1:1")}
			r.Next[0].ServerBaseNs = maxBase + 1
		}},
		{"input", "input", func(r *wire.ExecReq) { r.InputBytes = maxIn + 1 }},
		{"hop-input", "input", func(r *wire.ExecReq) {
			r.Next = []wire.PlanHop{hop("127.0.0.1:1"), hop("127.0.0.1:2")}
			r.Next[1].InBytes = maxIn + 1
		}},
		{"intensity-nan", "intensity", func(r *wire.ExecReq) { r.Intensity = math.NaN() }},
		{"intensity-negative", "intensity", func(r *wire.ExecReq) { r.Intensity = -0.1 }},
		{"hop-intensity", "intensity", func(r *wire.ExecReq) {
			r.Next = []wire.PlanHop{hop("127.0.0.1:1")}
			r.Next[0].Intensity = 1.5
		}},
		{"hops", "hops", func(r *wire.ExecReq) { r.Next = manyHops }},
		{"repeat", "repeat", func(r *wire.ExecReq) {
			r.Next = []wire.PlanHop{hop("127.0.0.1:1"), hop("127.0.0.1:2"), hop("127.0.0.1:1")}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ctx := context.Background()
			addr, srv := startEdge(t, testConfig())
			conn, err := wire.DialContext(ctx, addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close() //nolint:errcheck // test teardown
			req := ok()
			c.edit(&req)
			resp, err := conn.RoundTripContext(ctx, &wire.Envelope{Type: wire.MsgExecRequest, ExecReq: &req})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Ack == nil || resp.Ack.OK || !strings.Contains(resp.Ack.Error, core.ErrExecRefused.Error()) {
				t.Errorf("want an error ack wrapping ErrExecRefused, got %+v", resp)
			}
			met := srv.Metrics()
			if got := met.Counter("exec_refused_" + c.reason + "_total").Value(); got != 1 {
				t.Errorf("exec_refused_%s_total = %d, want 1", c.reason, got)
			}
			if e, f := met.Counter("execs_total").Value(), met.Counter("forwards_total").Value(); e != 0 || f != 0 {
				t.Errorf("refused request ran: %d execs, %d forwards", e, f)
			}
		})
	}
	t.Run("at-bounds", func(t *testing.T) {
		ctx := context.Background()
		addr, _ := startEdge(t, testConfig())
		conn, err := wire.DialContext(ctx, addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close() //nolint:errcheck // test teardown
		req := ok()
		resp, err := conn.RoundTripContext(ctx, &wire.Envelope{Type: wire.MsgExecRequest, ExecReq: &req})
		if err != nil || resp.Type != wire.MsgExecResponse {
			t.Errorf("a request at every bound was refused: %+v, %v", resp, err)
		}
	})
}

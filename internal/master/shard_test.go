package master

import (
	"context"
	"log/slog"
	"net"
	"os"
	"sync"
	"testing"

	"perdnn/internal/dnn"
	"perdnn/internal/edged"
	"perdnn/internal/estimator"
	"perdnn/internal/geo"
	"perdnn/internal/gpusim"
	"perdnn/internal/mobile"
	"perdnn/internal/obs"
	"perdnn/internal/obs/tracing"
	"perdnn/internal/profile"
	"perdnn/internal/wire"
)

// The sharded fixture: four edge daemons in a 2x2 cell block, one master
// per shard (Shards=4 puts each edge in its own region), all sharing one
// trained estimator. Built once — master construction is the expensive
// part — and reused across the shard tests.
var (
	shardOnce    sync.Once
	shardErr     error
	shardEdges   []EdgeInfo
	shardEdged   []*edged.Server // shardEdged[i] serves shardEdges[i]
	shardEdgeOf  []int           // shardEdgeOf[i] = shard owning shardEdges[i]
	shardMasters []*Master
	shardAddrs   []string
)

const numShards = 4

func shardFixture(t *testing.T) {
	t.Helper()
	ctx := context.Background()
	shardOnce.Do(func() {
		grid := geo.NewHexGrid(50)
		cells := []geo.HexCell{{Q: 0, R: 0}, {Q: 1, R: 0}, {Q: 0, R: 1}, {Q: 1, R: 1}}
		for i, cell := range cells {
			ecfg := edged.DefaultConfig(dnn.ModelMobileNet)
			ecfg.TimeScale = 0
			ecfg.GPUSeed = int64(i + 1)
			esrv, err := edged.New(ecfg)
			if err != nil {
				shardErr = err
				return
			}
			eln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				shardErr = err
				return
			}
			go esrv.ServeContext(ctx, eln) //nolint:errcheck // lives for the test binary
			shardEdges = append(shardEdges, EdgeInfo{Addr: eln.Addr().String(), Location: grid.Center(cell)})
			shardEdged = append(shardEdged, esrv)
		}

		// Train the estimator once; every shard master shares it.
		est, err := estimator.TrainServerEstimator(profile.ServerTitanXp(), gpusim.DefaultParams(), 1)
		if err != nil {
			shardErr = err
			return
		}

		lns := make([]net.Listener, numShards)
		for i := range lns {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				shardErr = err
				return
			}
			lns[i] = ln
			shardAddrs = append(shardAddrs, ln.Addr().String())
		}
		for i := 0; i < numShards; i++ {
			cfg := DefaultConfig(shardEdges)
			cfg.Shard = i
			cfg.Shards = numShards
			cfg.Peers = shardAddrs
			cfg.Estimator = est
			cfg.Tracer = tracing.NewWallClock()
			cfg.Logger = obs.NewLogger(os.Stderr, slog.LevelWarn, "master")
			m, err := New(cfg)
			if err != nil {
				shardErr = err
				return
			}
			go m.ServeContext(ctx, lns[i]) //nolint:errcheck // lives for the test binary
			shardMasters = append(shardMasters, m)
		}

		// Every master builds the identical shard map; recompute it here to
		// learn which shard owns each edge.
		smap := geo.NewShardMap(shardMasters[0].Placement(), numShards)
		for _, e := range shardEdges {
			sid := shardMasters[0].Placement().ServerAt(e.Location)
			shardEdgeOf = append(shardEdgeOf, smap.ShardOf(sid))
		}
	})
	if shardErr != nil {
		t.Fatal(shardErr)
	}
}

func TestShardConfigValidation(t *testing.T) {
	edges := []EdgeInfo{{Addr: "a", Location: geo.Point{}}, {Addr: "b", Location: geo.Point{X: 90}}}
	cfg := DefaultConfig(edges)
	cfg.Shards = 2
	cfg.Shard = 2
	if _, err := New(cfg); err == nil {
		t.Error("out-of-range shard accepted")
	}
	cfg.Shard = 0
	cfg.Peers = []string{"only-one"}
	if _, err := New(cfg); err == nil {
		t.Error("short peer list accepted")
	}
}

// edgeInShard returns the index of the first fixture edge owned by shard s.
func edgeInShard(t *testing.T, s int) int {
	t.Helper()
	for i, owner := range shardEdgeOf {
		if owner == s {
			return i
		}
	}
	t.Fatalf("no fixture edge in shard %d (ownership %v)", s, shardEdgeOf)
	return -1
}

// TestShardHandoffLive drives the full live handoff path over real TCP: a
// client attached to shard A's master completes a query, walks across the
// region boundary, is handed off to shard B's master transparently inside
// ReportLocationContext, and completes another query planned by the new
// master. The handoff itself is one trace spanning both masters.
func TestShardHandoffLive(t *testing.T) {
	shardFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)

	eA := edgeInShard(t, 0)
	fromShard := shardEdgeOf[eA]
	var eB int
	for i, owner := range shardEdgeOf {
		if owner != fromShard {
			eB = i
			break
		}
	}
	toShard := shardEdgeOf[eB]
	mA, mB := shardMasters[fromShard], shardMasters[toShard]
	handoffsBefore := mA.Metrics().Counter("shard_handoffs_total").Value()
	adoptionsBefore := mB.Metrics().Counter("shard_adoptions_total").Value()
	// The shard masters are shared by the package's tests; spans, like the
	// counters, are read as what this test adds.
	spansBeforeA, spansBeforeB := mA.Tracer().Len(), mB.Tracer().Len()

	cl, err := mobile.DialContext(ctx, mobile.Config{
		ID:         42,
		Model:      dnn.ModelMobileNet,
		MasterAddr: shardAddrs[fromShard],
		Tracer:     tracing.NewWallClock(),
		Logger:     obs.NewLogger(os.Stderr, slog.LevelWarn, "mobile"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close() //nolint:errcheck // test teardown

	// Attach to shard A's edge and complete a query before the crossing.
	locA, locB := shardEdges[eA].Location, shardEdges[eB].Location
	if err := cl.ReportLocationContext(ctx, locA); err != nil {
		t.Fatalf("report in home shard: %v", err)
	}
	if got := cl.Metrics().Counter("master_handoffs_total").Value(); got != 0 {
		t.Fatalf("home-shard report re-homed the client %d times", got)
	}
	sidA := mA.Placement().ServerAt(locA)
	if err := cl.ConnectContext(ctx, sidA, shardEdges[eA].Addr); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.UploadAllContext(ctx); err != nil {
		t.Fatal(err)
	}
	if lat, err := cl.QueryContext(ctx); err != nil || lat <= 0 {
		t.Fatalf("query before handoff: lat=%v err=%v", lat, err)
	}

	// Cross the boundary: the report comes back as a redirect, the client
	// re-homes onto shard B's master, and the report lands there.
	if err := cl.ReportLocationContext(ctx, locB); err != nil {
		t.Fatalf("report across boundary: %v", err)
	}
	if got := cl.Metrics().Counter("master_handoffs_total").Value(); got != 1 {
		t.Errorf("client re-homed %d times, want 1", got)
	}
	if got := mA.Metrics().Counter("shard_handoffs_total").Value() - handoffsBefore; got != 1 {
		t.Errorf("shard %d handed off %d clients, want 1", fromShard, got)
	}
	if got := mB.Metrics().Counter("shard_adoptions_total").Value() - adoptionsBefore; got != 1 {
		t.Errorf("shard %d adopted %d clients, want 1", toShard, got)
	}

	// Complete a query after the handoff, planned by the new master.
	sidB := mB.Placement().ServerAt(locB)
	if err := cl.ConnectContext(ctx, sidB, shardEdges[eB].Addr); err != nil {
		t.Fatalf("connect via new master: %v", err)
	}
	if _, err := cl.UploadAllContext(ctx); err != nil {
		t.Fatal(err)
	}
	if lat, err := cl.QueryContext(ctx); err != nil || lat <= 0 {
		t.Fatalf("query after handoff: lat=%v err=%v", lat, err)
	}

	// Each query is one trace: exactly one root query span per trace on the
	// client, and the two queries use distinct traces.
	queryTraces := make(map[tracing.TraceID]int)
	for _, s := range cl.Tracer().Spans() {
		if s.Stage == tracing.StageQuery {
			if s.Parent != 0 {
				t.Errorf("query span %d has parent %d, want root", s.ID, s.Parent)
			}
			queryTraces[s.Trace]++
		}
	}
	if len(queryTraces) != 2 {
		t.Errorf("queries used %d traces, want 2", len(queryTraces))
	}
	for tr, n := range queryTraces {
		if n != 1 {
			t.Errorf("trace %d has %d query roots, want 1", tr, n)
		}
	}

	// The handoff is one trace spanning both masters: the sender's handoff
	// span roots it and the adopter's span parents to the sender's.
	var sent, adopted []tracing.Span
	for _, s := range mA.Tracer().Spans()[spansBeforeA:] {
		if s.Stage == tracing.StageShardHandoff {
			sent = append(sent, s)
		}
	}
	for _, s := range mB.Tracer().Spans()[spansBeforeB:] {
		if s.Stage == tracing.StageShardHandoff {
			adopted = append(adopted, s)
		}
	}
	if len(sent) != 1 || len(adopted) != 1 {
		t.Fatalf("handoff spans: %d sent, %d adopted, want 1 each", len(sent), len(adopted))
	}
	if sent[0].Trace != adopted[0].Trace {
		t.Errorf("handoff split across traces %d and %d", sent[0].Trace, adopted[0].Trace)
	}
	if adopted[0].Parent != sent[0].ID {
		t.Errorf("adoption span parents to %d, want sender span %d", adopted[0].Parent, sent[0].ID)
	}
}

// TestShardMigrationOrderedOncePerRefresh: a predicted target in another
// shard's region is ordered by the client's own master, like a target in
// its own region: once per refresh, and without a request to any peer
// master.
func TestShardMigrationOrderedOncePerRefresh(t *testing.T) {
	shardFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	const clientID = 4242
	src := edgeInShard(t, 0)
	home := shardMasters[shardEdgeOf[src]]
	here := shardEdges[src].Location
	// The foreign edges the prediction takes in from the source's centre.
	var targets []int
	for i, e := range shardEdges {
		if i != src && e.Location.Dist(here) <= home.cfg.Radius {
			if shardEdgeOf[i] == shardEdgeOf[src] {
				t.Fatalf("fixture edge %d shares shard %d with the source", i, shardEdgeOf[src])
			}
			targets = append(targets, i)
		}
	}
	if len(targets) == 0 {
		t.Fatal("no fixture edge within Radius of the source")
	}
	counter := func(m *Master, name string) int64 { return m.Metrics().Counter(name).Value() }
	orderedBefore := counter(home, "migrations_ordered_total")
	suppressedBefore := counter(home, "migrations_suppressed_total")
	errorsBefore := counter(home, "migration_errors_total")
	pushesBefore := shardEdged[src].Metrics().Counter("migrations_total").Value()
	peerRequestsBefore := make([]int64, numShards)
	for i, m := range shardMasters {
		peerRequestsBefore[i] = counter(m, "requests_total")
	}

	// The source edge holds the whole model, so every push is complete.
	mdl, err := dnn.ZooModel(dnn.ModelMobileNet)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]dnn.LayerID, mdl.NumLayers())
	for i := range all {
		all[i] = dnn.LayerID(i)
	}
	edge, err := wire.DialContext(ctx, shardEdges[src].Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer edge.Close() //nolint:errcheck // test teardown
	if resp, err := edge.RoundTripContext(ctx, &wire.Envelope{
		Type:   wire.MsgUploadUnit,
		Upload: &wire.Upload{ClientID: clientID, Layers: all},
	}); err != nil || resp.Ack == nil || !resp.Ack.OK {
		t.Fatalf("seed upload: %v %+v", err, resp)
	}

	conn := dialMaster(t, shardAddrs[shardEdgeOf[src]])
	registerAs(t, conn, clientID, dnn.ModelMobileNet)
	const reports = 5 // ordered on report 2, suppressed on 3-5
	for i := 0; i < reports; i++ {
		report(t, conn, clientID, here)
	}
	n := int64(len(targets))
	if got := counter(home, "migrations_ordered_total") - orderedBefore; got != n {
		t.Errorf("%d reports ordered %d migrations, want %d (one per target)", reports, got, n)
	}
	if got := counter(home, "migrations_suppressed_total") - suppressedBefore; got != 3*n {
		t.Errorf("migrations_suppressed_total grew by %d, want %d", got, 3*n)
	}
	if got := counter(home, "migration_errors_total") - errorsBefore; got != 0 {
		t.Errorf("%d migration errors", got)
	}
	if got := shardEdged[src].Metrics().Counter("migrations_total").Value() - pushesBefore; got != n {
		t.Errorf("the source edge pushed %d times, want %d", got, n)
	}
	for i, m := range shardMasters {
		if m == home {
			continue
		}
		if got := counter(m, "requests_total") - peerRequestsBefore[i]; got != 0 {
			t.Errorf("peer master %d answered %d requests, want 0", i, got)
		}
	}
}

// TestShardRingCrossings is the boundary-crossing property test: a client
// walking a ring through every region experiences exactly one handoff per
// crossing, and after the walk its registration lives on exactly one
// master — never duplicated, never lost.
func TestShardRingCrossings(t *testing.T) {
	shardFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)

	handoffsBefore := make([]int64, numShards)
	for i, m := range shardMasters {
		handoffsBefore[i] = m.Metrics().Counter("shard_handoffs_total").Value()
	}

	// Order the edges so consecutive ring stops sit in different shards,
	// then walk the ring three times.
	ring := make([]int, 0, numShards)
	for s := 0; s < numShards; s++ {
		ring = append(ring, edgeInShard(t, s))
	}
	const laps = 3
	path := make([]int, 0, laps*len(ring))
	for lap := 0; lap < laps; lap++ {
		path = append(path, ring...)
	}

	cl, err := mobile.DialContext(ctx, mobile.Config{
		ID:         77,
		Model:      dnn.ModelMobileNet,
		MasterAddr: shardAddrs[shardEdgeOf[path[0]]],
		Logger:     obs.NewLogger(os.Stderr, slog.LevelWarn, "mobile"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close() //nolint:errcheck // test teardown

	crossings := 0
	cur := shardEdgeOf[path[0]]
	for _, e := range path {
		if shardEdgeOf[e] != cur {
			crossings++
			cur = shardEdgeOf[e]
		}
		if err := cl.ReportLocationContext(ctx, shardEdges[e].Location); err != nil {
			t.Fatalf("report at edge %d: %v", e, err)
		}
	}
	if crossings == 0 {
		t.Fatal("ring never crossed a boundary")
	}

	if got := cl.Metrics().Counter("master_handoffs_total").Value(); got != int64(crossings) {
		t.Errorf("client re-homed %d times for %d crossings", got, crossings)
	}
	var handoffs int64
	for i, m := range shardMasters {
		handoffs += m.Metrics().Counter("shard_handoffs_total").Value() - handoffsBefore[i]
	}
	if handoffs != int64(crossings) {
		t.Errorf("masters handed off %d times for %d crossings", handoffs, crossings)
	}

	// Exactly one master still knows the client: the final region's owner
	// accepts its report, every other master rejects it as unknown.
	last := shardEdges[path[len(path)-1]].Location
	owners := 0
	for i, addr := range shardAddrs {
		conn, err := wire.DialContext(context.Background(), addr)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := conn.RoundTripContext(context.Background(), &wire.Envelope{
			Type:       wire.MsgTrajectory,
			Trajectory: &wire.Trajectory{ClientID: 77, Points: []geo.Point{last}},
		})
		if err != nil {
			t.Fatalf("probing master %d: %v", i, err)
		}
		if resp.Type == wire.MsgAck && resp.Ack != nil && resp.Ack.OK {
			owners++
			if i != cur {
				t.Errorf("master %d owns the client, want %d", i, cur)
			}
		}
		if err := conn.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if owners != 1 {
		t.Errorf("%d masters own the client, want exactly 1", owners)
	}
}

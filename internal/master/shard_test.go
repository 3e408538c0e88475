package master

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"math"
	"net"
	"os"
	"testing"
	"time"

	"perdnn/internal/core"
	"perdnn/internal/dnn"
	"perdnn/internal/edged"
	"perdnn/internal/geo"
	"perdnn/internal/livetest"
	"perdnn/internal/mobile"
	"perdnn/internal/obs"
	"perdnn/internal/obs/tracing"
	"perdnn/internal/wire"
)

// shardCluster is the sharded live cluster: four edge daemons in a 2x2
// cell block and one master per shard (four shards put each edge in its
// own region), all stopped with the test.
type shardCluster struct {
	edges   []EdgeInfo
	edged   []*edged.Server // edged[i] serves edges[i]
	edgeOf  []int           // edgeOf[i] = shard owning edges[i]
	masters []*Master
	addrs   []string
	stop    []func() // stop[i] stops masters[i]
}

const numShards = 4

func shardFixture(t *testing.T) *shardCluster {
	t.Helper()
	c := &shardCluster{}
	c.edges, c.edged = startEdges(t, geo.HexCell{Q: 0, R: 0}, geo.HexCell{Q: 1, R: 0}, geo.HexCell{Q: 0, R: 1}, geo.HexCell{Q: 1, R: 1})
	// Every master's config names every shard's address, so all listen
	// before any is built.
	lns := make([]net.Listener, numShards)
	for i := range lns {
		lns[i] = livetest.Listen(t)
		c.addrs = append(c.addrs, lns[i].Addr().String())
	}
	for i, ln := range lns {
		cfg := DefaultConfig(c.edges)
		cfg.Shard = i
		cfg.Peers = c.addrs
		cfg.Tracer = tracing.NewWallClock()
		m := newMaster(t, cfg)
		c.stop = append(c.stop, livetest.ServeOn(t, ln, m))
		c.masters = append(c.masters, m)
	}

	// Every master builds the identical shard map; recompute it here to
	// learn which shard owns each edge.
	smap := geo.NewShardMap(c.masters[0].Placement(), numShards)
	for _, e := range c.edges {
		sid := c.masters[0].Placement().ServerAt(e.Location)
		c.edgeOf = append(c.edgeOf, smap.ShardOf(sid))
	}
	return c
}

func TestShardConfigValidation(t *testing.T) {
	edges := []EdgeInfo{{Addr: "a", Location: geo.Point{}}, {Addr: "b", Location: geo.Point{X: 90}}}
	cfg := DefaultConfig(edges)
	cfg.Peers = []string{"a", "b"}
	cfg.Shard = 2
	if _, err := New(cfg); err == nil {
		t.Error("out-of-range shard accepted")
	}
}

// edgeInShard returns the index of the first fixture edge owned by shard s.
func (c *shardCluster) edgeInShard(t *testing.T, s int) int {
	t.Helper()
	for i, owner := range c.edgeOf {
		if owner == s {
			return i
		}
	}
	t.Fatalf("no fixture edge in shard %d (ownership %v)", s, c.edgeOf)
	return -1
}

// crossing returns two fixture edges in different shards: the client's
// home edge, and the one it crosses to.
func (c *shardCluster) crossing(t *testing.T) (home, away int) {
	t.Helper()
	home = c.edgeInShard(t, 0)
	return home, c.edgeInShard(t, (c.edgeOf[home]+1)%numShards)
}

// TestShardHandoffLive drives the full live handoff path over real TCP: a
// client attached to shard A's master completes a query, walks across the
// region boundary, is handed off to shard B's master transparently inside
// ReportLocationContext, and completes another query planned by the new
// master. The handoff itself is one trace spanning both masters.
func TestShardHandoffLive(t *testing.T) {
	c := shardFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)

	eA := c.edgeInShard(t, 0)
	fromShard := c.edgeOf[eA]
	var eB int
	for i, owner := range c.edgeOf {
		if owner != fromShard {
			eB = i
			break
		}
	}
	toShard := c.edgeOf[eB]
	mA, mB := c.masters[fromShard], c.masters[toShard]
	handoffsBefore := mA.Metrics().Counter("shard_handoffs_total").Value()
	adoptionsBefore := mB.Metrics().Counter("shard_adoptions_total").Value()
	// Spans, like the counters, are read as what this test adds.
	spansBeforeA, spansBeforeB := len(mA.Tracer().Spans()), len(mB.Tracer().Spans())

	clTr := tracing.NewWallClock()
	cl, err := mobile.DialContext(ctx, mobile.Config{
		ID:         42,
		Model:      dnn.ModelMobileNet,
		MasterAddr: c.addrs[fromShard],
		Tracer:     clTr,
		Logger:     obs.NewLogger(os.Stderr, slog.LevelWarn, "mobile"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close() //nolint:errcheck // test teardown

	// Attach to shard A's edge and complete a query before the crossing.
	locA, locB := c.edges[eA].Location, c.edges[eB].Location
	if err := cl.ReportLocationContext(ctx, locA); err != nil {
		t.Fatalf("report in home shard: %v", err)
	}
	if got := cl.Metrics().Counter("master_handoffs_total").Value(); got != 0 {
		t.Fatalf("home-shard report re-homed the client %d times", got)
	}
	sidA := mA.Placement().ServerAt(locA)
	if err := cl.ConnectContext(ctx, sidA, c.edges[eA].Addr); err != nil {
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
	if err := cl.ConnectContext(ctx, sidB, c.edges[eB].Addr); err != nil {
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
	for _, s := range clTr.Spans() {
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
	c := shardFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	const clientID = 4242
	src := c.edgeInShard(t, 0)
	home := c.masters[c.edgeOf[src]]
	here := c.edges[src].Location
	// The foreign edges the prediction takes in from the source's centre.
	var targets []int
	for i, e := range c.edges {
		if i != src && e.Location.Dist(here) <= home.cfg.Radius {
			if c.edgeOf[i] == c.edgeOf[src] {
				t.Fatalf("fixture edge %d shares shard %d with the source", i, c.edgeOf[src])
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
	pushesBefore := c.edged[src].Metrics().Counter("migrations_total").Value()
	peerRequestsBefore := make([]int64, numShards)
	for i, m := range c.masters {
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
	edge, err := wire.DialContext(ctx, c.edges[src].Addr)
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

	conn := dialMaster(t, c.addrs[c.edgeOf[src]])
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
	if got := c.edged[src].Metrics().Counter("migrations_total").Value() - pushesBefore; got != n {
		t.Errorf("the source edge pushed %d times, want %d", got, n)
	}
	for i, m := range c.masters {
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
	c := shardFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)

	handoffsBefore := make([]int64, numShards)
	for i, m := range c.masters {
		handoffsBefore[i] = m.Metrics().Counter("shard_handoffs_total").Value()
	}

	// Order the edges so consecutive ring stops sit in different shards,
	// then walk the ring three times.
	ring := make([]int, 0, numShards)
	for s := 0; s < numShards; s++ {
		ring = append(ring, c.edgeInShard(t, s))
	}
	const laps = 3
	path := make([]int, 0, laps*len(ring))
	for lap := 0; lap < laps; lap++ {
		path = append(path, ring...)
	}

	cl, err := mobile.DialContext(ctx, mobile.Config{
		ID:         77,
		Model:      dnn.ModelMobileNet,
		MasterAddr: c.addrs[c.edgeOf[path[0]]],
		Logger:     obs.NewLogger(os.Stderr, slog.LevelWarn, "mobile"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close() //nolint:errcheck // test teardown

	crossings := 0
	cur := c.edgeOf[path[0]]
	for _, e := range path {
		if c.edgeOf[e] != cur {
			crossings++
			cur = c.edgeOf[e]
		}
		if err := cl.ReportLocationContext(ctx, c.edges[e].Location); err != nil {
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
	for i, m := range c.masters {
		handoffs += m.Metrics().Counter("shard_handoffs_total").Value() - handoffsBefore[i]
	}
	if handoffs != int64(crossings) {
		t.Errorf("masters handed off %d times for %d crossings", handoffs, crossings)
	}

	// Exactly one master still knows the client: the final region's owner
	// accepts its report, every other master rejects it as unknown.
	last := c.edges[path[len(path)-1]].Location
	owners := 0
	for i, addr := range c.addrs {
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

// TestRedirectedClientKeepsItsMaster: a redirect changes nothing at the
// master that sent it. A client that has been told to move but has not
// yet presented the redirect elsewhere still plans and reports through its
// old master, over the same connection.
func TestRedirectedClientKeepsItsMaster(t *testing.T) {
	c := shardFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	const id = 7
	home, away := c.crossing(t)
	mA := c.masters[c.edgeOf[home]]
	conn := dialMaster(t, c.addrs[c.edgeOf[home]])
	registerAs(t, conn, id, dnn.ModelMobileNet)
	report(t, conn, id, c.edges[home].Location)

	resp, err := conn.RoundTripContext(ctx, &wire.Envelope{
		Type:       wire.MsgTrajectory,
		Trajectory: &wire.Trajectory{ClientID: id, Points: []geo.Point{c.edges[away].Location}},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := resp.Handoff
	if resp.Type != wire.MsgShardHandoff || h == nil {
		t.Fatalf("crossing report answered %+v, want a redirect", resp)
	}
	if h.ClientID != id || h.ToShard != c.edgeOf[away] || h.Addr != c.addrs[h.ToShard] || len(h.History) != 2 {
		t.Errorf("redirect %+v: want client %d to shard %d at %s with 2 points of history", h, id, c.edgeOf[away], c.addrs[c.edgeOf[away]])
	}
	if resp.Trace.Trace == 0 || resp.Trace.Span == 0 {
		t.Errorf("redirect carries span context %+v, want the handoff's root span", resp.Trace)
	}

	plan, err := conn.RoundTripContext(ctx, &wire.Envelope{
		Type:    wire.MsgPlanRequest,
		PlanReq: &wire.PlanReq{ClientID: id, Server: mA.Placement().ServerAt(c.edges[home].Location)},
	})
	if err != nil || plan.Type != wire.MsgPlanResponse {
		t.Fatalf("plan after the redirect: %v %+v", err, plan)
	}
	report(t, conn, id, c.edges[home].Location)
	if got := mA.Metrics().Gauge("clients").Value(); got != 1 {
		t.Errorf("clients gauge = %d, want 1", got)
	}
}

// TestShardCrossingFailsWhileTheNewMasterIsDown: with the region's master
// stopped, a crossing report fails like a report to a master that is down,
// and the client stays registered, attached and served where it was.
func TestShardCrossingFailsWhileTheNewMasterIsDown(t *testing.T) {
	c := shardFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	home, away := c.crossing(t)
	mA := c.masters[c.edgeOf[home]]
	c.stop[c.edgeOf[away]]()

	cl, err := mobile.DialContext(ctx, mobile.Config{
		ID:         9,
		Model:      dnn.ModelMobileNet,
		MasterAddr: c.addrs[c.edgeOf[home]],
		Retry:      &core.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond},
		Logger:     obs.NewLogger(io.Discard, slog.LevelError, "mobile"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close() //nolint:errcheck // test teardown
	if err := cl.ReportLocationContext(ctx, c.edges[home].Location); err != nil {
		t.Fatal(err)
	}
	if err := cl.ReportLocationContext(ctx, c.edges[away].Location); !errors.Is(err, core.ErrMasterDown) {
		t.Fatalf("crossing report to a stopped master: %v, want core.ErrMasterDown", err)
	}
	if got := cl.Metrics().Counter("master_handoffs_total").Value(); got != 0 {
		t.Errorf("client re-homed %d times, want 0", got)
	}
	if got := mA.Metrics().Gauge("clients").Value(); got != 1 {
		t.Errorf("clients gauge = %d, want 1", got)
	}
	sid := mA.Placement().ServerAt(c.edges[home].Location)
	if err := cl.ConnectContext(ctx, sid, c.edges[home].Addr); err != nil {
		t.Fatalf("connect through the old master: %v", err)
	}
	if _, err := cl.UploadAllContext(ctx); err != nil {
		t.Fatal(err)
	}
	if lat, err := cl.QueryContext(ctx); err != nil || lat <= 0 {
		t.Fatalf("query through the old master: lat=%v err=%v", lat, err)
	}
}

// TestShardAtFarOrNonFinitePoint: a report far outside every region is
// answered at once, and one that is not a point at all is refused.
func TestShardAtFarOrNonFinitePoint(t *testing.T) {
	c := shardFixture(t)
	home, _ := c.crossing(t)
	conn := dialMaster(t, c.addrs[c.edgeOf[home]])
	registerAs(t, conn, 3, dnn.ModelMobileNet)
	for _, p := range []geo.Point{{X: 1e7}, {X: math.NaN()}, {Y: math.Inf(-1)}} {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		resp, err := conn.RoundTripContext(ctx, &wire.Envelope{
			Type:       wire.MsgTrajectory,
			Trajectory: &wire.Trajectory{ClientID: 3, Points: []geo.Point{p}},
		})
		cancel()
		if err != nil {
			t.Fatalf("report at %v: %v", p, err)
		}
		refused := resp.Ack != nil && !resp.Ack.OK
		if finite := geo.Finite([]geo.Point{p}); refused == finite {
			t.Errorf("report at %v answered %+v", p, resp)
		}
	}
}

// TestHandedOffClientsForgottenWithTheirConnections is the handoff's
// churn test: 10k clients register at one master and cross into another
// region; half present the redirect there and half never do. Once every
// connection has closed, neither master holds a client.
func TestHandedOffClientsForgottenWithTheirConnections(t *testing.T) {
	c := shardFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	home, away := c.crossing(t)
	mA, mB := c.masters[c.edgeOf[home]], c.masters[c.edgeOf[away]]
	const conns, perConn = 100, 100
	for i := 0; i < conns; i++ {
		connA := dialMaster(t, c.addrs[c.edgeOf[home]])
		connB := dialMaster(t, c.addrs[c.edgeOf[away]])
		for j := 0; j < perConn; j++ {
			id := i*perConn + j
			registerAs(t, connA, id, dnn.ModelMobileNet)
			redirect, err := connA.RoundTripContext(ctx, &wire.Envelope{
				Type:       wire.MsgTrajectory,
				Trajectory: &wire.Trajectory{ClientID: id, Points: []geo.Point{c.edges[away].Location}},
			})
			if err != nil || redirect.Type != wire.MsgShardHandoff {
				t.Fatalf("crossing report of %d: %v %+v", id, err, redirect)
			}
			if j%2 == 1 {
				continue // never arrives
			}
			if ack, err := connB.RoundTripContext(ctx, redirect); err != nil || ack.Ack == nil || !ack.Ack.OK {
				t.Fatalf("presenting %d's redirect: %v %+v", id, err, ack)
			}
		}
		for _, conn := range []*wire.Conn{connA, connB} {
			if err := conn.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitClients(t, mA, 0)
	waitClients(t, mB, 0)
	if got := mB.Metrics().Counter("shard_adoptions_total").Value(); got != conns*perConn/2 {
		t.Errorf("%d adoptions, want %d", got, conns*perConn/2)
	}
}

// Package master implements the live master-server daemon: it tracks
// clients' DNN profiles and trajectories, answers plan requests by pinging
// the target edge server for GPU statistics and running the GPU-aware
// partitioner, and periodically predicts client movement to order proactive
// layer migrations between edge daemons (Section III.B).
package master

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"perdnn/internal/core"
	"perdnn/internal/dnn"
	"perdnn/internal/estimator"
	"perdnn/internal/geo"
	"perdnn/internal/gpusim"
	"perdnn/internal/mobility"
	"perdnn/internal/obs"
	"perdnn/internal/obs/tracing"
	"perdnn/internal/partition"
	"perdnn/internal/profile"
	"perdnn/internal/wire"
)

// EdgeInfo describes one edge server the master orchestrates.
type EdgeInfo struct {
	ID       geo.ServerID
	Addr     string
	Location geo.Point
}

// Config parameterizes the master daemon.
type Config struct {
	// Edges are the managed edge servers.
	Edges []EdgeInfo
	// Radius is the proactive-migration radius r.
	Radius float64
	// MaxHops enables multi-hop pipelined planning: plan responses carry a
	// server chain of up to MaxHops stages assembled from the reachable
	// edges within Radius of the requested server (that server first, then
	// nearest first, ties by ID), alongside the single-split fields that
	// remain the failover plan. <= 1 keeps the classic single-split
	// behavior.
	MaxHops int
	// Objective selects what multi-hop plans optimize: latency (default)
	// or pipeline throughput (bottleneck-stage minimization). Ignored when
	// MaxHops <= 1.
	Objective partition.Objective
	// Shard and Peers enable shard-owner mode: this master owns region
	// Shard of len(Peers) total, computed by geo.NewShardMap over the full
	// edge placement (every shard master is configured with the complete
	// edge set so the map is identical everywhere). A trajectory report
	// whose point lies in another region is answered with a redirect
	// (MsgShardHandoff) that carries the client's history to the owning
	// shard's master; the client presents it there. Predicted migration
	// targets are ordered by the client's owner in any region.
	Shard int
	// Peers[i] is the listen address of shard i's master, the address a
	// redirect to shard i names; the shard count is the peer count, and
	// fewer than two peers keep single-master behavior. No master dials a
	// peer.
	Peers []string
	// Estimator, when non-nil, replaces the one trained (seed 1) at startup,
	// so that several masters in one process can share one trained forest.
	Estimator *estimator.ServerEstimator
	// Logger receives the daemon's structured log output; nil defaults to
	// info-level logging on stderr tagged with component=master.
	Logger *slog.Logger
	// Tracer records request-scoped spans (register, plan, migration
	// orders); incoming envelopes that carry a span context link the
	// master's spans under the client's trace. Nil disables tracing.
	Tracer *tracing.Tracer
}

// DefaultConfig returns the paper's parameters for a given edge set.
func DefaultConfig(edges []EdgeInfo) Config {
	return Config{
		Edges:  edges,
		Radius: 100,
	}
}

// Master is a running master daemon.
type Master struct {
	cfg       Config
	placement *geo.Placement
	edgesByID map[geo.ServerID]EdgeInfo
	est       *estimator.ServerEstimator
	policy    *core.MigrationPolicy // built in New, never changed
	log       *slog.Logger
	met       *obs.Registry
	tr        *tracing.Tracer
	edges     *wire.Pool    // reused conns for stats pings and migration orders
	smap      *geo.ShardMap // region ownership map; nil in single-master mode

	// Handles of the per-request metrics, resolved once.
	requests, planRequests, chainPlans   *obs.Counter
	trajectoryPoints                     *obs.Counter
	migOrdered, migSuppressed, migErrors *obs.Counter
	planLatency                          *obs.Histogram
	numClients                           *obs.Gauge // len(clients)

	lastConn atomic.Uint64 // connection IDs handed out so far

	mu       sync.Mutex
	planners map[dnn.ModelName]*core.Planner
	clients  map[int]*clientState

	srv wire.Server // accept loop, per-connection loop, shutdown
}

type clientState struct {
	model   dnn.ModelName
	history []geo.Point
	// conn is the entry's owner: the ID of the connection whose
	// MsgRegister or MsgShardHandoff installed it last. A closing
	// connection forgets only the clients it still owns, so every entry
	// belongs to a live connection.
	conn uint64
	// reports counts this client's trajectory reports, and ordered holds,
	// per migration target, the report at which it last acknowledged a
	// complete push: trajectory skips a target until that is
	// refreshAfter reports old. Both live and die with the entry.
	reports int
	ordered map[geo.ServerID]int
}

// ttlIntervals is the paper's layer-cache lifetime in prediction intervals
// (one trajectory report each). refreshAfter is how many reports a
// completely pushed target is left alone: ordering it again one report
// before its TTL runs out resets the edge's TTL before it can lapse, the
// live form of the simulator's per-interval touch.
const (
	ttlIntervals = 5
	refreshAfter = ttlIntervals - 1
)

// New builds a master for the given configuration. The execution-time
// estimator is trained offline at construction (Section III.C.1); the
// mobility predictor is dead reckoning.
func New(cfg Config) (*Master, error) {
	if len(cfg.Edges) == 0 {
		return nil, errors.New("master: no edge servers configured")
	}
	if cfg.Radius <= 0 {
		return nil, fmt.Errorf("master: non-positive migration radius %v", cfg.Radius)
	}
	if len(cfg.Peers) > 1 && (cfg.Shard < 0 || cfg.Shard >= len(cfg.Peers)) {
		return nil, fmt.Errorf("master: shard %d outside [0,%d)", cfg.Shard, len(cfg.Peers))
	}
	pts := make([]geo.Point, 0, len(cfg.Edges))
	for _, e := range cfg.Edges {
		pts = append(pts, e.Location)
	}
	pl := geo.NewPlacement(geo.NewHexGrid(geo.CellRadius), pts)

	est := cfg.Estimator
	if est == nil {
		trained, err := estimator.TrainServerEstimator(profile.ServerTitanXp(), gpusim.DefaultParams(), 1)
		if err != nil {
			return nil, fmt.Errorf("master: training estimator: %w", err)
		}
		est = trained
	}
	lin := &mobility.Linear{}
	lin.FitPlacement(pl)

	byID := make(map[geo.ServerID]EdgeInfo, len(cfg.Edges))
	for _, e := range cfg.Edges {
		id := pl.ServerAt(e.Location)
		if id == geo.NoServer {
			return nil, fmt.Errorf("master: edge %q has no cell", e.Addr)
		}
		info := e
		info.ID = id
		byID[id] = info
	}

	logger := cfg.Logger
	if logger == nil {
		logger = obs.NewLogger(os.Stderr, slog.LevelInfo, "master")
	}
	m := &Master{
		cfg:       cfg,
		placement: pl,
		edgesByID: byID,
		est:       est,
		log:       logger,
		met:       obs.NewRegistry(),
		tr:        cfg.Tracer,
		policy: &core.MigrationPolicy{
			Predictor:    lin,
			Placement:    pl,
			Radius:       cfg.Radius,
			HistoryLen:   mobility.HistoryLen,
			TTLIntervals: ttlIntervals,
		},
		planners: make(map[dnn.ModelName]*core.Planner, 4),
		clients:  make(map[int]*clientState, 8),
	}
	m.srv = wire.Server{Name: "master", Log: logger, Open: m.openConn, Shutdown: func() {
		if err := m.edges.Close(); err != nil {
			m.log.Warn("closing edge pool", "err", err)
		}
	}}
	m.requests = m.met.Counter("requests_total")
	m.planRequests = m.met.Counter("plan_requests_total")
	m.chainPlans = m.met.Counter("chain_plans_total")
	m.trajectoryPoints = m.met.Counter("trajectory_points_total")
	m.migOrdered = m.met.Counter("migrations_ordered_total")
	m.migSuppressed = m.met.Counter("migrations_suppressed_total")
	m.migErrors = m.met.Counter("migration_errors_total")
	m.planLatency = m.met.Histogram("plan_latency_ns")
	m.numClients = m.met.Gauge("clients")
	m.edges = wire.NewRegisteredPool(m.met, "edge")
	if len(cfg.Peers) > 1 {
		m.smap = geo.NewShardMap(pl, len(cfg.Peers))
	}
	return m, nil
}

// nodeMaster is the master's span track name.
const nodeMaster = "master"

// Metrics exposes the daemon's metrics registry (requests, plans,
// migration orders) for the -debug-addr endpoint.
func (m *Master) Metrics() *obs.Registry { return m.met }

// Tracer exposes the daemon's span recorder (nil when tracing is off).
func (m *Master) Tracer() *tracing.Tracer { return m.tr }

// recordStage closes a stage span with its attributes (tracing.Attrs{}
// for none) on the master's track. When the request carried a span
// context the span joins the client's trace as a child; otherwise it
// starts a trace of its own.
func (m *Master) recordStage(rc tracing.SpanContext, stage tracing.Stage, start time.Duration, a tracing.Attrs) {
	trace, parent := rc.Trace, rc.Span
	if trace == 0 {
		trace, parent = m.tr.NewTrace(), 0
	}
	m.tr.RecordAttrs(trace, parent, stage, nodeMaster, start, m.tr.Now(), a)
}

// Placement exposes the server placement (for clients to find their cell).
func (m *Master) Placement() *geo.Placement { return m.placement }

// EdgeAddr returns the daemon address of an edge server.
func (m *Master) EdgeAddr(id geo.ServerID) (string, bool) {
	e, ok := m.edgesByID[id]
	return e.Addr, ok
}

// ServeContext accepts connections until Close is called or ctx is
// canceled. Every connection handler — including the outbound migration
// orders and stats pings it triggers — inherits ctx, so canceling it
// interrupts in-flight work, closes the listener, and drains.
func (m *Master) ServeContext(ctx context.Context, ln net.Listener) error {
	return m.srv.ServeContext(ctx, ln)
}

// Close stops the daemon. It is idempotent and safe to call concurrently
// with ServeContext's own context-driven shutdown.
func (m *Master) Close() error { return m.srv.Close() }

// openConn starts one connection's state: its ID, and the clients that
// registered over it or were handed to it. A client holds its master
// connection for as long as it lives, so when the connection goes they are
// forgotten — unless a newer registration or handoff has taken them over
// since.
func (m *Master) openConn() (wire.Dispatch, func()) {
	conn := m.lastConn.Add(1)
	owned := make(map[int]struct{}, 1)
	dispatch := func(ctx context.Context, req *wire.Envelope) *wire.Envelope {
		m.requests.Inc()
		resp := m.dispatch(ctx, req, conn)
		ok := resp.Ack != nil && resp.Ack.OK
		switch {
		case ok && req.Type == wire.MsgRegister:
			owned[req.Register.ClientID] = struct{}{}
		case ok && req.Type == wire.MsgShardHandoff:
			owned[req.Handoff.ClientID] = struct{}{}
		}
		return resp
	}
	return dispatch, func() {
		m.mu.Lock()
		for id := range owned {
			if cs, ok := m.clients[id]; ok && cs.conn == conn {
				delete(m.clients, id)
			}
		}
		m.numClients.Set(int64(len(m.clients)))
		m.mu.Unlock()
	}
}

// dispatch answers one request; conn identifies the connection it arrived
// on (registrations and handoffs are owned by their connection).
func (m *Master) dispatch(ctx context.Context, req *wire.Envelope, conn uint64) *wire.Envelope {
	switch req.Type {
	case wire.MsgRegister:
		if req.Register == nil {
			return wire.NewAck(errors.New("master: register without body"))
		}
		start := m.tr.Now()
		err := m.register(req.Register, conn)
		m.recordStage(req.Trace, tracing.StageRegister, start, tracing.Attrs{})
		return wire.NewAck(err)
	case wire.MsgTrajectory:
		if req.Trajectory == nil {
			return wire.NewAck(errors.New("master: trajectory without body"))
		}
		redirect, err := m.trajectory(ctx, req.Trajectory)
		if redirect != nil {
			return redirect
		}
		return wire.NewAck(err)
	case wire.MsgShardHandoff:
		if req.Handoff == nil {
			return wire.NewAck(errors.New("master: shard handoff without body"))
		}
		start := m.tr.Now()
		err := m.adoptClient(req.Handoff, conn)
		m.recordStage(req.Trace, tracing.StageShardHandoff, start, tracing.Attrs{})
		return wire.NewAck(err)
	case wire.MsgPlanRequest:
		if req.PlanReq == nil {
			return wire.NewAck(errors.New("master: plan request without body"))
		}
		start := m.tr.Now()
		resp, a, err := m.plan(ctx, req.PlanReq)
		m.recordStage(req.Trace, tracing.StagePlan, start, a)
		if err != nil {
			return wire.NewAck(err)
		}
		return &wire.Envelope{Type: wire.MsgPlanResponse, PlanResp: resp}
	default:
		return wire.NewAck(fmt.Errorf("master: unexpected message type %d", req.Type))
	}
}

// register records a client as owned by connection conn and builds its
// planner from the model's DNN profile.
func (m *Master) register(r *wire.Register, conn uint64) error {
	m.met.Counter("clients_registered_total").Inc()
	m.log.Info("client registered", "client", r.ClientID, "model", string(r.Model))
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.ensurePlannerLocked(r.Model); err != nil {
		return err
	}
	if cs, ok := m.clients[r.ClientID]; ok && cs.model == r.Model {
		// Idempotent re-registration, here over a newer connection: the
		// entry moves to it with its history and ordered-at table, so
		// prediction resumes without a warm-up gap.
		cs.conn = conn
		return nil
	}
	m.clients[r.ClientID] = &clientState{model: r.Model, conn: conn}
	m.numClients.Set(int64(len(m.clients)))
	return nil
}

// ensurePlannerLocked builds the model's planner from its DNN profile if
// one does not exist yet. Callers hold m.mu.
func (m *Master) ensurePlannerLocked(model dnn.ModelName) error {
	if _, ok := m.planners[model]; ok {
		return nil
	}
	mod, err := dnn.ZooModel(model)
	if err != nil {
		return err
	}
	prof := profile.NewModelProfile(mod, profile.ClientODROID(), profile.ServerTitanXp())
	// Plans price client transfers on the link the client's own
	// estimates use.
	pl, err := core.NewPlanner(prof, m.est, partition.LabWiFi())
	if err != nil {
		return err
	}
	m.planners[model] = pl
	return nil
}

// trajectory updates a client's history and triggers proactive migration.
// In shard-owner mode, a report whose latest point lies outside this
// master's region is answered with the returned non-nil redirect envelope
// instead of an Ack. Points that are not finite are refused.
//
// Only the predicted targets that are due are ordered: new to the
// prediction, never completely pushed, or pushed refreshAfter reports ago.
// The client's owner orders every target itself, in its own region or
// another: each master knows every edge and pings it live. Orders run
// synchronously, so the report's ack still means "the layers are there".
func (m *Master) trajectory(ctx context.Context, t *wire.Trajectory) (*wire.Envelope, error) {
	if !geo.Finite(t.Points) {
		return nil, fmt.Errorf("master: client %d reported a point that is not finite", t.ClientID)
	}
	m.trajectoryPoints.Add(int64(len(t.Points)))
	m.mu.Lock()
	cs, ok := m.clients[t.ClientID]
	if !ok {
		m.mu.Unlock()
		return nil, fmt.Errorf("master: unknown client %d", t.ClientID)
	}
	cs.history = append(cs.history, t.Points...)
	if len(cs.history) > mobility.HistoryLen {
		cs.history = cs.history[len(cs.history)-mobility.HistoryLen:]
	}
	recent := make([]geo.Point, len(cs.history))
	copy(recent, cs.history)
	cs.reports++
	report := cs.reports
	model := cs.model
	m.mu.Unlock()

	if m.smap != nil && len(recent) > 0 {
		if to := m.smap.ShardAt(recent[len(recent)-1]); to != m.cfg.Shard {
			return m.redirect(t.ClientID, model, to, recent), nil
		}
	}

	if len(recent) < 2 {
		return nil, nil
	}
	cur := m.placement.ServerAt(recent[len(recent)-1])
	if cur == geo.NoServer {
		return nil, nil
	}
	curAddr, ok := m.EdgeAddr(cur)
	if !ok {
		return nil, nil
	}
	var buf [8]geo.ServerID
	targets, ok := m.policy.AppendTargets(buf[:0], recent, cur)
	if !ok {
		return nil, nil
	}
	due := m.dueTargets(cs, report, targets)
	done := due[:0]
	for _, tid := range due {
		complete, err := m.orderMigration(ctx, model, t.ClientID, cur, curAddr, tid)
		if err != nil {
			m.migErrors.Inc()
			m.log.Warn("migration order failed", "client", t.ClientID, "target", int(tid), "err", err)
			continue
		}
		m.migOrdered.Inc()
		m.log.Debug("migration ordered", "client", t.ClientID, "target", int(tid))
		if complete {
			done = append(done, tid)
		}
	}
	if m.log.Enabled(ctx, slog.LevelDebug) {
		m.log.Debug("trajectory report", "client", t.ClientID, "report", report,
			"targets", len(targets), "due", len(due), "complete", len(done))
	}
	if len(done) > 0 {
		m.markOrdered(cs, report, cur, done)
	}
	return nil, nil
}

// dueTargets filters targets, in place, down to those to order on this
// report: every target whose last complete push is less than refreshAfter
// reports old is dropped and counted as suppressed. Marks that old say
// nothing any more and are forgotten, so the table never outgrows the
// targets of the last few reports.
func (m *Master) dueTargets(cs *clientState, report int, targets []geo.ServerID) []geo.ServerID {
	m.mu.Lock()
	defer m.mu.Unlock()
	for id, at := range cs.ordered {
		if report-at >= refreshAfter {
			delete(cs.ordered, id)
		}
	}
	due := targets[:0]
	for _, tid := range targets {
		if _, ok := cs.ordered[tid]; !ok {
			due = append(due, tid)
		}
	}
	m.migSuppressed.Add(int64(len(targets) - len(due)))
	return due
}

// markOrdered records that each of targets acknowledged a complete push
// from cur at the given report. The source of a complete push holds the
// plan too, so cur is marked with them: should the client cross over, the
// cell it just left needs no push back.
func (m *Master) markOrdered(cs *clientState, report int, cur geo.ServerID, targets []geo.ServerID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if cs.ordered == nil {
		cs.ordered = make(map[geo.ServerID]int, len(targets)+1)
	}
	for _, id := range targets {
		cs.ordered[id] = report
	}
	cs.ordered[cur] = report
}

// redirect answers a report whose point lies in shard to's region: a
// MsgShardHandoff naming to's master and carrying the client's model and
// history, which the client presents there as its registration. It roots
// the handoff's trace, and the context rides the envelope, so the adopting
// master's span links under this one. Nothing changes here: the client
// stays registered until its connection closes.
func (m *Master) redirect(client int, model dnn.ModelName, to int, history []geo.Point) *wire.Envelope {
	ht, span, now := m.tr.NewTrace(), m.tr.NewSpanID(), m.tr.Now()
	m.tr.RecordWith(ht, span, 0, tracing.StageShardHandoff, nodeMaster, now, now)
	m.met.Counter("shard_handoffs_total").Inc()
	addr := m.cfg.Peers[to]
	m.log.Info("client redirected", "client", client, "to", to, "addr", addr)
	return &wire.Envelope{
		Type: wire.MsgShardHandoff,
		Handoff: &wire.ShardHandoff{
			ClientID:  client,
			Model:     model,
			FromShard: m.cfg.Shard,
			ToShard:   to,
			Addr:      addr,
			History:   history,
		},
		Trace: tracing.SpanContext{Trace: ht, Span: span},
	}
}

// adoptClient installs a client that presents another shard's redirect,
// owned by connection conn like a registration: the model's planner is
// built if this is the region's first client of that model, and the entry
// starts from the sender's trajectory history so mobility prediction
// continues without a warm-up gap.
func (m *Master) adoptClient(h *wire.ShardHandoff, conn uint64) error {
	if m.smap == nil {
		return errors.New("master: shard handoff sent to an unsharded master")
	}
	if h.ToShard != m.cfg.Shard {
		return fmt.Errorf("master: handoff addressed to shard %d, this is shard %d", h.ToShard, m.cfg.Shard)
	}
	if !geo.Finite(h.History) {
		return fmt.Errorf("master: handoff of client %d carries a point that is not finite", h.ClientID)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.ensurePlannerLocked(h.Model); err != nil {
		return err
	}
	hist := make([]geo.Point, len(h.History))
	copy(hist, h.History)
	if len(hist) > mobility.HistoryLen {
		hist = hist[len(hist)-mobility.HistoryLen:]
	}
	m.clients[h.ClientID] = &clientState{model: h.Model, history: hist, conn: conn}
	m.numClients.Set(int64(len(m.clients)))
	m.met.Counter("shard_adoptions_total").Inc()
	m.log.Info("client adopted", "client", h.ClientID, "from", h.FromShard)
	return nil
}

// orderMigration computes a future plan for the target from its live GPU
// statistics, asks the policy what the target should hold of it (Want),
// and tells the client's current edge server cur (at curAddr) to push
// those layers there. complete reports that the source acknowledged every
// ordered layer, so the target now holds the set.
func (m *Master) orderMigration(ctx context.Context, model dnn.ModelName, client int, cur geo.ServerID, curAddr string, target geo.ServerID) (complete bool, err error) {
	tAddr, ok := m.EdgeAddr(target)
	if !ok {
		return false, fmt.Errorf("master: no address for server %d", target)
	}
	m.mu.Lock()
	planner := m.planners[model]
	m.mu.Unlock()
	st, err := m.pingStats(ctx, tAddr)
	if err != nil {
		return false, err
	}
	entry, err := planner.PlanFor(*st)
	if err != nil {
		return false, err
	}
	want, _ := m.policy.Want(entry, cur, target)
	layers := want.AppendIDs(make([]dnn.LayerID, 0, want.Count()))
	ctx, cancel := context.WithTimeout(ctx, wire.DefaultSendTimeout)
	defer cancel()
	// One trace per migration order, rooted at the master; the context
	// rides the request so the edge's push span links under it.
	mt := m.tr.NewTrace()
	span := m.tr.NewSpanID()
	start := m.tr.Now()
	// Orders target the same few edges every interval; the pool rides a
	// warm connection instead of dialing per order.
	resp, err := m.edges.RoundTrip(ctx, curAddr, &wire.Envelope{
		Type: wire.MsgMigrateRequest,
		Migrate: &wire.Migrate{
			ClientID: client,
			Layers:   layers,
			PeerAddr: tAddr,
		},
		Trace: tracing.SpanContext{Trace: mt, Span: span},
	})
	if err != nil {
		return false, fmt.Errorf("master: edge %s: %w: %w", curAddr, core.ErrServerDown, err)
	}
	if resp.Ack == nil || !resp.Ack.OK {
		return false, fmt.Errorf("master: edge %s rejected migration order", curAddr)
	}
	if m.tr != nil {
		m.tr.RecordWithAttrs(mt, span, 0, tracing.StageMigrate, nodeMaster, start, m.tr.Now(),
			tracing.NewAttrs(client, tracing.NoID, int(target), len(layers), want.WeightBytes(planner.Profile().Model)))
	}
	return len(layers) > 0 && resp.Ack.Seq == int64(len(layers)), nil
}

// pingStats fetches the live GPU statistics of an edge daemon. A daemon
// that cannot be reached surfaces as an error wrapping core.ErrServerDown.
func (m *Master) pingStats(ctx context.Context, addr string) (*gpusim.Stats, error) {
	ctx, cancel := context.WithTimeout(ctx, wire.DefaultDialTimeout)
	defer cancel()
	// Stats polls hit every edge repeatedly; a pooled conn turns each poll
	// into one round trip instead of dial+round trip. RoundTrip returns a
	// deep copy, so the sample stays valid after the conn is reused.
	resp, err := m.edges.RoundTrip(ctx, addr, &wire.Envelope{Type: wire.MsgStatsRequest})
	if err != nil {
		return nil, fmt.Errorf("master: edge %s: %w: %w", addr, core.ErrServerDown, err)
	}
	if resp.Type != wire.MsgStatsResponse || resp.Stats == nil || resp.Stats.Sample == nil {
		return nil, fmt.Errorf("master: bad stats response from %s", addr)
	}
	return resp.Stats.Sample, nil
}

// plan computes a current partitioning plan for a client against a server.
// a is the plan span's decision context: the client and requested edge,
// and once a plan exists its server-side layers and bytes, its hop count
// and its estimated latency.
func (m *Master) plan(ctx context.Context, r *wire.PlanReq) (resp *wire.PlanResp, a tracing.Attrs, err error) {
	start := time.Now()
	defer func() { m.planLatency.ObserveDuration(time.Since(start)) }()
	m.planRequests.Inc()
	a = tracing.NewAttrs(r.ClientID, int(r.Server), tracing.NoID, 0, 0)
	m.mu.Lock()
	cs, ok := m.clients[r.ClientID]
	if !ok {
		m.mu.Unlock()
		return nil, a, fmt.Errorf("master: unknown client %d", r.ClientID)
	}
	planner := m.planners[cs.model]
	m.mu.Unlock()

	addr, ok := m.EdgeAddr(r.Server)
	if !ok {
		return nil, a, fmt.Errorf("master: unknown server %d", r.Server)
	}
	st, err := m.pingStats(ctx, addr)
	if err != nil {
		return nil, a, err
	}
	entry, err := planner.PlanFor(*st)
	if err != nil {
		return nil, a, err
	}
	units := make([][]dnn.LayerID, 0, len(entry.Schedule))
	for _, u := range entry.Schedule {
		ids := make([]dnn.LayerID, len(u.Layers))
		copy(ids, u.Layers)
		units = append(units, ids)
	}
	resp = &wire.PlanResp{
		ServerLayers: entry.Plan.ServerLayers(),
		UploadOrder:  units,
		Slowdown:     entry.Plan.Slowdown,
		EstLatencyNs: int64(entry.Plan.EstLatency),
	}
	if m.cfg.MaxHops > 1 {
		// Chain planning is best-effort: any failure (unreachable edges,
		// partitioner error) degrades to the single-split fields above,
		// which double as the client's failover plan either way.
		chain, err := m.planChain(ctx, r.Server, addr, *st, planner)
		switch {
		case err != nil:
			m.met.Counter("chain_plan_errors_total").Inc()
			m.log.Warn("chain planning failed; serving single split", "client", r.ClientID, "err", err)
		case chain.NumHops() >= 2:
			resp.Chain = make([]wire.PlanHop, 0, chain.NumHops())
			for i := range chain.Hops {
				hop := &chain.Hops[i]
				resp.Chain = append(resp.Chain, wire.PlanHop{
					Server:       geo.ServerID(hop.Server.ID),
					Addr:         hop.Server.Addr,
					ServerBaseNs: int64(hop.BaseExec),
					Intensity:    hop.Intensity,
					InBytes:      hop.InBytes,
				})
			}
			resp.ChainDownBytes = chain.DownBytes
			resp.ChainClientPreNs = int64(chain.ClientPre)
			resp.ChainClientPostNs = int64(chain.ClientPost)
			// The estimate describes the plan served; the client prices its
			// single-split failover itself.
			resp.EstLatencyNs = int64(chain.EstLatency)
			m.chainPlans.Inc()
		}
	}
	hops := len(resp.Chain)
	if hops == 0 && len(resp.ServerLayers) > 0 {
		hops = 1
	}
	a = tracing.NewAttrs(r.ClientID, int(r.Server), tracing.NoID, len(resp.ServerLayers), entry.Plan.ServerBytes()).
		WithEstimate(hops, time.Duration(resp.EstLatencyNs))
	return resp, a, nil
}

// planChain assembles the candidate chain — the requested server first
// (its stats sample st is the one the single-split plan was made from),
// then the other edges within Radius of it, nearest first and ties by ID —
// with per-candidate slowdowns from live GPU stats fetched concurrently,
// and asks the planner's cache for the multi-hop plan. Unreachable edges
// are skipped, so a broken chain degrades to whatever subsequence still
// answers.
func (m *Master) planChain(ctx context.Context, first geo.ServerID, addr string, st gpusim.Stats, planner *core.Planner) (*partition.ChainPlan, error) {
	var buf [8]geo.ServerID
	near := m.placement.Within(buf[:0], m.placement.Center(first), m.cfg.Radius)
	cands := make([]core.ChainCandidate, 1, len(near)+1)
	cands[0] = core.ChainCandidate{ID: int(first), Addr: addr, Slowdown: planner.Slowdown(st)}
	for _, id := range near {
		if id != first {
			cands = append(cands, core.ChainCandidate{ID: int(id), Addr: m.edgesByID[id].Addr})
		}
	}
	var wg sync.WaitGroup
	for i := range cands[1:] {
		c := &cands[1+i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := m.pingStats(ctx, c.Addr)
			if err != nil {
				m.met.Counter("chain_candidate_skips_total").Inc()
				m.log.Warn("chain candidate unreachable", "server", c.ID, "err", err)
				return
			}
			c.Slowdown = planner.Slowdown(*st)
		}()
	}
	wg.Wait()
	reachable := cands[:1]
	for _, c := range cands[1:] {
		if c.Slowdown != 0 { // estimates are >= 1; 0 is a skipped candidate
			reachable = append(reachable, c)
		}
	}
	return planner.PlanChain(reachable, m.cfg.MaxHops, m.cfg.Objective)
}

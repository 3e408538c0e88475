package edgesim

import (
	"context"
	"fmt"
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
	"perdnn/internal/simnet"
	"perdnn/internal/trace"
)

// Mode selects the system variant under test in the city simulation.
type Mode int

// Simulation modes (Fig 9's three bars).
const (
	// ModeIONN is the baseline: no proactive migration, clients upload
	// from scratch at every server change (hit ratio 0%).
	ModeIONN Mode = iota + 1
	// ModePerDNN predicts movement and proactively migrates layers.
	ModePerDNN
	// ModeOptimal assumes every layer is always available everywhere
	// (hit ratio 100%).
	ModeOptimal
	// ModeRouting is the alternative of Section III.A the paper sets
	// aside: after the first upload the client keeps its session with the
	// original edge server and routes query tensors through the backhaul
	// from whatever AP it currently sits under. No cold starts after the
	// first, but every query pays backhaul latency and traffic.
	ModeRouting
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeIONN:
		return "IONN"
	case ModePerDNN:
		return "PerDNN"
	case ModeOptimal:
		return "Optimal"
	case ModeRouting:
		return "Routing"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Env holds the per-dataset state shared across simulation runs: the
// resampled trajectories, the edge-server placement, the trained mobility
// predictor, and the trained execution-time estimator. Preparing it is
// expensive; reuse it across models, modes, and radii.
//
// An Env is immutable after PrepareEnv returns: RunCityContext and
// RunSweepContext only read it, every run allocates its own servers,
// clients, and planner, and the predictor and estimator are read-only at
// prediction time. One Env may therefore back any number of concurrent
// runs. Code that wants a variant (e.g. a different Predictor) must copy
// the struct, never modify it.
type Env struct {
	Dataset  *trace.Dataset
	Interval time.Duration
	// HistoryLen is the trajectory length n the Predictor was fitted with.
	HistoryLen int
	Placement  *geo.Placement
	Predictor  mobility.Predictor
	// Estimator is trained on gpusim.DefaultParams(), the contention
	// constants every simulated server's GPU runs with.
	Estimator *estimator.ServerEstimator
}

// EnvConfig parameterizes PrepareEnv.
type EnvConfig struct {
	// Interval is the prediction/movement interval t (20 s in the paper).
	Interval time.Duration
	// CellRadius is the hex cell radius (geo.CellRadius, as the live
	// master uses).
	CellRadius float64
	// HistoryLen is the trajectory length n (mobility.HistoryLen, as the
	// live master uses).
	HistoryLen int
	// Seed drives predictor and estimator training.
	Seed int64
	// MaxTrainWindows caps SVR training cost (0 = no cap).
	MaxTrainWindows int
}

// DefaultEnvConfig matches the paper's simulation settings.
func DefaultEnvConfig() EnvConfig {
	return EnvConfig{
		Interval:        20 * time.Second,
		CellRadius:      geo.CellRadius,
		HistoryLen:      mobility.HistoryLen,
		Seed:            1,
		MaxTrainWindows: 20000,
	}
}

// PrepareEnv resamples the dataset, places servers on visited cells, and
// trains the mobility predictor (linear SVR, the paper's choice) and the
// GPU execution-time estimator. The two training passes are independent and
// run concurrently; both are seeded, so the prepared Env is deterministic.
func PrepareEnv(base *trace.Dataset, cfg EnvConfig) (*Env, error) {
	ds, err := base.Resample(cfg.Interval)
	if err != nil {
		return nil, fmt.Errorf("edgesim: preparing env: %w", err)
	}
	pl := geo.NewPlacement(geo.NewHexGrid(cfg.CellRadius), ds.AllPoints())

	var (
		est    *estimator.ServerEstimator
		estErr error
		done   = make(chan struct{})
	)
	go func() {
		defer close(done)
		est, estErr = estimator.TrainServerEstimator(profile.ServerTitanXp(), gpusim.DefaultParams(), cfg.Seed)
	}()
	svr := &mobility.SVR{Seed: cfg.Seed}
	svrErr := svr.Fit(capTrain(ds.Train, cfg.MaxTrainWindows), pl, cfg.HistoryLen)
	<-done
	if svrErr != nil {
		return nil, fmt.Errorf("edgesim: training predictor: %w", svrErr)
	}
	if estErr != nil {
		return nil, fmt.Errorf("edgesim: training estimator: %w", estErr)
	}
	return &Env{
		Dataset:    ds,
		Interval:   cfg.Interval,
		HistoryLen: cfg.HistoryLen,
		Placement:  pl,
		Predictor:  svr,
		Estimator:  est,
	}, nil
}

// capTrain truncates trajectories so the total sample count stays under cap.
func capTrain(train []trace.Trajectory, cap int) []trace.Trajectory {
	if cap <= 0 {
		return train
	}
	total := 0
	for _, tr := range train {
		total += tr.Len()
	}
	if total <= cap {
		return train
	}
	frac := float64(cap) / float64(total)
	out := make([]trace.Trajectory, 0, len(train))
	for _, tr := range train {
		keep := int(float64(tr.Len()) * frac)
		if keep < 8 {
			continue
		}
		out = append(out, trace.Trajectory{User: tr.User, Interval: tr.Interval, Points: tr.Points[:keep]})
	}
	if len(out) == 0 {
		return train
	}
	return out
}

// CityConfig parameterizes one simulation run.
type CityConfig struct {
	Model dnn.ModelName
	Mode  Mode
	// Radius is the proactive migration radius r in meters (50 or 100).
	Radius float64
	// TTLIntervals is the layer cache lifetime in prediction intervals (5).
	TTLIntervals int
	// QueryGap is the pause between queries (0.5 s).
	QueryGap time.Duration
	// Seed drives the per-server GPU randomness.
	Seed int64
	// MaxSteps truncates playback (0 = full trajectories).
	MaxSteps int
	// FractionCapBytes caps migration bytes per crowded server (Fig 10).
	FractionCapBytes map[geo.ServerID]int64
	// SharedModelCache treats every client's model as identical and
	// shareable: one client's uploaded layers serve all. The paper assumes
	// the opposite ("the model could be personalized and is likely to be
	// different, thus by default not sharable"); this toggle quantifies
	// what that assumption costs.
	SharedModelCache bool
	// Shards splits the run into that many region shards, each advancing
	// its own event queue on its own goroutine and synchronizing at
	// movement ticks (see DESIGN.md §16). 0 or 1 runs unsharded; counts
	// above the server count are clamped. ModeRouting requires 1 shard:
	// a routing client's queries execute at a home server that may sit in
	// another shard's region. The journals and the result are
	// byte-identical at every shard count.
	Shards int
	// RecordEvents enables the run's event journal: the decision instants
	// — handoffs, cold starts, partial hits, run-local plan-cache misses,
	// migration orders/completions, fractional-migration truncations, and
	// (with a FaultModel) server outages, failovers, and local fallbacks —
	// land in CityResult.Events in canonical order (see decisionEvents).
	// Each is one span with an attribute block; with RecordEvents alone the
	// run records those instants and no query-stage spans. The journal is a
	// deterministic function of the configuration, so sweeps that
	// concatenate per-run journals in run order serialize identically at
	// every worker count, and sharded runs serialize identically at every
	// shard count.
	RecordEvents bool
	// RecordSpans enables the run's distributed-tracing journal: every
	// query becomes a trace whose stage spans (client.compute,
	// transfer.up, exec.compute, transfer.down) tile its end-to-end
	// latency exactly, every handoff a plan trace parenting its
	// upload.unit spans, and every decision an instant span — all stamped
	// from the virtual clock and recorded into CityResult.Spans in
	// canonical order (traces ordered by content, IDs their positions; see
	// canonicalSpans). Like the event journal, the span journal is a
	// deterministic function of the configuration, byte-identical at every
	// RunSweepContext worker count and every shard count.
	RecordSpans bool
	// Faults injects server outages, master blackouts, and transient link
	// spikes into the run (nil = fault-free). The realized fault schedule
	// is seeded, so faulty runs stay deterministic at every
	// RunSweepContext worker count.
	Faults *FaultModel
}

// DefaultCityConfig returns the paper's settings for a model and mode.
func DefaultCityConfig(model dnn.ModelName, mode Mode, radius float64) CityConfig {
	return CityConfig{
		Model:        model,
		Mode:         mode,
		Radius:       radius,
		TTLIntervals: 5,
		QueryGap:     queryGap,
		Seed:         1,
	}
}

// CityResult aggregates one run's metrics.
type CityResult struct {
	Model  dnn.ModelName
	Mode   Mode
	Radius float64

	// TotalQueries counts every completed query; WindowQueries counts only
	// queries completed within one interval of connecting to a new server
	// — the paper's Fig 9 metric ("we only measured the number of queries
	// executed for a time interval right after a client connects").
	TotalQueries  int
	WindowQueries int

	// Connections counts server changes; Hits/Misses/Partials classify
	// them by cached layers (hit: all server-side layers present; miss:
	// none). ColdStarts = Misses.
	Connections int
	Hits        int
	Misses      int
	Partials    int

	// Failovers counts re-partitions to a live neighbor after the
	// client's server went down; LocalFallbacks counts degradations to
	// client-local execution (no live server in reach, or the master was
	// blacked out during a handoff). Both stay zero without a FaultModel.
	Failovers      int
	LocalFallbacks int

	// Traffic is the backhaul ledger (proactive migration only).
	Traffic *simnet.TrafficAccount

	// SumLatency accumulates query latencies for MeanLatency.
	SumLatency time.Duration
	// Latency is the query latency distribution.
	Latency *obs.Histogram

	// Metrics is the run's ledger frozen for JSON export: the counters
	// above plus migration, plan-cache and outage counts, and the backhaul
	// ledger's gauges.
	Metrics obs.Snapshot
	// Events is the run's event journal (nil unless RecordEvents was set):
	// its decision instants, projected out of the run's records and
	// written by WriteEvents.
	Events []tracing.Span
	// Spans is the run's tracing journal (nil unless RecordSpans was set).
	Spans []tracing.Span
}

// HitRatio returns hits / (hits + misses), the paper's definition.
func (r *CityResult) HitRatio() float64 {
	if r.Hits+r.Misses == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Hits+r.Misses)
}

// MeanLatency returns the average query latency.
func (r *CityResult) MeanLatency() time.Duration {
	if r.TotalQueries == 0 {
		return 0
	}
	return r.SumLatency / time.Duration(r.TotalQueries)
}

// P50 returns the median query latency (0 with no samples).
func (r *CityResult) P50() time.Duration {
	if r.Latency == nil {
		return 0
	}
	return time.Duration(r.Latency.P50())
}

// P95 returns the 95th-percentile query latency (0 with no samples).
func (r *CityResult) P95() time.Duration {
	if r.Latency == nil {
		return 0
	}
	return time.Duration(r.Latency.P95())
}

// P99 returns the 99th-percentile query latency (0 with no samples).
func (r *CityResult) P99() time.Duration {
	if r.Latency == nil {
		return 0
	}
	return time.Duration(r.Latency.P99())
}

// simServer is one edge server: a GPU and a layer cache. A run keeps its
// servers in one array, and a server allocates only once it is used.
type simServer struct {
	gpu   gpusim.GPU
	store core.LayerCache
}

// simClient is one mobile user's simulation state.
type simClient struct {
	id int
	tr trace.Trajectory

	cur         geo.ServerID
	home        geo.ServerID // routing mode: the server holding our layers
	connectedAt time.Duration
	gen         int // connection generation; stale events check it
	// sh is the shard owning the client's current connection generation:
	// every event of the generation runs on its engine. Reassigned only
	// at tick time (with a gen bump), so in-flight events of an old
	// generation keep running on — and touching only — their own shard.
	sh *simShard

	entry  *core.PlanEntry
	curSet dnn.LayerSet // layers present for us at the current server
	// pending is the upload queue: the missing layers in schedule-unit
	// chunks (sub-slices of pendingIDs), nextUnit the first not yet on the
	// air. Both arrays are reused across handoffs: an in-flight upload of an
	// old generation checks the generation before it reads its chunk.
	pending    [][]dnn.LayerID
	pendingIDs []dnn.LayerID
	nextUnit   int
	split      partition.Split // decomposition of the current assignment
	local      bool            // degraded to client-local execution
	chain      *queryChain     // the live generation's query chain
	upload     *uploadChain    // the latest generation's upload chain
	// cold is the entry's cold-start split table when this generation
	// started with nothing on the server (see world.coldSplits): after k
	// uploaded units the split is cold[k]. Nil otherwise.
	cold []partition.Split

	// upTrace/upPlan are the current handoff's trace and its plan span:
	// the upload.unit spans of the session parent under them (zero when
	// spans are off).
	upTrace tracing.TraceID
	upPlan  tracing.SpanID
}

// world wires everything together for one run.
type world struct {
	env     *Env
	cfg     CityConfig
	end     time.Duration // the final drain's bound: no event after it runs
	model   *dnn.Model
	prof    *profile.ModelProfile
	planner *core.Planner
	policy  *core.MigrationPolicy
	servers []simServer
	clients []*simClient
	res     *CityResult

	// smap assigns every server to a region shard; shards holds the
	// per-shard engines and window-phase state. Unsharded runs are the
	// one-shard special case of the same machinery.
	smap   *geo.ShardMap
	shards []*simShard

	// The serial tick phase's ledger: what it counts that CityResult has
	// no field for. Only the tick writes it; the window phase counts on
	// its shard.
	planMisses, serverDowns int
	migOrdered, truncations int
	truncatedLayers         int
	migBytes                int64

	// tracer is the one recorder every shard shares (nil unless
	// cfg.RecordSpans): trace IDs must be unique across the run so that
	// canonicalSpans can group a trace whose spans several shards record.
	// decisions records the decision instants: the same tracer, or with
	// only cfg.RecordEvents one of its own, nil when the run records
	// nothing.
	tracer, decisions *tracing.Tracer
	// srvNames and cliNames intern the span track names up front so the
	// query loop records spans without formatting (or allocating).
	srvNames []string
	cliNames []string
	faults   *faultState // nil unless cfg.Faults is set
	srvDown  []bool      // per-server outage state, updated at tick time
	// seenPlans holds every plan entry this run has used, with its
	// cold-start split table (nil until a client starts cold on it).
	// Presence is run-local plan novelty for the plan_cache_miss event:
	// the process-wide cache's hit state depends on concurrent runs, so
	// the journal records "first use within this run" instead, which is
	// deterministic at every worker count. The tick phase writes the map;
	// the window phase reads tables only through simClient.cold.
	seenPlans map[*core.PlanEntry][]partition.Split
	// send is migrate's scratch set (tick phase only): the layers a target
	// lacks.
	send dnn.LayerSet
}

// shardOf returns the shard owning server id's region.
func (w *world) shardOf(id geo.ServerID) *simShard {
	return w.shards[w.smap.ShardOf(id)]
}

// splitFor decomposes the client's current assignment — the layers in its
// curSet on the server, everything else on the client — through the owning
// shard's reused location scratch, so the per-upload re-decompositions in
// the query loop allocate nothing.
func (w *world) splitFor(c *simClient) partition.Split {
	sh := c.sh
	n := w.model.NumLayers()
	if cap(sh.locBuf) < n {
		sh.locBuf = make([]partition.Location, n)
	}
	loc := sh.locBuf[:n]
	for i := 0; i < n; i++ {
		if c.curSet.Has(dnn.LayerID(i)) {
			loc[i] = partition.AtServer
		} else {
			loc[i] = partition.AtClient
		}
	}
	return partition.Decompose(w.prof, loc)
}

// coldSplits returns the split table of the client's plan entry for a
// connection that starts with nothing on the server: entry k is splitFor
// after the first k units of c.pending are uploaded. The upload queue of a
// cold start is every non-empty schedule unit, so the table is a pure
// function of the entry, built by the first cold start that uses it.
// Tick phase only, with c.curSet empty; it leaves c.curSet empty.
func (w *world) coldSplits(c *simClient) []partition.Split {
	if cold := w.seenPlans[c.entry]; cold != nil {
		return cold
	}
	cold := make([]partition.Split, len(c.pending)+1)
	cold[0] = w.splitFor(c)
	for k, chunk := range c.pending {
		c.curSet.AddAll(chunk)
		cold[k+1] = w.splitFor(c)
	}
	c.curSet.Reset(w.model.NumLayers())
	w.seenPlans[c.entry] = cold
	return cold
}

// nodeMaster is the span track for control-plane work (planning), which
// has no embodied server in the simulation.
const nodeMaster = "master"

// serverNode returns the interned span track name for an edge server
// ("" when spans are off or the ID is NoServer).
func (w *world) serverNode(id geo.ServerID) string {
	if w.tracer == nil || id == geo.NoServer {
		return ""
	}
	return w.srvNames[id]
}

// clientNode returns the interned span track name for a client ("" when
// spans are off).
func (w *world) clientNode(id int) string {
	if w.tracer == nil {
		return ""
	}
	return w.cliNames[id]
}

// attrs builds a decision's attribute block (geo.NoServer is tracing.NoID).
func attrs(client int, server, target geo.ServerID, layers int, bytes int64) tracing.Attrs {
	return tracing.NewAttrs(client, int(server), int(target), layers, bytes)
}

// recordDecision records one decision instant at now on a trace of its
// own: the one record of the fact, which the event journal projects and
// the span journal carries. A no-op when the run records nothing.
func (w *world) recordDecision(now time.Duration, stage tracing.Stage, node string, a tracing.Attrs) {
	w.decisions.RecordAttrs(w.decisions.NewTrace(), 0, stage, node, now, now, a)
}

// trackPlan notes the first time this run uses a plan entry, feeding the
// plan_cache_miss count and decision. Tick phase only: seenPlans is not
// synchronized.
func (w *world) trackPlan(now time.Duration, entry *core.PlanEntry, client int, sid geo.ServerID) {
	if _, ok := w.seenPlans[entry]; ok {
		return
	}
	w.seenPlans[entry] = nil
	w.planMisses++
	w.recordDecision(now, tracing.StagePlanCacheMiss, nodeMaster, attrs(client, sid, geo.NoServer,
		entry.Layers.Count(), entry.Plan.ServerBytes()))
}

// RunCity is RunCityContext without a context. It is kept, as a one-line
// wrapper, only because the benchmark module (bench/city.go) calls it.
func RunCity(env *Env, cfg CityConfig) (*CityResult, error) {
	return RunCityContext(context.Background(), env, cfg)
}

// RunCitySharded is RunCityContext with cfg.Shards set to shards. It is
// kept, as a one-line wrapper, only because the benchmark module
// (bench/city.go) calls it.
func RunCitySharded(ctx context.Context, env *Env, cfg CityConfig, shards int) (*CityResult, error) {
	cfg.Shards = shards
	return RunCityContext(ctx, env, cfg)
}

// RunCityContext executes one large-scale simulation run under a context:
// cancellation (or deadline expiry) is observed at the next barrier, where
// runShards returns the context error; the shard engines and whatever they
// still have queued are dropped with the world.
func RunCityContext(ctx context.Context, env *Env, cfg CityConfig) (*CityResult, error) {
	w, steps, err := newWorld(env, cfg)
	if err != nil {
		return nil, err
	}
	// Drive the barrier-synchronized tick/window loop (see runShards):
	// serial movement ticks alternating with parallel per-shard windows.
	if err := w.runShards(ctx, steps); err != nil {
		return nil, fmt.Errorf("edgesim: run canceled: %w", err)
	}

	w.freeze()
	return w.res, nil
}

// freeze builds the result after the final barrier: it merges the shards'
// window-phase partials into the tick phase's counts, snapshots the whole
// ledger as metrics, and canonically orders the journals. Every merge is
// an order-free sum, or a multiset that canonicalization orders, so the
// result is a deterministic function of the configuration at every shard
// count.
func (w *world) freeze() {
	r := w.res
	migCompleted := 0
	for _, sh := range w.shards {
		r.TotalQueries += sh.totalQueries
		r.WindowQueries += sh.windowQueries
		r.SumLatency += sh.sumLatency
		r.Latency.Merge(sh.latency)
		migCompleted += sh.migCompleted
	}
	reg := obs.NewRegistry()
	r.Traffic.RecordMetrics(reg)
	r.Metrics = reg.Snapshot()
	r.Metrics.Counters = map[string]int64{
		"queries_total":                    int64(r.TotalQueries),
		"queries_window_total":             int64(r.WindowQueries),
		"connections_total":                int64(r.Connections),
		"cache_hits_total":                 int64(r.Hits),
		"cache_misses_total":               int64(r.Misses),
		"cache_partials_total":             int64(r.Partials),
		"migrations_ordered_total":         int64(w.migOrdered),
		"migrations_completed_total":       int64(migCompleted),
		"migration_bytes_total":            w.migBytes,
		"migrations_truncated_total":       int64(w.truncations),
		"migration_truncated_layers_total": int64(w.truncatedLayers),
		"plan_cache_local_misses_total":    int64(w.planMisses),
		"server_downs_total":               int64(w.serverDowns),
		"failovers_total":                  int64(r.Failovers),
		"local_fallbacks_total":            int64(r.LocalFallbacks),
	}
	recs := w.decisions.Spans()
	if w.cfg.RecordEvents {
		r.Events = decisionEvents(recs)
	}
	if w.cfg.RecordSpans {
		r.Spans = canonicalSpans(recs) // rewrites recs: the events are copied out first
	}
}

// newWorld validates the configuration and builds one run's world, every
// client detached at virtual time zero; steps is the playback length.
func newWorld(env *Env, cfg CityConfig) (w *world, steps int, err error) {
	if env == nil {
		return nil, 0, fmt.Errorf("edgesim: nil env")
	}
	if cfg.Mode < ModeIONN || cfg.Mode > ModeRouting {
		return nil, 0, fmt.Errorf("edgesim: invalid mode %d", int(cfg.Mode))
	}
	if cfg.TTLIntervals <= 0 || cfg.QueryGap <= 0 {
		return nil, 0, fmt.Errorf("edgesim: bad config: ttl=%d gap=%v", cfg.TTLIntervals, cfg.QueryGap)
	}
	if cfg.Shards < 0 {
		return nil, 0, fmt.Errorf("edgesim: negative shard count %d", cfg.Shards)
	}
	if cfg.Shards > 1 && cfg.Mode == ModeRouting {
		return nil, 0, fmt.Errorf("edgesim: ModeRouting requires a single shard: a routing client's home server may sit in another shard's region")
	}
	if err := cfg.Faults.Validate(); err != nil {
		return nil, 0, err
	}
	m, err := dnn.ZooModel(cfg.Model)
	if err != nil {
		return nil, 0, err
	}
	client, server := profile.ClientODROID(), profile.ServerTitanXp()
	prof := profile.NewModelProfile(m, client, server)
	planner, err := core.NewPlanner(prof, env.Estimator, partition.LabWiFi())
	if err != nil {
		return nil, 0, err
	}
	// The profile is a pure function of (model, client device, server
	// device), so plans keyed by those names plus the link are identical
	// across runs: share them process-wide instead of recomputing per run.
	if err := planner.ShareCache(core.SharedPlans(),
		fmt.Sprintf("%s|%s|%s", m.Name, client.Name, server.Name)); err != nil {
		return nil, 0, err
	}
	traffic, err := simnet.NewTrafficAccount(env.Interval)
	if err != nil {
		return nil, 0, err
	}

	w = &world{
		env:       env,
		cfg:       cfg,
		model:     m,
		prof:      prof,
		planner:   planner,
		servers:   make([]simServer, env.Placement.Len()),
		clients:   make([]*simClient, 0, len(env.Dataset.Test)),
		seenPlans: make(map[*core.PlanEntry][]partition.Split),
		res: &CityResult{
			Model:   cfg.Model,
			Mode:    cfg.Mode,
			Radius:  cfg.Radius,
			Traffic: traffic,
			Latency: &obs.Histogram{},
		},
	}
	shardCount := cfg.Shards
	if shardCount < 1 {
		shardCount = 1
	}
	w.smap = geo.NewShardMap(env.Placement, shardCount)
	w.shards = make([]*simShard, w.smap.Count())
	for i := range w.shards {
		w.shards[i] = newSimShard(w, i)
	}
	if cfg.RecordSpans {
		w.tracer = tracing.New()
		w.srvNames = make([]string, env.Placement.Len())
		for i := range w.srvNames {
			w.srvNames[i] = fmt.Sprintf("server/%d", i)
		}
		w.cliNames = make([]string, len(env.Dataset.Test))
		for i := range w.cliNames {
			w.cliNames[i] = fmt.Sprintf("client/%d", i)
		}
	}
	w.decisions = w.tracer
	if cfg.RecordEvents && w.decisions == nil {
		w.decisions = tracing.New()
	}
	for i := range w.servers {
		w.servers[i] = simServer{
			gpu:   gpusim.Make(server, gpusim.DefaultParams(), cfg.Seed+int64(i)),
			store: core.MakeLayerCache(m.NumLayers(), w.ttl()),
		}
	}
	if cfg.Mode == ModePerDNN {
		w.policy = &core.MigrationPolicy{
			Predictor:        env.Predictor,
			Placement:        env.Placement,
			Radius:           cfg.Radius,
			HistoryLen:       env.HistoryLen,
			TTLIntervals:     cfg.TTLIntervals,
			FractionCapBytes: cfg.FractionCapBytes,
		}
		if err := w.policy.Validate(); err != nil {
			return nil, 0, err
		}
	}

	for i, tr := range env.Dataset.Test {
		c := &simClient{id: i, tr: tr, cur: geo.NoServer, home: geo.NoServer}
		w.clients = append(w.clients, c)
		if tr.Len() > steps {
			steps = tr.Len()
		}
	}
	if cfg.MaxSteps > 0 && steps > cfg.MaxSteps {
		steps = cfg.MaxSteps
	}
	w.end = time.Duration(steps) * env.Interval
	if cfg.Faults.Enabled() {
		w.faults = newFaultState(cfg.Faults, env.Placement.Len(), steps, env.Interval)
		w.srvDown = make([]bool, env.Placement.Len())
	}
	return w, steps, nil
}

// tick advances every client to trajectory step k: fault-state updates,
// movement, reconnection, cache refresh, and (PerDNN) proactive migration.
// Ticks run serially on the coordinator while every shard engine sits at
// the barrier, so cross-shard reads and writes (migration planning, store
// touches, fault transitions) need no locks; they are ordered exactly as a
// single-engine run orders them.
func (w *world) tick(k int) {
	now := time.Duration(k) * w.env.Interval
	w.updateFaults(now)
	for _, c := range w.clients {
		if k >= c.tr.Len() {
			continue
		}
		pos := c.tr.Points[k]
		sid := w.env.Placement.ServerAt(pos)
		if sid == geo.NoServer {
			sid = c.cur // hold the previous attachment in a dead zone
		}
		if w.faults != nil && w.faultStep(now, c, sid, pos) {
			continue
		}
		switch {
		case sid != c.cur && sid != geo.NoServer &&
			w.cfg.Mode == ModeRouting && c.home != geo.NoServer:
			// Routing: the client changes APs but keeps its session with
			// the home server — no cold start, queries pay the backhaul.
			prev := c.cur
			c.cur = sid
			c.connectedAt = now
			w.res.Connections++
			w.res.Hits++
			w.recordDecision(now, tracing.StageHandoff, w.clientNode(c.id), attrs(c.id, prev, sid, 0, 0))
			w.servers[c.home].store.Touch(now, w.storeKey(c.id))
		case sid != c.cur && sid != geo.NoServer:
			w.reconnect(now, c, sid)
		case c.cur != geo.NoServer:
			// Staying: keep our layers warm at the serving server.
			serving := c.cur
			if w.cfg.Mode == ModeRouting && c.home != geo.NoServer {
				serving = c.home
			}
			w.servers[serving].store.Touch(now, w.storeKey(c.id))
		}

		if w.policy != nil && c.cur != geo.NoServer && k >= 1 {
			w.migrate(now, c, k)
		}
	}
}

// updateFaults realizes outage-window transitions at tick time: servers
// entering a window go down and lose their layer cache; servers leaving
// one come back empty. Iteration is in server-ID order, so the journal is
// deterministic.
func (w *world) updateFaults(now time.Duration) {
	if w.faults == nil {
		return
	}
	for id := range w.servers {
		down := w.faults.serverDown(geo.ServerID(id), now)
		if down == w.srvDown[id] {
			continue
		}
		w.srvDown[id] = down
		if down {
			// A crashed server loses every cached layer.
			w.servers[id].store.Reset()
			w.serverDowns++
			w.recordDecision(now, tracing.StageServerDown, w.serverNode(geo.ServerID(id)),
				attrs(0, geo.ServerID(id), geo.NoServer, 0, 0))
		} else {
			w.recordDecision(now, tracing.StageServerUp, w.serverNode(geo.ServerID(id)),
				attrs(0, geo.ServerID(id), geo.NoServer, 0, 0))
		}
	}
}

// isDown reports whether a server is inside an outage window, as of the
// last tick's fault update.
func (w *world) isDown(id geo.ServerID) bool {
	return w.faults != nil && id != geo.NoServer && w.srvDown[id]
}

// faultStep handles the fault cases of one client's movement step and
// reports whether it consumed the step: the serving server (the routing
// home, or the cell server sid) is down, forcing a failover to a live
// neighbor or a degradation to local execution.
func (w *world) faultStep(now time.Duration, c *simClient, sid geo.ServerID, pos geo.Point) bool {
	if w.cfg.Mode == ModeRouting && c.home != geo.NoServer && w.isDown(c.home) {
		// The home server died, taking the session's layers with it:
		// abandon routing and re-home at the current cell (or fail over
		// if that is down too).
		home := c.home
		c.home = geo.NoServer
		if sid == geo.NoServer || w.isDown(sid) {
			w.failover(now, c, home, pos)
			return true
		}
		w.res.Failovers++
		w.recordDecision(now, tracing.StageFailover, w.clientNode(c.id), attrs(c.id, home, sid, 0, 0))
		w.reconnect(now, c, sid)
		return true
	}
	if sid != geo.NoServer && w.isDown(sid) {
		w.failover(now, c, sid, pos)
		return true
	}
	return false
}

// failover reacts to a down server: re-partition to the nearest live
// server within the failover radius, or degrade to local execution.
func (w *world) failover(now time.Duration, c *simClient, down geo.ServerID, pos geo.Point) {
	nid := w.liveNeighbor(pos)
	if nid == geo.NoServer {
		w.localFallback(now, c, down)
		return
	}
	if nid == c.cur {
		// The previous attachment survives; keep our layers warm there.
		w.servers[nid].store.Touch(now, w.storeKey(c.id))
		return
	}
	w.res.Failovers++
	w.recordDecision(now, tracing.StageFailover, w.clientNode(c.id), attrs(c.id, down, nid, 0, 0))
	w.reconnect(now, c, nid)
}

// liveNeighbor returns the nearest live server within the failover radius
// of pos, or NoServer.
func (w *world) liveNeighbor(pos geo.Point) geo.ServerID {
	for _, id := range w.env.Placement.Nearest(pos, 8) {
		if w.isDown(id) {
			continue
		}
		if w.env.Placement.Center(id).Dist(pos) > failoverRadius {
			break // Nearest is distance-ordered; the rest are farther
		}
		return id
	}
	return geo.NoServer
}

// localFallback detaches the client and degrades it to fully client-local
// execution until a later tick finds a live server. down names the server
// that failed it (or the one it could not attach to), for the journal.
// The fresh generation's local query chain stays on the shard of the
// server that failed the client (its last known region).
func (w *world) localFallback(now time.Duration, c *simClient, down geo.ServerID) {
	if c.cur == geo.NoServer && c.local {
		return // already running locally
	}
	c.gen++
	if c.sh == nil {
		c.sh = w.shardOf(down)
	}
	c.cur = geo.NoServer
	c.local = true
	c.entry = nil
	c.pending, c.nextUnit = c.pending[:0], 0
	c.curSet.Reset(w.model.NumLayers())
	c.split, c.cold = partition.Split{}, nil
	w.res.LocalFallbacks++
	w.recordDecision(now, tracing.StageLocalFallback, w.clientNode(c.id), attrs(c.id, down, geo.NoServer, 0, 0))
	w.issueQuery(c)
}

func (w *world) ttl() time.Duration {
	return time.Duration(w.cfg.TTLIntervals) * w.env.Interval
}

// storeKey maps a client to its layer-cache key; with a shared model cache
// every client shares one entry per server.
func (w *world) storeKey(clientID int) int {
	if w.cfg.SharedModelCache {
		return -1
	}
	return clientID
}

// transfer schedules `then` on the given shard's engine after a wireless
// transfer of duration base, stretched by any transient link spike (nil-
// safe). client and kind name the transfer for the spike hash (see
// faultState.stretch).
func (w *world) transfer(sh *simShard, client, kind int, base time.Duration, then func()) {
	sh.eng.After(w.faults.stretch(sh.eng.Now(), client, kind, base), then)
}

// reconnect attaches the client to a new edge server: computes the current
// partitioning plan from the server's live GPU statistics, classifies the
// hit/miss state of the cached layers, and restarts the upload and query
// chains. The fresh connection generation is owned by the new server's
// shard; the previous generation's in-flight events stay on their old
// shard and expire against the bumped generation counter.
func (w *world) reconnect(now time.Duration, c *simClient, sid geo.ServerID) {
	if w.faults != nil && w.faults.masterDown(now) {
		// No control plane, no plan: run locally until the next handoff
		// attempt finds the master back.
		w.localFallback(now, c, sid)
		return
	}
	prev := c.cur
	c.gen++
	c.cur = sid
	c.sh = w.shardOf(sid)
	c.local = false
	c.connectedAt = now
	srv := &w.servers[sid]
	w.res.Connections++
	w.recordDecision(now, tracing.StageHandoff, w.clientNode(c.id), attrs(c.id, prev, sid, 0, 0))

	entry, err := w.planner.PlanFor(srv.gpu.Sample(now))
	if err != nil {
		// Planning failures are programming errors (validated inputs).
		panic(fmt.Sprintf("edgesim: plan: %v", err))
	}
	planLayers := entry.Layers.Count()
	// Each handoff is one trace: a plan instant on the master track,
	// carrying the plan and its estimate and parenting the session's
	// upload.unit spans.
	if w.tracer != nil {
		c.upTrace = w.tracer.NewTrace()
		hops := 0
		if planLayers > 0 {
			hops = 1
		}
		c.upPlan = w.tracer.RecordAttrs(c.upTrace, 0, tracing.StagePlan, nodeMaster, now, now,
			attrs(c.id, sid, geo.NoServer, planLayers, entry.Plan.ServerBytes()).WithEstimate(hops, entry.Plan.EstLatency))
	}
	c.entry = entry
	w.trackPlan(now, entry, c.id, sid)

	c.curSet.Reset(w.model.NumLayers())
	cold := false // nothing of ours on the server: upload from scratch
	switch w.cfg.Mode {
	case ModeOptimal:
		c.curSet.Union(entry.Layers)
		w.res.Hits++
	case ModeIONN, ModeRouting:
		// From scratch: the baseline never reuses cached layers, and a
		// routing client only ever uploads once (to its home).
		cold = true
		w.res.Misses++
		w.recordDecision(now, tracing.StageColdStart, w.serverNode(sid), attrs(c.id, sid, geo.NoServer, planLayers, 0))
		c.home = sid
	case ModePerDNN:
		// What we have here is what the server caches for us of the plan.
		if cached, ok := srv.store.Get(now, w.storeKey(c.id)); ok {
			c.curSet.Union(cached)
			c.curSet.Intersect(entry.Layers)
		}
		have := c.curSet.Count()
		cold = have == 0
		switch {
		case have == planLayers:
			w.res.Hits++
		case have == 0:
			w.res.Misses++
			w.recordDecision(now, tracing.StageColdStart, w.serverNode(sid), attrs(c.id, sid, geo.NoServer, planLayers, 0))
		default:
			w.res.Partials++
			w.recordDecision(now, tracing.StagePartialHit, w.serverNode(sid), attrs(c.id, sid, geo.NoServer, have, 0))
		}
		srv.store.Touch(now, w.storeKey(c.id))
	}

	// Build the upload queue: schedule-ordered chunks of missing layers.
	c.pending, c.nextUnit = c.pending[:0], 0
	if cap(c.pendingIDs) < planLayers {
		c.pendingIDs = make([]dnn.LayerID, 0, planLayers)
	}
	ids := c.pendingIDs[:0]
	for _, u := range entry.Schedule {
		from := len(ids)
		for _, id := range u.Layers {
			if !c.curSet.Has(id) {
				ids = append(ids, id)
			}
		}
		if len(ids) > from {
			c.pending = append(c.pending, ids[from:len(ids):len(ids)])
		}
	}
	if cold {
		c.cold = w.coldSplits(c)
		c.split = c.cold[0]
	} else {
		c.split, c.cold = w.splitFor(c), nil
	}

	w.startUpload(c)
	w.issueQuery(c)
}

// uploadChain is a connection generation's upload loop: the units of
// c.pending go up the wireless uplink one at a time, and every unit hands
// the engine the same bound step, so an upload allocates nothing. Like a
// queryChain it is touched only by its generation's shard, or by the serial
// tick. A reconnect while a unit is on the air leaves that event to expire
// against the bumped generation and starts a fresh chain; an idle chain is
// reused.
type uploadChain struct {
	w    *world
	c    *simClient
	sh   *simShard
	gen  int
	step func() // done, bound once
	busy bool   // a unit is on the air

	// What the unit on the air captured when it left.
	chunk []dnn.LayerID
	sid   geo.ServerID // the server storing it
	start time.Duration
}

// startUpload runs the client's live generation's upload queue. Tick
// phase only.
func (w *world) startUpload(c *simClient) {
	if w.cfg.Mode == ModeOptimal || len(c.pending) == 0 {
		return
	}
	u := c.upload
	if u == nil || u.busy {
		u = &uploadChain{w: w, c: c}
		u.step = u.done
		c.upload = u
	}
	u.gen, u.sh = c.gen, c.sh
	u.next()
}

// next ships the next missing chunk, if any, over the wireless uplink.
// It only ever runs for the client's live generation, so u.sh is the shard
// owning both the client's chain and the serving AP.
func (u *uploadChain) next() {
	w, c := u.w, u.c
	if c.nextUnit == len(c.pending) {
		return
	}
	u.chunk = c.pending[c.nextUnit]
	c.nextUnit++
	var bytes int64
	for _, id := range u.chunk {
		bytes += w.model.Layer(id).WeightBytes
	}
	u.sid = c.cur
	if w.cfg.Mode == ModeRouting && c.home != geo.NoServer {
		u.sid = c.home
	}
	u.start = u.sh.eng.Now()
	u.busy = true
	w.transfer(u.sh, c.id, linkKindUpload, partition.LabWiFi().UpTime(bytes), u.step)
}

// done lands the unit on the air at its server and ships the next one,
// unless the client reconnected meanwhile.
func (u *uploadChain) done() {
	u.busy = false
	w, c := u.w, u.c
	if c.gen != u.gen {
		return
	}
	now := u.sh.eng.Now()
	w.tracer.Record(c.upTrace, c.upPlan, tracing.StageUploadUnit, w.clientNode(c.id), u.start, now)
	w.servers[u.sid].store.Claim(now, w.storeKey(c.id)).AddAll(u.chunk)
	c.curSet.AddAll(u.chunk)
	if c.cold != nil {
		c.split = c.cold[c.nextUnit]
	} else {
		c.split = w.splitFor(c)
	}
	u.next()
}

// queryStage is the event a queryChain's in-flight query waits for next.
type queryStage uint8

const (
	// stageTransferUp: the input reaches the GPU, after client.compute and
	// transfer.up.
	stageTransferUp queryStage = iota
	// stageExecCompute: the GPU finishes.
	stageExecCompute
	// stageGap: the next query is due, after transfer.down and the gap.
	stageGap
)

// queryChain is one connection generation's query loop: a state machine
// handing the engine the same bound step every time, so a query allocates
// nothing. An offloaded query costs three events: the input reaching the
// GPU, the GPU finishing, and the next issue. Those are the moments that
// touch state other events share — the GPU's load, and the split uploads
// keep changing. Between them every stage's length is a pure function of
// its start (a link spike is a hash of it), so client.compute with
// transfer.up, and transfer.down with the gap, are computed rather than
// waited out. A fully local query costs one event.
//
// The run's end cuts a query the way the engine would have: a stage, or the
// query itself, ending after it is neither recorded nor counted. The chain
// lives on the generation's shard and is touched only by that shard's
// window, or by the serial tick that creates it. Reconnect and
// localFallback bump the generation and start a fresh chain on the new
// shard, while the old chain's in-flight query finishes on its old shard
// against the state it captured at issue and then expires at the gap
// instead of chaining.
type queryChain struct {
	w    *world
	c    *simClient
	sh   *simShard
	gen  int
	step func() // advance, bound once

	// What the in-flight query captured at issue.
	stage              queryStage
	issue, connectedAt time.Duration
	mark               time.Duration // when the awaited stage started
	split              partition.Split
	qt                 tracing.TraceID
	root               tracing.SpanID
	exec               geo.ServerID // executing server
	routeUp, routeDown time.Duration
}

// issueQuery runs one DNN query on the client's live generation and chains
// the next one QueryGap after it completes. Exactly one chain runs per
// connection generation. Must be called only for the live generation.
func (w *world) issueQuery(c *simClient) {
	q := c.chain
	if q == nil || q.gen != c.gen {
		q = &queryChain{w: w, c: c, sh: c.sh, gen: c.gen}
		q.step = q.advance
		c.chain = q
	}
	q.issueNext()
}

// issueNext captures the client's state for one query and schedules the
// input's arrival at the GPU, or finishes a fully local query outright.
func (q *queryChain) issueNext() {
	w, c, sh := q.w, q.c, q.sh
	now := sh.eng.Now()
	q.issue, q.connectedAt, q.split = now, c.connectedAt, c.split

	// Each query is one trace: a root query span on the client's track
	// whose child stage spans tile [issue, finish] exactly, so the stage
	// durations sum to the reported end-to-end latency.
	q.qt = w.tracer.NewTrace()
	q.root = w.tracer.NewSpanID()
	cnode := w.clientNode(c.id)

	if c.cur == geo.NoServer || q.split.ServerBase == 0 {
		lat := q.split.ClientTime
		if c.cur == geo.NoServer {
			lat = w.prof.TotalClientTime()
		}
		q.span(tracing.StageClientCompute, cnode, now, now+lat)
		q.finish(now + lat)
		return
	}

	// Routing mode executes at the home server through the backhaul;
	// every other mode executes at the client's current server.
	q.exec, q.routeUp, q.routeDown = c.cur, 0, 0
	if w.cfg.Mode == ModeRouting && c.home != geo.NoServer {
		q.exec = c.home
		if q.exec != c.cur {
			q.routeUp = partition.DefaultBackhaul().UpTime(q.split.UpBytes)
			q.routeDown = partition.DefaultBackhaul().DownTime(q.split.DownBytes)
			w.res.Traffic.AddUp(c.cur, now, q.split.UpBytes)
			w.res.Traffic.AddDown(q.exec, now, q.split.UpBytes)
			w.res.Traffic.AddUp(q.exec, now, q.split.DownBytes)
			w.res.Traffic.AddDown(c.cur, now, q.split.DownBytes)
		}
	}
	q.mark = now + q.split.ClientTime
	q.span(tracing.StageClientCompute, cnode, now, q.mark)
	q.stage = stageTransferUp
	sh.eng.At(q.mark+w.faults.stretch(q.mark, c.id, linkKindQueryUp, partition.LabWiFi().UpTime(q.split.UpBytes)+q.routeUp), q.step)
}

// advance runs at the event the query waits for: it records the stages
// that ended and schedules the next event.
func (q *queryChain) advance() {
	w, sh, sp := q.w, q.sh, &q.split
	now := sh.eng.Now()
	switch q.stage {
	case stageTransferUp:
		q.span(tracing.StageTransferUp, w.clientNode(q.c.id), q.mark, now)
		gpu := &w.servers[q.exec].gpu
		gpu.Begin(now)
		q.stage, q.mark = stageExecCompute, now
		sh.eng.After(gpu.ExecTime(sp.ServerBase, sp.Intensity, now), q.step)
	case stageExecCompute:
		w.servers[q.exec].gpu.End()
		q.span(tracing.StageExecCompute, w.serverNode(q.exec), q.mark, now)
		done := now + w.faults.stretch(now, q.c.id, linkKindQueryDown, partition.LabWiFi().DownTime(sp.DownBytes)+q.routeDown)
		q.span(tracing.StageTransferDown, w.clientNode(q.c.id), now, done)
		q.finish(done)
	case stageGap:
		if q.c.gen != q.gen {
			return // the client reconnected; its new chain took over
		}
		q.issueNext()
	}
}

// span records one stage of the in-flight query, unless it ends after the
// run does.
func (q *queryChain) span(stage tracing.Stage, node string, start, end time.Duration) {
	if end <= q.w.end {
		q.w.tracer.Record(q.qt, q.root, stage, node, start, end)
	}
}

// finish completes the query at done, closing its root span and counting
// it on the chain's shard, and schedules the next issue one gap later —
// unless the run ends first.
func (q *queryChain) finish(done time.Duration) {
	w, sh := q.w, q.sh
	if done > w.end {
		return
	}
	lat := done - q.issue
	w.tracer.RecordWith(q.qt, q.root, 0, tracing.StageQuery, w.clientNode(q.c.id), q.issue, done)
	sh.totalQueries++
	sh.sumLatency += lat
	sh.latency.ObserveDuration(lat)
	if q.issue-q.connectedAt <= w.env.Interval {
		sh.windowQueries++
	}
	q.stage = stageGap
	// Scheduled here, not at done: among events at its instant the issue
	// runs ahead of any scheduled later, such as an upload completion that
	// changes the split it captures (DESIGN.md §16.2).
	sh.eng.At(done+w.cfg.QueryGap, q.step)
}

// migrate pushes the client's layers toward its predicted next servers.
// Tick phase only: it reads and writes stores across shard boundaries,
// which is safe exactly because every shard engine sits at the barrier.
func (w *world) migrate(now time.Duration, c *simClient, k int) {
	// A source holding nothing of ours sends nothing, so look before
	// predicting: Targets is pure (the predictor is read-only and Within
	// records nothing), and skipping it changes no draw or decision.
	key := w.storeKey(c.id)
	srcSet, srcOK := w.servers[c.cur].store.Get(now, key)
	if !srcOK {
		return
	}
	targets, ok := w.policy.Targets(c.tr.Points[:k+1], c.cur)
	if !ok {
		return
	}
	n, send := w.model.NumLayers(), &w.send
	for _, tid := range targets {
		if w.isDown(tid) {
			continue // never push layers at a downed server
		}
		dst := &w.servers[tid]
		// Future partitioning plan for the target, from its current GPU
		// state ("we use the current GPU workloads ... under the
		// assumption that [they] do not change so abruptly").
		entry, err := w.planner.PlanFor(dst.gpu.Sample(now))
		if err != nil {
			panic(fmt.Sprintf("edgesim: future plan: %v", err))
		}
		w.trackPlan(now, entry, c.id, tid)
		want, dropped := w.policy.Want(entry, c.cur, tid)
		if dropped > 0 {
			w.truncations++
			w.truncatedLayers += dropped
			w.recordDecision(now, tracing.StageFractionTruncated, w.serverNode(c.cur),
				attrs(c.id, c.cur, tid, dropped, w.policy.CapBytes(c.cur, tid)))
		}

		// Send what the source has and the target lacks: a few word ops.
		send.Reset(n)
		send.Union(want)
		send.Intersect(srcSet)
		if dstSet, ok := dst.store.Get(now, key); ok {
			send.Subtract(dstSet)
		}
		// A transfer attempt refreshes the target's TTL even when
		// everything is already there (duplicate suppression).
		dst.store.Touch(now, key)
		bytes := send.WeightBytes(w.model)
		if bytes == 0 {
			continue
		}
		w.res.Traffic.AddUp(c.cur, now, bytes)
		w.res.Traffic.AddDown(tid, now, bytes)
		w.migOrdered++
		w.migBytes += bytes
		// One trace per migration: an order instant on the source server's
		// track, and a completion instant on the target's track parented to
		// it (a cross-node flow arrow in the Perfetto export). If the target
		// dies in transit the completion is simply never recorded. The
		// completion mutates the target's store, so it is scheduled on the
		// target's shard — the sharded analogue of the edge-to-edge push
		// landing at the target daemon.
		a := attrs(c.id, c.cur, tid, send.Count(), bytes)
		mt := w.decisions.NewTrace()
		order := w.decisions.RecordAttrs(mt, 0, tracing.StageMigrationOrdered, w.serverNode(c.cur), now, now, a)
		layers := send.Clone() // the order's own copy: a few words
		dsh := w.shardOf(tid)
		dsh.eng.After(partition.DefaultBackhaul().UpTime(bytes), func() {
			if w.isDown(tid) {
				return // the target died in transit; the layers are lost
			}
			done := dsh.eng.Now()
			dst.store.Claim(done, key).Union(layers)
			dsh.migCompleted++
			w.decisions.RecordAttrs(mt, order, tracing.StageMigrationCompleted, w.serverNode(tid), done, done, a)
		})
	}
}

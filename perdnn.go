// Package perdnn is the public API of this PerDNN reproduction — a system
// for offloading DNN inference from mobile clients to pervasive edge
// servers with GPU-aware partitioning and mobility-driven proactive layer
// migration (Jeong et al., "PerDNN: Offloading Deep Neural Network
// Computations to Pervasive Edge Servers", ICDCS 2020).
//
// The package re-exports the library's building blocks:
//
//   - DNN models: a layer-DAG representation and a zoo reconstructing the
//     paper's three evaluation models (Table I).
//   - Execution profiles: per-layer latencies for the paper's client board
//     and GPU edge server.
//   - Partitioning: the Fig 5 shortest-path partitioner, the exact plan
//     evaluator, and the efficiency-first upload schedule.
//   - GPU simulation and estimation: a contended-GPU simulator with
//     nvml-style statistics, and the random-forest execution-time
//     estimator with its NeuroSurgeon-style baselines (Fig 4).
//   - Mobility: synthetic KAIST/Geolife-like trajectory datasets and the
//     Markov / linear-SVR / LSTM predictors (Table III, Fig 6).
//   - Simulation: single-client scenarios (Fig 1, Fig 7, Table II) and the
//     large-scale city simulation (Fig 9, backhaul traffic, Fig 10).
//   - A live runtime: master / edge / client daemons speaking a
//     length-prefixed, versioned binary protocol over TCP with pooled
//     connections and streaming, windowed layer uploads (cmd/perdnn-master,
//     cmd/perdnn-edge, cmd/perdnn-client).
//   - Distributed tracing: per-query spans across simulation and live
//     runs, exported as a JSONL journal or a Perfetto-loadable trace
//     (Tracer, LiveConfig.Tracer, WritePerfettoTrace).
//
// Quick start:
//
//	model, _ := perdnn.LoadModel(perdnn.ModelInception)
//	prof := perdnn.NewProfile(model)
//	plan, _ := perdnn.Plan(prof) // defaults: one idle server, lab Wi-Fi
//	fmt.Println(plan.Split())    // which layers run where, and the latency
//	sched, _ := plan.UploadSchedule()
//
// Multi-hop pipelines split the model across a chain of edge servers:
//
//	plan, _ := perdnn.Plan(prof,
//		perdnn.WithObjective(perdnn.ObjectiveThroughput),
//		perdnn.WithMaxHops(3),
//		perdnn.WithServers(
//			perdnn.ServerSpec{ID: 0, Slowdown: 4},
//			perdnn.ServerSpec{ID: 1, Slowdown: 4},
//			perdnn.ServerSpec{ID: 2, Slowdown: 4}))
//	fmt.Println(plan) // hops, bottleneck stage, estimated latency
//
// Long-running entry points take a context first (RunCityContext,
// RunSweepContext, DialLive): bound them with context.WithTimeout, and set
// everything else — shards, faults, retry policy, upload window, tracer —
// on their config struct. Failures surface typed sentinels —
// ErrServerDown, ErrMasterDown, ErrRetryBudgetExhausted, ErrLocalFallback,
// ErrExecRefused — testable with errors.Is.
package perdnn

import (
	"context"
	"io"

	"perdnn/internal/core"
	"perdnn/internal/dnn"
	"perdnn/internal/edgesim"
	"perdnn/internal/estimator"
	"perdnn/internal/geo"
	"perdnn/internal/gpusim"
	"perdnn/internal/mobile"
	"perdnn/internal/mobility"
	"perdnn/internal/obs/tracing"
	"perdnn/internal/partition"
	"perdnn/internal/profile"
	"perdnn/internal/simnet"
	"perdnn/internal/trace"
	"perdnn/internal/wire"
)

// Typed failure sentinels, re-exported from the control plane. Wrapped
// errors from every layer (live client, daemons, simulations) match them
// under errors.Is.
var (
	// ErrServerDown marks failures caused by an unreachable edge server.
	ErrServerDown = core.ErrServerDown
	// ErrMasterDown marks failures caused by an unreachable master.
	ErrMasterDown = core.ErrMasterDown
	// ErrRetryBudgetExhausted marks operations abandoned after the retry
	// policy spent its attempts or time budget.
	ErrRetryBudgetExhausted = core.ErrRetryBudgetExhausted
	// ErrLocalFallback marks queries that degraded to client-local
	// execution; results carrying it are still valid.
	ErrLocalFallback = core.ErrLocalFallback
	// ErrExecRefused marks exec requests an edge server refused because
	// no client of its model could have sent them.
	ErrExecRefused = core.ErrExecRefused
	// ErrProtoVersion marks connections rejected because the peer speaks
	// a different wire-protocol version.
	ErrProtoVersion = wire.ErrProtoVersion
	// ErrConnPoisoned marks operations on a connection permanently
	// disabled by an earlier interrupted (context-canceled) exchange.
	ErrConnPoisoned = wire.ErrConnPoisoned
)

// Re-exported fault-tolerance types.
type (
	// RetryPolicy is a capped exponential backoff with deterministic
	// jitter and an overall time budget.
	RetryPolicy = core.RetryPolicy
	// FaultModel injects deterministic, seeded failures into city runs:
	// per-server outage windows, transient link faults, master blackouts.
	FaultModel = edgesim.FaultModel
	// FaultWindow is one half-open virtual-time outage interval.
	FaultWindow = edgesim.FaultWindow
)

// DefaultRetryPolicy returns the live path's default backoff settings.
func DefaultRetryPolicy() RetryPolicy { return core.DefaultRetryPolicy() }

// Re-exported live-client types.
type (
	// LiveConfig parameterizes a live client (see DialLive).
	LiveConfig = mobile.Config
	// LiveClient is a connected live client.
	LiveClient = mobile.Client
)

// options collects Plan's knobs.
type options struct {
	slowdown  float64
	link      Link
	objective Objective
	maxHops   int
	servers   []ServerSpec
	minCut    bool
}

// Option configures a Plan call.
type Option func(*options)

// WithSlowdown sets the server contention slowdown factor used when
// partitioning (1.0 means an idle server).
func WithSlowdown(s float64) Option { return func(o *options) { o.slowdown = s } }

// WithLink sets the client-server network link used to price transfers.
func WithLink(l Link) Option { return func(o *options) { o.link = l } }

// WithObjective selects what Plan minimizes: end-to-end latency (the
// default) or pipeline bottleneck time (SEIFER-style throughput).
func WithObjective(obj Objective) Option { return func(o *options) { o.objective = obj } }

// WithMaxHops caps the number of server segments a plan may chain (K).
// The default is 1 — the classic single split; 0 means "as many as there
// are candidate servers".
func WithMaxHops(k int) Option { return func(o *options) { o.maxHops = k } }

// WithServers names the candidate edge servers, in chain order, that Plan
// may place segments on. Without it Plan assumes a single server at the
// WithSlowdown contention level.
func WithServers(servers ...ServerSpec) Option {
	return func(o *options) { o.servers = append([]ServerSpec(nil), servers...) }
}

// WithMinCut makes Plan compute the exact single-split optimum for
// arbitrary DAG models via minimum s-t cut (Hu et al.) instead of the
// Fig 5 shortest path. It implies a single hop.
func WithMinCut() Option { return func(o *options) { o.minCut = true } }

// Re-exported model types.
type (
	// Model is a DNN as a topologically ordered layer DAG.
	Model = dnn.Model
	// ModelName names a zoo model.
	ModelName = dnn.ModelName
	// Layer is one DNN layer with hyperparameters and sizes.
	Layer = dnn.Layer
	// LayerID indexes a layer within its model.
	LayerID = dnn.LayerID
)

// Zoo model names (Table I).
const (
	ModelMobileNet = dnn.ModelMobileNet
	ModelInception = dnn.ModelInception
	ModelResNet    = dnn.ModelResNet
)

// Re-exported profiling and partitioning types.
type (
	// Device is an execution profile of one piece of hardware.
	Device = profile.Device
	// ModelProfile is the paper's "DNN profile": layer times and sizes,
	// no weights.
	ModelProfile = profile.ModelProfile
	// Link is a client-server network link.
	Link = partition.Link
	// SplitPlan assigns each layer to the client or one server — the
	// classic single-split plan (Plan returns the richer OffloadPlan).
	SplitPlan = partition.Plan
	// OffloadPlan is a unified plan: an ordered chain of server segments
	// (possibly just one, possibly none) with latency and bottleneck
	// estimates; see Plan.
	OffloadPlan = partition.ChainPlan
	// Hop is one server segment of an OffloadPlan.
	Hop = partition.Hop
	// ServerSpec describes one candidate edge server offered to Plan.
	ServerSpec = partition.ServerSpec
	// Objective selects what Plan minimizes.
	Objective = partition.Objective
	// UploadUnit is one step of the efficiency-first upload schedule.
	UploadUnit = partition.UploadUnit
	// Split prices a fixed assignment for simulation.
	Split = partition.Split
)

// Plan objectives.
const (
	// ObjectiveLatency minimizes one query's end-to-end latency.
	ObjectiveLatency = partition.ObjectiveLatency
	// ObjectiveThroughput minimizes the pipeline's bottleneck stage.
	ObjectiveThroughput = partition.ObjectiveThroughput
)

// Re-exported estimation types.
type (
	// GPUStats is an nvml-style GPU statistics sample.
	GPUStats = gpusim.Stats
	// GPU is a simulated shared edge GPU. It is not safe for concurrent
	// use: call it from one goroutine at a time.
	GPU = gpusim.GPU
	// ServerEstimator predicts contention slowdown from GPU statistics.
	ServerEstimator = estimator.ServerEstimator
)

// Re-exported geography and mobility types.
type (
	// Point is a planar position in meters.
	Point = geo.Point
	// ServerID identifies a placed edge server.
	ServerID = geo.ServerID
	// Placement maps locations to edge servers on a hexagonal grid.
	Placement = geo.Placement
	// Dataset is a mobility corpus with train/test splits.
	Dataset = trace.Dataset
	// Trajectory is one user's sampled track.
	Trajectory = trace.Trajectory
	// Predictor ranks a client's likely next edge servers.
	Predictor = mobility.Predictor
	// SVR is the paper's linear support vector regressor.
	SVR = mobility.SVR
	// Markov is the prediction-suffix-tree baseline.
	Markov = mobility.Markov
	// LSTM is the recurrent baseline.
	LSTM = mobility.LSTM
)

// Re-exported control-plane and simulation types.
type (
	// Planner produces GPU-aware partitioning plans with caching.
	Planner = core.Planner
	// PlanEntry bundles a plan with its upload schedule.
	PlanEntry = core.PlanEntry
	// MigrationPolicy decides proactive migration targets and caps.
	MigrationPolicy = core.MigrationPolicy
	// Env is a prepared large-scale simulation environment. It is
	// immutable once prepared, so one Env backs any number of concurrent
	// runs (see RunSweepContext).
	Env = edgesim.Env
	// CityConfig / CityResult parameterize and report city runs.
	CityConfig = edgesim.CityConfig
	CityResult = edgesim.CityResult
	// SweepRun / SweepOutcome are one cell of a parallel experiment sweep
	// and its result.
	SweepRun     = edgesim.SweepRun
	SweepOutcome = edgesim.SweepOutcome
	// PlanCache is a concurrency-safe partition-plan cache shared across
	// planners and simulation runs.
	PlanCache = core.PlanCache
	// SingleConfig / SingleResult cover the single-client experiments.
	SingleConfig = edgesim.SingleConfig
	SingleResult = edgesim.SingleResult
	// TrafficAccount is the per-server backhaul ledger.
	TrafficAccount = simnet.TrafficAccount
)

// Simulation modes (Fig 9's bars, plus the Section III.A routing
// alternative).
const (
	ModeIONN    = edgesim.ModeIONN
	ModePerDNN  = edgesim.ModePerDNN
	ModeOptimal = edgesim.ModeOptimal
	ModeRouting = edgesim.ModeRouting
)

// Multi-DNN upload strategies (the Section VI extension).
const (
	UploadSequential = edgesim.UploadSequential
	UploadJoint      = edgesim.UploadJoint
)

// Multi-DNN client types.
type (
	// MultiConfig / MultiResult cover clients running several DNNs at once.
	MultiConfig = edgesim.MultiConfig
	MultiResult = edgesim.MultiResult
)

// RunMultiDNN simulates a client running several DNNs concurrently while
// uploading them over one uplink.
func RunMultiDNN(cfg MultiConfig) (*MultiResult, error) { return edgesim.RunMultiDNN(cfg) }

// MultiDefaults returns the two-model multi-DNN configuration.
func MultiDefaults(strategy edgesim.UploadStrategy) MultiConfig {
	return edgesim.DefaultMultiConfig(strategy)
}

// LoadModel builds a zoo model by name.
func LoadModel(name ModelName) (*Model, error) { return dnn.ZooModel(name) }

// ModelNames lists the zoo models in Table I order.
func ModelNames() []ModelName { return dnn.ZooNames() }

// ClientDevice returns the paper's client board profile (ODROID XU4).
func ClientDevice() Device { return profile.ClientODROID() }

// ServerDevice returns the paper's edge server profile (Titan Xp).
func ServerDevice() Device { return profile.ServerTitanXp() }

// NewProfile profiles a model on the paper's client and server hardware.
func NewProfile(m *Model) *ModelProfile {
	return profile.NewModelProfile(m, profile.ClientODROID(), profile.ServerTitanXp())
}

// LabWiFi returns the paper's evaluation link (50 Mbps down / 35 Mbps up).
func LabWiFi() Link { return partition.LabWiFi() }

// Plan is the unified planning entry point. By default it computes the
// classic Fig 5 minimum-latency single split against one idle server over
// the paper's lab Wi-Fi, and the options open every other planning form:
//
//   - WithSlowdown / WithLink: the classic knobs.
//   - WithServers: the candidate edge servers, in chain order.
//   - WithMaxHops(k): allow up to k chained server segments.
//   - WithObjective(ObjectiveThroughput): minimize the pipeline bottleneck
//     instead of one query's latency.
//   - WithMinCut: the exact min-cut single split for branchy DAGs.
//
// On the returned OffloadPlan, Split() is the best
// single-split plan (the failover target of a multi-hop chain) and
// UploadSchedule() orders the server-side layers for transmission.
func Plan(prof *ModelProfile, opts ...Option) (*OffloadPlan, error) {
	o := options{slowdown: 1.0, link: partition.LabWiFi(), maxHops: 1}
	for _, opt := range opts {
		opt(&o)
	}
	if o.minCut {
		p, err := partition.PartitionMinCut(partition.Request{Profile: prof, Slowdown: o.slowdown, Link: o.link})
		if err != nil {
			return nil, err
		}
		return partition.WrapSplit(prof, p), nil
	}
	servers := o.servers
	if len(servers) == 0 {
		servers = []ServerSpec{{Slowdown: o.slowdown}}
	}
	return partition.PlanChain(partition.ChainRequest{
		Profile:   prof,
		Link:      o.link,
		Servers:   servers,
		MaxHops:   o.maxHops,
		Objective: o.objective,
	})
}

// TrainEstimator trains the per-server random-forest execution-time
// estimator on simulated profiling data (Section III.C.1).
func TrainEstimator(seed int64) (*ServerEstimator, error) {
	return estimator.TrainServerEstimator(profile.ServerTitanXp(), gpusim.DefaultParams(), seed)
}

// NewPlanner builds the master-side planner for one client model.
func NewPlanner(prof *ModelProfile, est *ServerEstimator, link Link) (*Planner, error) {
	return core.NewPlanner(prof, est, link)
}

// GenerateKAIST generates the KAIST-like campus mobility dataset.
func GenerateKAIST() (*Dataset, error) { return trace.Generate(trace.KAISTConfig()) }

// GenerateGeolife generates the Geolife-like urban mobility dataset.
func GenerateGeolife() (*Dataset, error) { return trace.Generate(trace.GeolifeConfig()) }

// PrepareCity prepares a large-scale simulation environment from a base
// dataset with the paper's default settings (t = 20 s, 50 m cells, n = 5).
func PrepareCity(base *Dataset) (*Env, error) {
	return edgesim.PrepareEnv(base, edgesim.DefaultEnvConfig())
}

// RunCityContext executes one large-scale simulation run under a context:
// cancellation (or deadline expiry) aborts the run at its next movement
// tick. cfg.Faults injects a failure model and cfg.Shards spreads the run
// across region shards (0, the default, by GOMAXPROCS); results are
// byte-identical at every shard count.
func RunCityContext(ctx context.Context, env *Env, cfg CityConfig) (*CityResult, error) {
	return edgesim.RunCityContext(ctx, env, cfg)
}

// SweepConfigs builds sweep runs for several configurations against one
// prepared environment, preserving order.
func SweepConfigs(env *Env, cfgs ...CityConfig) []SweepRun {
	return edgesim.SweepConfigs(env, cfgs...)
}

// RunSweepContext executes simulation runs concurrently on a bounded
// worker pool (workers <= 0 uses GOMAXPROCS) and returns outcomes in input
// order. Results are deterministic and identical at every worker count;
// runs cut short by the context carry its error in their outcome.
func RunSweepContext(ctx context.Context, runs []SweepRun, workers int) []SweepOutcome {
	return edgesim.RunSweepContext(ctx, runs, workers)
}

// DialLive connects a live client to a master daemon, retrying transient
// failures under cfg.Retry until ctx is done. cfg.UploadWindow sets the
// streaming upload's in-flight window and cfg.Tracer records the client's
// request spans. Unreachable masters surface errors wrapping ErrMasterDown.
func DialLive(ctx context.Context, cfg LiveConfig) (*LiveClient, error) {
	return mobile.DialContext(ctx, cfg)
}

// SweepErr returns the first error among sweep outcomes, or nil.
func SweepErr(outs []SweepOutcome) error { return edgesim.SweepErr(outs) }

// SharedPlans returns the process-wide partition-plan cache used by city
// simulations to share immutable plans across runs.
func SharedPlans() *PlanCache { return core.SharedPlans() }

// CityDefaults returns the paper's city-run settings for a model and mode.
func CityDefaults(model ModelName, mode edgesim.Mode, radius float64) CityConfig {
	return edgesim.DefaultCityConfig(model, mode, radius)
}

// RunSingle executes the single-client scenario (Fig 1 / Fig 7).
func RunSingle(cfg SingleConfig) (*SingleResult, error) { return edgesim.RunSingle(cfg) }

// SingleDefaults returns the Fig 1 configuration for a model.
func SingleDefaults(model ModelName) SingleConfig { return edgesim.DefaultSingleConfig(model) }

// Re-exported distributed-tracing types (internal/obs/tracing). City runs
// record spans when CityConfig.RecordSpans is set (CityResult.Spans); live
// clients record through LiveConfig.Tracer.
type (
	// Tracer records request-scoped spans; nil is a valid disabled tracer.
	Tracer = tracing.Tracer
	// Span is one recorded stage interval of a traced request.
	Span = tracing.Span
	// SpanStage names a span kind ("query", "upload.unit", "migrate", ...).
	SpanStage = tracing.Stage
)

// NewWallClockTracer returns an enabled tracer stamping spans with wall
// time since the call — the clock live clients and daemons use.
func NewWallClockTracer() *Tracer { return tracing.NewWallClock() }

// WriteSpanJournal writes spans as JSONL, one compact object per line in
// fixed field order (byte-identical for identical span slices).
func WriteSpanJournal(w io.Writer, spans []Span) error { return tracing.WriteJSONL(w, spans) }

// WritePerfettoTrace writes spans as Chrome trace_event JSON, loadable at
// ui.perfetto.dev: one named track per node, flow arrows across nodes.
func WritePerfettoTrace(w io.Writer, spans []Span) error { return tracing.WritePerfetto(w, spans) }

// ValidateSpans checks a span journal's structural invariants (IDs unique,
// children nested in or following from their parents).
func ValidateSpans(spans []Span) error { return tracing.Validate(spans) }

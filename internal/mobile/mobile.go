// Package mobile is the live client runtime: it registers with the master,
// reports its trajectory, fetches partitioning plans, uploads layers to its
// current edge server, and runs collaborative queries (client-side layers
// locally, server-side layers at the edge daemon).
//
// The client is fault-tolerant: every blocking entry point has a
// context-aware variant, transient failures retry under a
// core.RetryPolicy (capped exponential backoff with deterministic jitter),
// a dropped edge connection is redialed and the upload state resynced from
// the edge's cache (reconnect-and-resume), and a query whose edge never
// answers degrades to client-local execution, returning a valid latency
// wrapped with core.ErrLocalFallback.
package mobile

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"os"
	"time"

	"perdnn/internal/core"
	"perdnn/internal/dnn"
	"perdnn/internal/geo"
	"perdnn/internal/obs"
	"perdnn/internal/obs/tracing"
	"perdnn/internal/partition"
	"perdnn/internal/profile"
	"perdnn/internal/wire"
)

// Config parameterizes a live client.
type Config struct {
	// ID identifies the client to the master and edge daemons.
	ID int
	// Model is the client's DNN.
	Model dnn.ModelName
	// MasterAddr is the master daemon address.
	MasterAddr string
	// TimeScale compresses client-side execution into wall time, matching
	// the edge daemons' scale.
	TimeScale float64
	// Retry drives retries of master registration and edge exchanges; nil
	// uses core.DefaultRetryPolicy.
	Retry *core.RetryPolicy
	// UploadWindow is the number of schedule units UploadAllContext keeps
	// in flight before waiting for edge acks (<= 0 means
	// DefaultUploadWindow). Window 1 degenerates to lockstep
	// send-one-wait-one.
	UploadWindow int
	// Logger receives the client's structured log output; nil defaults to
	// info-level logging on stderr tagged with component=mobile.
	Logger *slog.Logger
	// Tracer records request-scoped spans (registration, plan fetch,
	// upload units, queries, retries) and stamps outgoing envelopes with
	// the span context so the edge's half of each trace links back to the
	// client's. Nil disables tracing at near-zero cost.
	Tracer *tracing.Tracer
}

// DefaultUploadWindow is the streaming upload's default in-flight window:
// deep enough to cover one round trip of ack latency on the lab links
// without buffering the whole model ahead of the edge's ingest rate.
const DefaultUploadWindow = 4

// Client is a connected live client.
type Client struct {
	cfg    Config
	model  *dnn.Model
	prof   *profile.ModelProfile
	master *wire.Conn
	retry  core.RetryPolicy
	log    *slog.Logger
	met    *obs.Registry
	tr     *tracing.Tracer
	node   string // span track name, "client/<id>"

	// Handles of the per-query metrics, resolved once.
	queries, chainQueries, edgeRetries *obs.Counter
	queryLatency                       *obs.Histogram

	// Current attachment.
	server    geo.ServerID
	edge      *wire.Conn
	edgeAddr  string
	plan      *wire.PlanResp
	uploaded  dnn.LayerSet // layers known present at the edge; reset per attachment
	split     partition.Split
	planReady bool
	// chainBroken latches after a multi-hop query fails mid-chain: later
	// queries degrade to the plan's single-split fields until the next
	// ConnectContext fetches a fresh plan.
	chainBroken bool

	// Current upload trace: unit spans parent to the plan-fetch span.
	upTrace tracing.TraceID
	upRoot  tracing.SpanID
}

// DialContext connects to the master and registers, retrying transient
// failures under the configured policy. An unreachable master surfaces as
// an error wrapping core.ErrMasterDown (and core.ErrRetryBudgetExhausted
// once retries are spent).
func DialContext(ctx context.Context, cfg Config) (*Client, error) {
	m, err := dnn.ZooModel(cfg.Model)
	if err != nil {
		return nil, err
	}
	logger := cfg.Logger
	if logger == nil {
		logger = obs.NewLogger(os.Stderr, slog.LevelInfo, "mobile")
	}
	retry := core.DefaultRetryPolicy()
	if cfg.Retry != nil {
		retry = *cfg.Retry
	}
	c := &Client{
		cfg:      cfg,
		model:    m,
		prof:     profile.NewModelProfile(m, profile.ClientODROID(), profile.ServerTitanXp()),
		retry:    retry,
		log:      logger,
		met:      obs.NewRegistry(),
		server:   geo.NoServer,
		uploaded: dnn.NewLayerSet(m.NumLayers()),
		tr:       cfg.Tracer,
		node:     fmt.Sprintf("client/%d", cfg.ID),
	}
	c.queries = c.met.Counter("queries_total")
	c.chainQueries = c.met.Counter("chain_queries_total")
	c.edgeRetries = c.met.Counter("edge_retries_total")
	c.queryLatency = c.met.Histogram("query_latency_ns")
	regTrace := c.tr.NewTrace()
	regSpan := c.tr.NewSpanID()
	regStart := c.tr.Now()
	c.master, err = c.register(ctx, cfg.MasterAddr, tracing.SpanContext{Trace: regTrace, Span: regSpan})
	if err != nil {
		return nil, fmt.Errorf("mobile: dialing master: %w", err)
	}
	c.tr.RecordWith(regTrace, regSpan, 0, tracing.StageRegister, c.node, regStart, c.tr.Now())
	return c, nil
}

// register dials the master at addr and registers the client there under
// the retry policy, returning the registered connection. sc parents the
// master's register span (zero for none). A client that already holds a
// master connection is re-homing, and the retry op and errors say so.
func (c *Client) register(ctx context.Context, addr string, sc tracing.SpanContext) (*wire.Conn, error) {
	op, re := "master registration", ""
	if c.master != nil {
		op, re = "master handoff", "re-"
	}
	var conn *wire.Conn
	err := c.retry.Do(ctx, op, func(ctx context.Context) error {
		nc, err := wire.DialContext(ctx, addr)
		if err != nil {
			c.met.Counter("master_retries_total").Inc()
			c.retryInstant()
			return fmt.Errorf("%w: %w", core.ErrMasterDown, err)
		}
		resp, err := nc.RoundTripContext(ctx, &wire.Envelope{
			Type:     wire.MsgRegister,
			Register: &wire.Register{ClientID: c.cfg.ID, Model: c.cfg.Model},
			Trace:    sc,
		})
		if err != nil {
			closeQuietly(nc, c.log, "master conn")
			c.met.Counter("master_retries_total").Inc()
			c.retryInstant()
			return fmt.Errorf("%w: %sregistering: %w", core.ErrMasterDown, re, err)
		}
		if resp.Ack == nil || !resp.Ack.OK {
			closeQuietly(nc, c.log, "master conn")
			// A rejected registration is a hard failure, not an outage,
			// but the protocol cannot distinguish; let the policy retry.
			return fmt.Errorf("mobile: %sregistration rejected: %s", re, ackError(resp))
		}
		conn = nc
		return nil
	})
	return conn, err
}

// Metrics exposes the client's metrics registry (connects, uploads,
// queries and their latency distribution, plus retries, reconnects, and
// local fallbacks).
func (c *Client) Metrics() *obs.Registry { return c.met }

// Tracer exposes the client's span recorder (nil when tracing is off).
func (c *Client) Tracer() *tracing.Tracer { return c.tr }

// retryInstant marks one retried exchange as a zero-duration span on a
// trace of its own; the operation being retried carries the latency.
func (c *Client) retryInstant() {
	now := c.tr.Now()
	c.tr.Record(c.tr.NewTrace(), 0, tracing.StageRetry, c.node, now, now)
}

func ackError(e *wire.Envelope) string {
	if e.Ack != nil {
		return e.Ack.Error
	}
	return "no ack"
}

// execError describes a failed answer to an exec request: the edge's
// error ack, or an exec time no edge can take.
func execError(e *wire.Envelope) string {
	if e.ExecResp != nil && e.ExecResp.ExecNs < 0 {
		return fmt.Sprintf("negative exec time %d ns", e.ExecResp.ExecNs)
	}
	return ackError(e)
}

func closeQuietly(conn *wire.Conn, log *slog.Logger, what string) {
	if err := conn.Close(); err != nil {
		log.Warn("closing "+what, "err", err)
	}
}

// Close drops all connections.
func (c *Client) Close() error {
	var first error
	if c.edge != nil {
		first = c.edge.Close()
	}
	if err := c.master.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// maxMasterRedirects bounds how many shard redirects one location report
// follows. One boundary crossing produces exactly one; a misconfigured
// peer table that bounces a report between masters must not loop forever.
const maxMasterRedirects = 2

// ReportLocationContext sends a trajectory point to the master (triggering
// its proactive-migration pipeline). When the master runs in shard-owner
// mode and the point crossed a region boundary, the reply is a redirect
// naming the region's new owner: the client re-homes transparently —
// dials the new master, re-registers (idempotent: the new owner already
// adopted the client's state) and re-sends the report there.
func (c *Client) ReportLocationContext(ctx context.Context, p geo.Point) error {
	for redirects := 0; ; redirects++ {
		resp, err := c.master.RoundTripContext(ctx, &wire.Envelope{
			Type:       wire.MsgTrajectory,
			Trajectory: &wire.Trajectory{ClientID: c.cfg.ID, Points: []geo.Point{p}},
		})
		if err != nil {
			return fmt.Errorf("mobile: reporting location: %w: %w", core.ErrMasterDown, err)
		}
		if resp.Type == wire.MsgShardHandoff && resp.Handoff != nil {
			if redirects >= maxMasterRedirects {
				return fmt.Errorf("mobile: location report redirected %d times, giving up at %s", redirects, c.cfg.MasterAddr)
			}
			if err := c.switchMaster(ctx, resp.Handoff.Addr); err != nil {
				return err
			}
			continue
		}
		if resp.Ack == nil || !resp.Ack.OK {
			return fmt.Errorf("mobile: location rejected: %s", ackError(resp))
		}
		return nil
	}
}

// switchMaster re-homes the client onto another shard master after a
// handoff redirect: dial and re-register under the retry policy, then swap
// the connection. The old master's connection is dropped only once the new
// registration succeeds, so a failed switch leaves the client attached
// where it was (that master kept serving it anyway — it only drops its
// state after the peer accepts the handoff).
func (c *Client) switchMaster(ctx context.Context, addr string) error {
	start := c.tr.Now()
	conn, err := c.register(ctx, addr, tracing.SpanContext{})
	if err != nil {
		return fmt.Errorf("mobile: switching master to %s: %w", addr, err)
	}
	closeQuietly(c.master, c.log, "master conn")
	c.master = conn
	c.cfg.MasterAddr = addr
	c.met.Counter("master_handoffs_total").Inc()
	c.tr.Record(c.tr.NewTrace(), 0, tracing.StageShardHandoff, c.node, start, c.tr.Now())
	c.log.Info("re-homed to shard master", "addr", addr)
	return nil
}

// dropEdge discards a broken edge connection; the next edge exchange
// redials and resyncs.
func (c *Client) dropEdge() {
	if c.edge == nil {
		return
	}
	closeQuietly(c.edge, c.log, "edge conn")
	c.edge = nil
}

// redialEdge re-establishes the edge connection and resumes: the uploaded
// set is resynced from the edge's cache, so an edge that kept its cache
// continues where the upload left off, and one that restarted empty is
// re-fed only what it lost.
func (c *Client) redialEdge(ctx context.Context) error {
	edge, err := wire.DialContext(ctx, c.edgeAddr)
	if err != nil {
		return fmt.Errorf("%w: %w", core.ErrServerDown, err)
	}
	if c.planReady {
		hasResp, err := edge.RoundTripContext(ctx, &wire.Envelope{
			Type: wire.MsgHasRequest,
			Has:  &wire.Has{ClientID: c.cfg.ID, Layers: c.plan.ServerLayers},
		})
		if err != nil {
			closeQuietly(edge, c.log, "edge conn")
			return fmt.Errorf("%w: resyncing cache: %w", core.ErrServerDown, err)
		}
		c.uploaded.Clear()
		if hasResp.Type == wire.MsgHasResponse && hasResp.Has != nil && c.model.CheckLayers(hasResp.Has.Layers) == nil {
			c.uploaded.AddAll(hasResp.Has.Layers)
		}
		c.recomputeSplit()
	}
	c.edge = edge
	c.met.Counter("reconnects_total").Inc()
	c.log.Info("reconnected to edge", "addr", c.edgeAddr, "layers_cached", c.uploaded.Count())
	return nil
}

// edgeRoundTrip performs one edge exchange under the retry policy: a
// failed attempt drops the connection, and the next one redials and
// resyncs before resending. The returned error wraps core.ErrServerDown
// (and core.ErrRetryBudgetExhausted when retries are spent).
func (c *Client) edgeRoundTrip(ctx context.Context, e *wire.Envelope) (*wire.Envelope, error) {
	if c.edgeAddr == "" {
		return nil, errors.New("mobile: not connected")
	}
	var resp *wire.Envelope
	err := c.retry.Do(ctx, "edge round trip", func(ctx context.Context) error {
		if c.edge == nil {
			if err := c.redialEdge(ctx); err != nil {
				c.edgeRetries.Inc()
				c.retryInstant()
				return err
			}
		}
		r, err := c.edge.RoundTripContext(ctx, e)
		if err != nil {
			c.dropEdge()
			c.edgeRetries.Inc()
			c.retryInstant()
			return fmt.Errorf("%w: %w", core.ErrServerDown, err)
		}
		resp = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// ConnectContext attaches to an edge server: fetches the current plan from
// the master, checks which layers the edge already caches, and uploads one
// missing schedule unit per UploadStepContext call.
func (c *Client) ConnectContext(ctx context.Context, server geo.ServerID, edgeAddr string) error {
	c.dropEdge()
	c.met.Counter("connects_total").Inc()
	c.log.Info("connecting to edge", "server", int(server), "addr", edgeAddr)
	// One trace per attachment: the plan-fetch span is the parent of this
	// plan's upload-unit spans, and its context rides the request so the
	// master's dispatch span links to it.
	planTrace := c.tr.NewTrace()
	planSpan := c.tr.NewSpanID()
	planStart := c.tr.Now()
	resp, err := c.master.RoundTripContext(ctx, &wire.Envelope{
		Type:    wire.MsgPlanRequest,
		PlanReq: &wire.PlanReq{ClientID: c.cfg.ID, Server: server},
		Trace:   tracing.SpanContext{Trace: planTrace, Span: planSpan},
	})
	if err != nil {
		return fmt.Errorf("mobile: requesting plan: %w: %w", core.ErrMasterDown, err)
	}
	if resp.Type != wire.MsgPlanResponse || resp.PlanResp == nil {
		return fmt.Errorf("mobile: plan request failed: %s", ackError(resp))
	}
	if err := c.checkPlan(resp.PlanResp); err != nil {
		return err
	}
	c.tr.RecordWith(planTrace, planSpan, 0, tracing.StagePlan, c.node, planStart, c.tr.Now())
	c.upTrace, c.upRoot = planTrace, planSpan
	c.server = server
	c.edgeAddr = edgeAddr
	// The response envelope aliases the master conn's receive scratch and
	// is overwritten by the next exchange; the plan outlives it.
	c.plan = resp.PlanResp.Clone()
	c.planReady = true
	c.chainBroken = false
	c.uploaded.Clear()

	// Dial and learn which plan layers the edge already caches (hit/miss
	// check); redialEdge performs exactly that resync, under retry, and on
	// success leaves the split recomputed from what the edge holds.
	err = c.retry.Do(ctx, "edge connect", func(ctx context.Context) error {
		if err := c.redialEdge(ctx); err != nil {
			c.edgeRetries.Inc()
			return err
		}
		return nil
	})
	if err != nil {
		// No edge: the previous attachment's split must not survive.
		c.recomputeSplit()
		return fmt.Errorf("mobile: dialing edge: %w", err)
	}
	return nil
}

// checkPlan rejects a plan naming layers the model does not have: plan
// layer IDs come off the wire and index the model and the uploaded bitset.
func (c *Client) checkPlan(p *wire.PlanResp) error {
	for _, unit := range p.UploadOrder {
		if err := c.model.CheckLayers(unit); err != nil {
			return fmt.Errorf("mobile: bad plan: %w", err)
		}
	}
	if err := c.model.CheckLayers(p.ServerLayers); err != nil {
		return fmt.Errorf("mobile: bad plan: %w", err)
	}
	return nil
}

// ServerLayers returns a copy of the current plan's server-side layer set
// (what the edge will execute once uploaded), or nil before a plan is
// fetched.
func (c *Client) ServerLayers() []dnn.LayerID {
	if !c.planReady {
		return nil
	}
	out := make([]dnn.LayerID, len(c.plan.ServerLayers))
	copy(out, c.plan.ServerLayers)
	return out
}

// Chain returns a copy of the current plan's multi-hop chain (empty for
// single-split plans or before a plan is fetched).
func (c *Client) Chain() []wire.PlanHop {
	if !c.planReady {
		return nil
	}
	return append([]wire.PlanHop(nil), c.plan.Chain...)
}

// ChainActive reports whether queries currently ride a multi-hop chain
// (false once a mid-chain failure latched the degrade to single-split).
func (c *Client) ChainActive() bool { return c.chainUsable() }

// CacheState reports how many of the plan's server-side layers are already
// available at the edge versus the total — all present is the paper's
// "hit", none is a "miss".
func (c *Client) CacheState() (present, total int) {
	if !c.planReady {
		return 0, 0
	}
	for _, id := range c.plan.ServerLayers {
		if c.uploaded.Has(id) {
			present++
		}
	}
	return present, len(c.plan.ServerLayers)
}

// UploadStepContext uploads the next missing schedule unit to the edge
// server — the streaming upload with one unit in flight and a one-unit
// limit — so queries can be interleaved between units. It returns false
// when nothing remains to upload.
func (c *Client) UploadStepContext(ctx context.Context) (bool, error) {
	n, err := c.upload(ctx, 1, 1)
	return n > 0, err
}

// uploadUnit is one pending schedule unit: the not-yet-uploaded layers of
// one entry of the plan's UploadOrder, plus its in-flight span state (the
// span is opened at send and recorded when the cumulative ack lands).
type uploadUnit struct {
	layers []dnn.LayerID
	bytes  int64
	span   tracing.SpanID
	start  time.Duration
}

// pendingUnits lists the first limit schedule units still missing at the
// edge, in plan order.
func (c *Client) pendingUnits(limit int) []uploadUnit {
	units := make([]uploadUnit, 0, min(limit, len(c.plan.UploadOrder)))
	for _, unit := range c.plan.UploadOrder {
		if len(units) == limit {
			break
		}
		var u uploadUnit
		for _, id := range unit {
			if !c.uploaded.Has(id) {
				u.layers = append(u.layers, id)
				u.bytes += c.model.Layer(id).WeightBytes
			}
		}
		if len(u.layers) > 0 {
			units = append(units, u)
		}
	}
	return units
}

// permanentError marks a failure that must not be retried: the edge
// answered, and the answer was a rejection or a protocol violation, not a
// transport fault.
type permanentError struct{ err error }

func (p permanentError) Error() string { return p.err.Error() }
func (p permanentError) Unwrap() error { return p.err }

// streamPending pushes the first `limit` pending units over the current
// edge connection with up to `window` units in flight, consuming cumulative
// acks as they arrive. It marks units uploaded as their acks land and
// returns how many completed; on a transport error the caller reconnects,
// resyncs, and streams whatever is still missing.
func (c *Client) streamPending(ctx context.Context, window, limit int) (int, error) {
	units := c.pendingUnits(limit)
	completed := 0
	next, acked := 0, 0
	for acked < len(units) {
		// Fill the window before blocking on an ack: this is the whole
		// point — ack latency overlaps with later sends.
		for next < len(units) && next-acked < window {
			u := &units[next]
			u.span = c.tr.NewSpanID()
			u.start = c.tr.Now()
			err := c.edge.SendContext(ctx, &wire.Envelope{
				Type:   wire.MsgUploadUnit,
				Upload: &wire.Upload{ClientID: c.cfg.ID, Layers: u.layers, Seq: int64(next)},
				Trace:  tracing.SpanContext{Trace: c.upTrace, Span: u.span},
			})
			if err != nil {
				return completed, err
			}
			next++
		}
		resp, err := c.edge.RecvContext(ctx)
		if err != nil {
			return completed, err
		}
		if resp.Type != wire.MsgUploadAck || resp.Ack == nil {
			return completed, permanentError{fmt.Errorf("mobile: unexpected %v mid-upload", resp.Type)}
		}
		if !resp.Ack.OK {
			return completed, permanentError{fmt.Errorf("mobile: upload rejected: %s", resp.Ack.Error)}
		}
		// Acks are cumulative: seq N confirms every unit through N.
		hi := int(resp.Ack.Seq)
		if hi < acked || hi >= next {
			return completed, permanentError{fmt.Errorf("mobile: ack seq %d outside window [%d,%d)", hi, acked, next)}
		}
		for ; acked <= hi; acked++ {
			u := units[acked]
			c.tr.RecordWith(c.upTrace, u.span, c.upRoot, tracing.StageUploadUnit, c.node, u.start, c.tr.Now())
			c.uploaded.AddAll(u.layers)
			c.met.Counter("uploads_total").Inc()
			c.met.Counter("upload_bytes_total").Add(u.bytes)
			completed++
		}
	}
	return completed, nil
}

// UploadAllContext streams every pending schedule unit to the edge with a
// windowed-ack pipeline: up to Config.UploadWindow units are in flight
// before the first ack is awaited, so on a high-latency link the upload
// costs ~1 RTT instead of one RTT per unit (UploadStepContext's lockstep
// cost). It returns the number of units uploaded by this call.
func (c *Client) UploadAllContext(ctx context.Context) (int, error) {
	window := c.cfg.UploadWindow
	if window <= 0 {
		window = DefaultUploadWindow
	}
	return c.upload(ctx, window, math.MaxInt)
}

// upload streams up to limit pending schedule units with up to window in
// flight. Transient failures reconnect-and-resume under the retry policy:
// the uploaded set is resynced from the edge's cache via MsgHasRequest, so
// units that landed before the drop — acked or not — are never resent.
func (c *Client) upload(ctx context.Context, window, limit int) (int, error) {
	if !c.planReady || c.edgeAddr == "" {
		return 0, errors.New("mobile: not connected")
	}
	done := 0
	var permErr error
	err := c.retry.Do(ctx, "upload", func(ctx context.Context) error {
		if c.edge == nil {
			if err := c.redialEdge(ctx); err != nil {
				c.edgeRetries.Inc()
				c.retryInstant()
				return err
			}
		}
		n, err := c.streamPending(ctx, window, limit-done)
		done += n
		if err == nil {
			return nil
		}
		var perm permanentError
		if errors.As(err, &perm) {
			permErr = err
			return nil // stop retrying; surfaced below
		}
		c.dropEdge()
		c.edgeRetries.Inc()
		c.retryInstant()
		return fmt.Errorf("%w: %w", core.ErrServerDown, err)
	})
	c.recomputeSplit()
	if err == nil {
		err = permErr
	}
	if err != nil {
		return done, fmt.Errorf("mobile: uploading: %w", err)
	}
	return done, nil
}

// recomputeSplit refreshes the query decomposition from the uploaded set.
func (c *Client) recomputeSplit() {
	loc := partition.AllClient(c.model)
	for id := range loc {
		if c.uploaded.Has(dnn.LayerID(id)) {
			loc[id] = partition.AtServer
		}
	}
	c.split = partition.Decompose(c.prof, loc)
}

// QueryContext runs one collaborative inference: client-side layers
// locally (as a scaled sleep), server-side layers at the edge — the plan's
// multi-hop chain while it is usable, its single split otherwise. It
// returns the simulated end-to-end latency.
//
// A chain that fails mid-query is latched broken and the same call
// degrades to the single split. When the edge stops answering, the retry
// policy redials with backoff; once the budget is spent the query degrades
// to fully client-local execution and returns a VALID latency together
// with an error wrapping core.ErrLocalFallback — callers that accept
// degraded service check errors.Is(err, core.ErrLocalFallback) and use the
// result.
func (c *Client) QueryContext(ctx context.Context) (time.Duration, error) {
	if c.chainUsable() {
		p := c.plan
		lat, err := c.query(ctx, route{
			pre: time.Duration(p.ChainClientPreNs), first: p.Chain[0], next: p.Chain[1:],
			down: p.ChainDownBytes, post: time.Duration(p.ChainClientPostNs),
		})
		if !errors.Is(err, errChainBroken) {
			return lat, err
		}
	}
	sp := &c.split
	return c.query(ctx, route{
		pre:   sp.ClientTime,
		first: wire.PlanHop{ServerBaseNs: int64(sp.ServerBase), Intensity: sp.Intensity, InBytes: sp.UpBytes},
		down:  sp.DownBytes,
	})
}

// route is one query's shape: the client work before and after the
// server stages, the first stage (run by the attached edge), the stages
// after it (empty for a single split), and the bytes that come back.
type route struct {
	pre, post time.Duration
	first     wire.PlanHop
	next      []wire.PlanHop
	down      int64
}

// errChainBroken reports a chain query that failed mid-chain and was
// latched broken; QueryContext answers it by degrading to the split.
var errChainBroken = errors.New("mobile: chain broken")

// chainUsable reports whether queries should ride the plan's multi-hop
// chain: the plan carries one, no earlier query broke it, and the chain
// starts at the edge this client is attached to (the master builds it that
// way; a reordered chain after a head failure falls back to single-split).
func (c *Client) chainUsable() bool {
	return c.planReady && !c.chainBroken && len(c.plan.Chain) >= 2 &&
		c.edgeAddr != "" && c.plan.Chain[0].Addr == c.edgeAddr
}

// query runs one inference along r: the client prefix locally, then one
// MsgExecRequest to the attached edge, which runs the first stage and
// relays r.next, then the client suffix. One trace per query; its context
// rides the request, so every stage's spans chain back under this root.
func (c *Client) query(ctx context.Context, r route) (time.Duration, error) {
	chain := len(r.next) > 0
	qt := c.tr.NewTrace()
	root := c.tr.NewSpanID()
	qStart := c.tr.Now()
	c.sleep(r.pre)
	c.tr.Record(qt, root, tracing.StageClientCompute, c.node, qStart, c.tr.Now())
	total := r.pre
	if r.first.ServerBaseNs > 0 {
		if c.edgeAddr == "" {
			return 0, errors.New("mobile: plan offloads but no edge connection")
		}
		resp, err := c.edgeRoundTrip(ctx, &wire.Envelope{
			Type: wire.MsgExecRequest,
			ExecReq: &wire.ExecReq{
				ClientID:     c.cfg.ID,
				ServerBaseNs: r.first.ServerBaseNs,
				Intensity:    r.first.Intensity,
				InputBytes:   r.first.InBytes,
				Next:         r.next,
			},
			Trace: tracing.SpanContext{Trace: qt, Span: root},
		})
		if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			return 0, fmt.Errorf("mobile: query: %w", err)
		}
		// An exec time below zero is no answer: taking it would report a
		// latency below the client's own work.
		failed := err != nil || resp.Type != wire.MsgExecResponse || resp.ExecResp == nil || resp.ExecResp.ExecNs < 0
		switch {
		case failed && chain:
			// Transport failure, or a hop's error ack (a dead downstream
			// server): latch the chain broken; the caller degrades.
			if err == nil {
				err = fmt.Errorf("mobile: chain rejected: %s", execError(resp))
			}
			c.chainBroken = true
			c.met.Counter("chain_failovers_total").Inc()
			fbNow := c.tr.Now()
			c.tr.Record(qt, root, tracing.StageFailover, c.node, fbNow, fbNow)
			c.tr.RecordWith(qt, root, 0, tracing.StageQuery, c.node, qStart, c.tr.Now())
			c.log.Warn("chain query degraded to single split", "err", err)
			return 0, errChainBroken
		case err != nil:
			lat, ferr := c.localFallback(r.pre, err)
			c.tr.RecordWith(qt, root, 0, tracing.StageQuery, c.node, qStart, c.tr.Now())
			return lat, ferr
		case failed:
			return 0, fmt.Errorf("mobile: query failed: %s", execError(resp))
		}
		link := partition.LabWiFi()
		total += link.UpTime(r.first.InBytes) + time.Duration(resp.ExecResp.ExecNs) + link.DownTime(r.down)
	}
	if r.post > 0 {
		postStart := c.tr.Now()
		c.sleep(r.post)
		c.tr.Record(qt, root, tracing.StageClientCompute, c.node, postStart, c.tr.Now())
		total += r.post
	}
	c.tr.RecordWith(qt, root, 0, tracing.StageQuery, c.node, qStart, c.tr.Now())
	c.queries.Inc()
	if chain {
		c.chainQueries.Inc()
	}
	c.queryLatency.ObserveDuration(total)
	return total, nil
}

// sleep realizes client-side work in scaled wall time.
func (c *Client) sleep(d time.Duration) {
	if c.cfg.TimeScale > 0 && d > 0 {
		time.Sleep(time.Duration(float64(d) * c.cfg.TimeScale))
	}
}

// localFallback completes a query on the client alone after the edge went
// unreachable: the layers planned for the server run locally too. The
// client work already ran (ran), so only the remainder is realized in wall
// time.
func (c *Client) localFallback(ran time.Duration, cause error) (time.Duration, error) {
	total := c.prof.TotalClientTime()
	c.sleep(total - ran)
	c.met.Counter("local_fallbacks_total").Inc()
	c.queries.Inc()
	c.queryLatency.ObserveDuration(total)
	fbNow := c.tr.Now()
	c.tr.Record(c.tr.NewTrace(), 0, tracing.StageLocalFallback, c.node, fbNow, fbNow)
	c.log.Warn("query degraded to local execution", "err", cause)
	return total, fmt.Errorf("mobile: query: %w: %w", core.ErrLocalFallback, cause)
}

// EstimatedLatency returns the modelled latency of the route queries
// currently take: the master's estimate of the chain while the chain is
// active, the current split's (without contention) otherwise.
func (c *Client) EstimatedLatency() time.Duration {
	if c.chainUsable() {
		return time.Duration(c.plan.EstLatencyNs)
	}
	return c.split.Latency(partition.LabWiFi(), 1)
}

// Package edged implements the live edge-server daemon: it owns a simulated
// GPU, caches clients' DNN layers with TTL eviction, executes offloaded
// layer work under contention, reports nvml-style statistics to the master,
// and pushes layers to peer edge servers when the master orders a proactive
// migration.
package edged

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"os"
	"sync"
	"time"

	"perdnn/internal/core"
	"perdnn/internal/dnn"
	"perdnn/internal/gpusim"
	"perdnn/internal/obs"
	"perdnn/internal/obs/tracing"
	"perdnn/internal/partition"
	"perdnn/internal/profile"
	"perdnn/internal/wire"
)

// Config parameterizes an edge daemon.
type Config struct {
	// Model is the zoo model whose layers this deployment serves (used to
	// size layer bitsets and price weights).
	Model dnn.ModelName
	// TTL is the cache lifetime of migrated/uploaded layers in modelled
	// time, as the simulator prices it: it lasts TTL × TimeScale of wall
	// time (1 s for the default 100 s at 0.01).
	TTL time.Duration
	// TimeScale compresses modelled durations into wall time (0.01 runs
	// 100x faster than real time): the daemon sleeps a duration times it,
	// and its clock reads wall time divided by it. Zero disables sleeping
	// entirely, and the clock is then wall time.
	TimeScale float64
	// GPUSeed seeds the simulated GPU.
	GPUSeed int64
	// Logger receives the daemon's structured log output; nil defaults to
	// info-level logging on stderr tagged with component=edged.
	Logger *slog.Logger
	// Tracer records request-scoped spans (exec queue/compute, uploads,
	// peer migrations); incoming envelopes that carry a span context link
	// this daemon's spans under the client's or master's trace. Nil
	// disables tracing.
	Tracer *tracing.Tracer
	// Node names this daemon's span track (e.g. "server/3"); empty
	// defaults to "edged". Only meaningful when Tracer is set.
	Node string
}

// DefaultConfig returns a demo-friendly configuration.
func DefaultConfig(model dnn.ModelName) Config {
	return Config{
		Model:     model,
		TTL:       100 * time.Second,
		TimeScale: 0.01,
		GPUSeed:   1,
	}
}

// Server is a running edge daemon.
type Server struct {
	cfg   Config
	model *dnn.Model
	// gpuMu serializes the connection goroutines' GPU calls (a GPU is
	// not safe for concurrent use). Each call is its own critical
	// section; it is never held across a sleep.
	gpuMu sync.Mutex
	gpu   *gpusim.GPU
	start time.Time
	log   *slog.Logger
	met   *obs.Registry
	tr    *tracing.Tracer
	node  string     // span track name
	peers *wire.Pool // reused conns for migration pushes to peer edges

	// maxBaseNs and maxInBytes bound an exec stage by the whole model: its
	// total contention-free server time, and its input plus every layer's
	// output (a branchy cut ships several tensors at once).
	maxBaseNs, maxInBytes int64

	// Handles of the per-request metrics, resolved once.
	requests, execs, forwards  *obs.Counter
	uploads, uploadBytes       *obs.Counter
	migrations, migrationBytes *obs.Counter
	execNs                     *obs.Histogram
	entries                    *obs.Gauge // cache.Len()

	// mu guards the layer cache, which runs on the daemon clock (now).
	mu    sync.Mutex
	cache *core.LayerCache

	srv wire.Server // accept loop, per-connection loop, shutdown
}

// New creates an edge daemon (not yet serving).
func New(cfg Config) (*Server, error) {
	m, err := dnn.ZooModel(cfg.Model)
	if err != nil {
		return nil, err
	}
	if cfg.TTL <= 0 {
		return nil, errors.New("edged: TTL must be positive")
	}
	logger := cfg.Logger
	if logger == nil {
		logger = obs.NewLogger(os.Stderr, slog.LevelInfo, "edged")
	}
	node := cfg.Node
	if node == "" {
		node = "edged"
	}
	dev := profile.ServerTitanXp()
	topo := m.Topo()
	maxIn := topo.InBytes
	for _, b := range topo.OutBytes {
		maxIn += b
	}
	s := &Server{
		cfg:        cfg,
		model:      m,
		maxBaseNs:  int64(dev.ModelTime(m)),
		maxInBytes: maxIn,
		gpu:        gpusim.New(dev, gpusim.DefaultParams(), cfg.GPUSeed),
		start:      time.Now(),
		log:        logger,
		met:        obs.NewRegistry(),
		tr:         cfg.Tracer,
		node:       node,
		cache:      core.NewLayerCache(m.NumLayers(), cfg.TTL),
	}
	s.srv = wire.Server{
		Name: "edged",
		Log:  logger,
		Open: func() (wire.Dispatch, func()) {
			reply := new(execReply)
			return func(ctx context.Context, req *wire.Envelope) *wire.Envelope {
				return s.dispatch(ctx, req, reply)
			}, nil
		},
		Shutdown: func() {
			if err := s.peers.Close(); err != nil {
				s.log.Warn("closing peer pool", "err", err)
			}
		},
	}
	s.requests = s.met.Counter("requests_total")
	s.execs = s.met.Counter("execs_total")
	s.forwards = s.met.Counter("forwards_total")
	s.uploads = s.met.Counter("uploads_total")
	s.uploadBytes = s.met.Counter("upload_bytes_total")
	s.migrations = s.met.Counter("migrations_total")
	s.migrationBytes = s.met.Counter("migration_bytes_total")
	s.execNs = s.met.Histogram("exec_ns")
	s.entries = s.met.Gauge("cache_entries")
	s.peers = wire.NewRegisteredPool(s.met, "peer")
	return s, nil
}

// Metrics exposes the daemon's metrics registry (requests, uploads, execs,
// peer migrations, peer-pool connection reuse) for the -debug-addr
// endpoint.
func (s *Server) Metrics() *obs.Registry { return s.met }

// Tracer exposes the daemon's span recorder (nil when tracing is off).
func (s *Server) Tracer() *tracing.Tracer { return s.tr }

// traceRoot resolves the trace and parent span for a request: the
// propagated context when the envelope carried one, otherwise a fresh
// local trace (so an untraced client still yields inspectable spans).
func (s *Server) traceRoot(rc tracing.SpanContext) (tracing.TraceID, tracing.SpanID) {
	if rc.Trace != 0 {
		return rc.Trace, rc.Span
	}
	return s.tr.NewTrace(), 0
}

// now returns the daemon clock, the modelled time since New that the GPU
// model and the layer cache run on: wall time elapsed divided by
// TimeScale, or wall time at TimeScale 0.
func (s *Server) now() time.Duration {
	d := time.Since(s.start)
	if s.cfg.TimeScale > 0 {
		d = time.Duration(float64(d) / s.cfg.TimeScale)
	}
	return d
}

// sleep realizes a modelled duration in scaled wall time.
func (s *Server) sleep(d time.Duration) {
	if s.cfg.TimeScale <= 0 || d <= 0 {
		return
	}
	time.Sleep(time.Duration(float64(d) * s.cfg.TimeScale))
}

// ServeContext accepts connections on ln until Close is called or ctx is
// canceled. Connection handlers — including the peer dials that proactive
// migration orders trigger — inherit ctx, so canceling it interrupts
// in-flight exchanges, closes the listener, and drains.
func (s *Server) ServeContext(ctx context.Context, ln net.Listener) error {
	return s.srv.ServeContext(ctx, ln)
}

// Close stops the daemon. It is idempotent and safe to call concurrently
// with ServeContext's own context-driven shutdown.
func (s *Server) Close() error { return s.srv.Close() }

// execReply is one connection's MsgExecResponse, reused from query to
// query: the serve loop encodes a response before it receives the next
// request, so nothing reads the previous one by then.
type execReply struct {
	env  wire.Envelope
	body wire.ExecResp
}

func (r *execReply) set(exec time.Duration) *wire.Envelope {
	r.body = wire.ExecResp{ExecNs: int64(exec)}
	r.env = wire.Envelope{Type: wire.MsgExecResponse, ExecResp: &r.body}
	return &r.env
}

func (s *Server) dispatch(ctx context.Context, req *wire.Envelope, reply *execReply) *wire.Envelope {
	s.requests.Inc()
	switch req.Type {
	case wire.MsgStatsRequest:
		now := s.now()
		s.gpuMu.Lock()
		st := s.gpu.Sample(now)
		s.gpuMu.Unlock()
		return &wire.Envelope{Type: wire.MsgStatsResponse, Stats: &wire.StatsMsg{Sample: &st}}
	case wire.MsgUploadUnit:
		// A client's streaming upload or a peer's migration push. The ack
		// echoes the unit's sequence number so the client can run a
		// windowed pipeline (acks are cumulative — units are processed in
		// arrival order, so acking seq N confirms everything through N).
		if req.Upload == nil {
			return &wire.Envelope{Type: wire.MsgUploadAck,
				Ack: &wire.Ack{OK: false, Error: "edged: upload without body"}}
		}
		seq := req.Upload.Seq
		if err := s.uploadTraced(req.Upload, req.Trace); err != nil {
			return &wire.Envelope{Type: wire.MsgUploadAck,
				Ack: &wire.Ack{OK: false, Error: err.Error(), Seq: seq}}
		}
		return &wire.Envelope{Type: wire.MsgUploadAck, Ack: &wire.Ack{OK: true, Seq: seq}}
	case wire.MsgExecRequest:
		if req.ExecReq == nil {
			return wire.NewAck(errors.New("edged: exec without body"))
		}
		return s.exec(ctx, req.ExecReq, req.Trace, reply)
	case wire.MsgHasRequest:
		if req.Has == nil {
			return wire.NewAck(errors.New("edged: has without body"))
		}
		return s.has(req.Has)
	case wire.MsgMigrateRequest:
		if req.Migrate == nil {
			return wire.NewAck(errors.New("edged: migrate without body"))
		}
		return wire.NewCountAck(s.migrate(ctx, req.Migrate, req.Trace))
	default:
		return wire.NewAck(fmt.Errorf("edged: unexpected message type %d", req.Type))
	}
}

// uploadTraced is upload plus a span on this daemon's track covering the
// cache claim and the realized transfer, linked under the sender's trace
// when the envelope carried one.
func (s *Server) uploadTraced(u *wire.Upload, rc tracing.SpanContext) error {
	trace, parent := s.traceRoot(rc)
	start := s.tr.Now()
	err := s.upload(u)
	s.tr.Record(trace, parent, tracing.StageUploadUnit, s.node, start, s.tr.Now())
	return err
}

// upload stores declared layers, realizing the transfer time. Pricing is
// idempotent at the layer level: layers already cached cost nothing, so a
// client that resends a unit whose delivery it could not confirm (a
// connection killed between delivery and ack) is not double-charged —
// the cache claim under the lock is the exactly-once point, even when an
// old connection's handler is still draining buffered units concurrently
// with a resend on a fresh one.
func (s *Server) upload(u *wire.Upload) error {
	// Layer IDs come off the wire and index the cache bitsets and the model
	// unchecked from here on.
	if err := s.model.CheckLayers(u.Layers); err != nil {
		return err
	}
	added := s.addLayers(u.ClientID, u.Layers)
	if len(added) == 0 {
		s.log.Debug("layers already cached", "client", u.ClientID, "layers", len(u.Layers))
		return nil
	}
	bytes := s.layerBytes(added)
	s.uploads.Inc()
	s.uploadBytes.Add(bytes)
	s.log.Debug("layers uploaded", "client", u.ClientID, "layers", len(added), "bytes", bytes)
	s.sleep(s.wireTime(bytes))
	return nil
}

func (s *Server) layerBytes(ids []dnn.LayerID) int64 {
	var sum int64
	for _, id := range ids {
		sum += s.model.Layer(id).WeightBytes
	}
	return sum
}

// addLayers claims ids in the client's cache entry and returns the subset
// that was newly added (not already live in the cache).
func (s *Server) addLayers(client int, ids []dnn.LayerID) []dnn.LayerID {
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	set := s.cache.Claim(now, client)
	s.entries.Set(int64(s.cache.Len()))
	added := make([]dnn.LayerID, 0, len(ids))
	for _, id := range ids {
		if set.Has(id) {
			continue
		}
		set.Add(id)
		added = append(added, id)
	}
	return added
}

// cachedLayers returns a copy of the client's live cached layers, taken
// under the lock: an upload for the same client may be adding to the entry
// while the caller reads.
func (s *Server) cachedLayers(client int) (dnn.LayerSet, bool) {
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	set, ok := s.cache.Get(now, client)
	if !ok {
		return dnn.LayerSet{}, false
	}
	return set.Clone(), true
}

// exec runs one query stage under the live GPU load — a single split's
// server-side layers, or one hop of a chain — and relays the rest of the
// chain when the request carries one. The reply covers this stage plus
// everything downstream, so the client sees a single answer per query.
// Two spans on this daemon's track — exec.queue (input transfer and wait
// for the GPU) and exec.compute (kernel time) — link under the client's
// query trace when the request carried a span context.
func (s *Server) exec(ctx context.Context, r *wire.ExecReq, rc tracing.SpanContext, reply *execReply) *wire.Envelope {
	if fault := s.execFault(r); fault != "" {
		s.met.Counter("exec_refused_" + fault + "_total").Inc()
		return wire.NewAck(fmt.Errorf("edged: %w: %s", core.ErrExecRefused, fault))
	}
	trace, parent := s.traceRoot(rc)
	total := s.runOnGPU(trace, parent, r.InputBytes, r.ServerBaseNs, r.Intensity)
	if len(r.Next) > 0 {
		down, err := s.relay(ctx, r, trace, parent)
		if err != nil {
			s.met.Counter("forward_failures_total").Inc()
			return wire.NewAck(err)
		}
		total += down
	}
	return reply.set(total)
}

// execFault names what no request for the model could carry, or returns
// "": a Next list longer than the model has layers ("hops") or naming an
// address twice ("repeat"), or a stage — this server's or any hop's —
// that stageFault refuses.
func (s *Server) execFault(r *wire.ExecReq) string {
	if len(r.Next) > s.model.NumLayers() {
		return "hops"
	}
	if f := s.stageFault(r.ServerBaseNs, r.InputBytes, r.Intensity); f != "" {
		return f
	}
	for i, h := range r.Next {
		if f := s.stageFault(h.ServerBaseNs, h.InBytes, h.Intensity); f != "" {
			return f
		}
		for _, g := range r.Next[:i] {
			if g.Addr == h.Addr {
				return "repeat"
			}
		}
	}
	return ""
}

// stageFault refuses a stage whose base time ("base") or input ("input")
// lies outside [0, the whole model's], or whose intensity is NaN or
// outside [0, 1] ("intensity").
func (s *Server) stageFault(baseNs, inBytes int64, intensity float64) string {
	switch {
	case baseNs < 0 || baseNs > s.maxBaseNs:
		return "base"
	case inBytes < 0 || inBytes > s.maxInBytes:
		return "input"
	case !(intensity >= 0 && intensity <= 1): // NaN fails both
		return "intensity"
	}
	return ""
}

// runOnGPU realizes one stage of a query on this server: the ingress
// transfer of inBytes (the sender accounts its duration; this side realizes
// the wall time), the wait for the GPU, and the kernel time under the live
// load. It records the exec.queue and exec.compute spans under parent and
// returns the kernel time.
func (s *Server) runOnGPU(trace tracing.TraceID, parent tracing.SpanID, inBytes, baseNs int64, intensity float64) time.Duration {
	qStart := s.tr.Now()
	s.sleep(s.wireTime(inBytes))
	now := s.now()
	s.gpuMu.Lock()
	s.gpu.Begin(now)
	s.gpuMu.Unlock()
	cStart := s.tr.Now()
	s.tr.Record(trace, parent, tracing.StageExecQueue, s.node, qStart, cStart)
	now = s.now()
	s.gpuMu.Lock()
	exec := s.gpu.ExecTime(time.Duration(baseNs), intensity, now)
	s.gpuMu.Unlock()
	s.sleep(exec)
	s.gpuMu.Lock()
	s.gpu.End()
	s.gpuMu.Unlock()
	s.tr.Record(trace, parent, tracing.StageExecCompute, s.node, cStart, s.tr.Now())
	s.execs.Inc()
	s.execNs.ObserveDuration(exec)
	return exec
}

// wireTime prices b bytes against the access link's uplink: serialization
// time only, without the RTT/2 that partition.Link adds.
func (s *Server) wireTime(b int64) time.Duration {
	return time.Duration(float64(b) * 8 / partition.LabWiFi().UpBps * float64(time.Second))
}

// relay sends the rest of r's chain to its next hop and returns what the
// hop adds to the query: the edge-to-edge transfer of its input, priced on
// the backhaul as the planner and the simulator price it (the receiving
// hop realizes the wall time), plus the hop's reply. The span context rides
// the relay (the migrate pattern): the next hop's spans parent under this
// node's transfer.hop span, chaining every stage under the client's query
// trace.
func (s *Server) relay(ctx context.Context, r *wire.ExecReq, trace tracing.TraceID, parent tracing.SpanID) (time.Duration, error) {
	next := r.Next[0]
	span := s.tr.NewSpanID()
	hStart := s.tr.Now()
	ctx, cancel := context.WithTimeout(ctx, wire.DefaultRecvTimeout)
	defer cancel()
	s.forwards.Inc()
	resp, err := s.peers.RoundTrip(ctx, next.Addr, &wire.Envelope{
		Type: wire.MsgExecRequest,
		ExecReq: &wire.ExecReq{ClientID: r.ClientID, ServerBaseNs: next.ServerBaseNs,
			Intensity: next.Intensity, InputBytes: next.InBytes, Next: r.Next[1:]},
		Trace: tracing.SpanContext{Trace: trace, Span: span},
	})
	if err != nil {
		return 0, fmt.Errorf("edged: forwarding to %s: %w: %w", next.Addr, core.ErrServerDown, err)
	}
	if resp.Type != wire.MsgExecResponse || resp.ExecResp == nil {
		msg := "no ack"
		if resp.Ack != nil {
			msg = resp.Ack.Error
		}
		return 0, fmt.Errorf("edged: hop %s failed: %s", next.Addr, msg)
	}
	// A time below zero is no answer: added to this node's, it would pass
	// on a total that is wrong, or negative.
	if resp.ExecResp.ExecNs < 0 {
		return 0, fmt.Errorf("edged: hop %s answered a negative exec time %d ns", next.Addr, resp.ExecResp.ExecNs)
	}
	s.tr.RecordWith(trace, span, parent, tracing.StageTransferHop, s.node, hStart, s.tr.Now())
	return partition.DefaultBackhaul().UpTime(next.InBytes) + time.Duration(resp.ExecResp.ExecNs), nil
}

// has filters the asked layers down to those cached.
func (s *Server) has(h *wire.Has) *wire.Envelope {
	if err := s.model.CheckLayers(h.Layers); err != nil {
		return wire.NewAck(err)
	}
	present := make([]dnn.LayerID, 0, len(h.Layers))
	if cached, ok := s.cachedLayers(h.ClientID); ok {
		for _, id := range h.Layers {
			if cached.Has(id) {
				present = append(present, id)
			}
		}
	}
	return &wire.Envelope{Type: wire.MsgHasResponse, Has: &wire.Has{ClientID: h.ClientID, Layers: present}}
}

// migrate pushes the client's cached subset of the requested layers to a
// peer edge server ("if the current edge server does not have all of the
// server-side layers, it sends layers as many as possible") and returns how
// many it pushed; the count rides the order's ack, so the master can tell a
// whole plan delivered from a partial or empty push it has to order again.
func (s *Server) migrate(ctx context.Context, m *wire.Migrate, rc tracing.SpanContext) (int, error) {
	if err := s.model.CheckLayers(m.Layers); err != nil {
		return 0, err
	}
	cached, ok := s.cachedLayers(m.ClientID)
	if !ok {
		return 0, nil // nothing to send; not an error
	}
	send := make([]dnn.LayerID, 0, len(m.Layers))
	var bytes int64
	for _, id := range m.Layers {
		if cached.Has(id) {
			send = append(send, id)
			bytes += s.model.Layer(id).WeightBytes
		}
	}
	if len(send) == 0 {
		return 0, nil
	}
	s.migrations.Inc()
	s.migrationBytes.Add(bytes)
	s.log.Debug("migrating layers", "client", m.ClientID, "peer", m.PeerAddr,
		"layers", len(send), "bytes", bytes)
	ctx, cancel := context.WithTimeout(ctx, wire.DefaultSendTimeout)
	defer cancel()
	// The push span joins the master's order trace, and its context rides
	// the peer upload so the receiving daemon's span links under it too —
	// a full cross-node chain master → source edge → target edge.
	trace, parent := s.traceRoot(rc)
	span := s.tr.NewSpanID()
	start := s.tr.Now()
	// Migration pushes to the same few peers recur as clients move; the
	// pool reuses warm connections instead of dialing per order.
	// The push is a one-unit upload stream (Seq 0), the message a client
	// uploads with.
	resp, err := s.peers.RoundTrip(ctx, m.PeerAddr, &wire.Envelope{
		Type:   wire.MsgUploadUnit,
		Upload: &wire.Upload{ClientID: m.ClientID, Layers: send},
		Trace:  tracing.SpanContext{Trace: trace, Span: span},
	})
	if err != nil {
		return 0, fmt.Errorf("edged: migrating to %s: %w: %w", m.PeerAddr, core.ErrServerDown, err)
	}
	if resp.Type != wire.MsgUploadAck || resp.Ack == nil || !resp.Ack.OK {
		return 0, fmt.Errorf("edged: peer %s rejected migration", m.PeerAddr)
	}
	// An edge knows its peer by address only: the target's ID is on the
	// master's order span this push is parented to.
	s.tr.RecordWithAttrs(trace, span, parent, tracing.StageMigrate, s.node, start, s.tr.Now(),
		tracing.NewAttrs(m.ClientID, tracing.NoID, tracing.NoID, len(send), bytes))
	return len(send), nil
}

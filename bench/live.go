package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"perdnn/internal/dnn"
	"perdnn/internal/edged"
	"perdnn/internal/geo"
	"perdnn/internal/master"
	"perdnn/internal/mobile"
	"perdnn/internal/obs"
	"perdnn/internal/obs/tracing"
	"perdnn/internal/partition"
)

// liveSpec is what distinguishes the three live workloads.
type liveSpec struct {
	// sessions makes every client loop fresh-ID sessions that walk across
	// the cluster (live-handoff, live-chain); otherwise each client
	// attaches once and queries back-to-back (live-steady).
	sessions  bool
	maxHops   int
	objective partition.Objective
}

const (
	liveModel      = dnn.ModelInception
	liveEdges      = 7  // one hex cell and its six neighbours
	cellRadius     = 50 // metres, the master's default
	stepMetres     = 10 // trajectory step
	walkHalfLength = 90 // metres either side of the line's midpoint
	walkMaxOffset  = 30 // metres the line may pass off-centre
	queriesPerStep = 4  // queries after each trajectory point
	stageBenchDial = tracing.Stage("bench.dial")
	stageBenchRep  = tracing.Stage("bench.report")
	stageBenchAtt  = tracing.Stage("bench.attach")
	stageBenchUp   = tracing.Stage("bench.upload")
	stageBenchQry  = tracing.Stage("bench.query")
)

// quietLog drops daemon and client log output: formatting it would be
// charged to the program.
var quietLog = obs.NewLogger(io.Discard, slog.LevelError+1, "bench")

// cluster is a master and its edge daemons serving on loopback TCP inside
// the bench process.
type cluster struct {
	master *master.Master
	model  *dnn.Model // liveModel, built once: the driver prices plans with it
	maddr  string
	edges  []*edged.Server
	addrs  map[geo.ServerID]string
	lns    []net.Listener
	cancel context.CancelFunc
	wg     sync.WaitGroup
	errs   chan error
}

// startCluster starts liveEdges edge daemons on adjacent cells and a
// master over them. TimeScale is 0 everywhere: simulated compute and
// transfer sleeps are off, so wall time is the program's own cost.
func startCluster(seed int64, spec liveSpec, tr *tracing.Tracer) (*cluster, error) {
	ctx, cancel := context.WithCancel(context.Background())
	c := &cluster{cancel: cancel, errs: make(chan error, liveEdges+1)} // one slot per daemon
	ok := false
	defer func() {
		if !ok {
			_ = c.close()
		}
	}()
	var err error
	if c.model, err = dnn.ZooModel(liveModel); err != nil {
		return nil, err
	}
	grid := geo.NewHexGrid(cellRadius)
	cells := append([]geo.HexCell{{}}, grid.Neighbors(geo.HexCell{})...)
	infos := make([]master.EdgeInfo, 0, liveEdges)
	for i, cell := range cells {
		cfg := edged.DefaultConfig(liveModel)
		cfg.TimeScale = 0
		cfg.GPUSeed = seed*100 + int64(i)
		cfg.Logger = quietLog
		cfg.Tracer = tr
		cfg.Node = fmt.Sprintf("server/%d", i)
		srv, err := edged.New(cfg)
		if err != nil {
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		c.edges = append(c.edges, srv)
		c.lns = append(c.lns, ln)
		c.serve(func() error { return srv.ServeContext(ctx, ln) })
		infos = append(infos, master.EdgeInfo{Addr: ln.Addr().String(), Location: grid.Center(cell)})
	}
	mcfg := master.DefaultConfig(infos)
	mcfg.MaxHops = spec.maxHops
	mcfg.Objective = spec.objective
	// EstimatorSeed stays the master's default: the offline training is the
	// program's own set-up, not an input, and which way it falls decides
	// whether most plans on live-chain are chains (query p50 20 or 29 us).
	mcfg.Logger = quietLog
	mcfg.Tracer = tr
	m, err := master.New(mcfg)
	if err != nil {
		return nil, err
	}
	c.master = m
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c.maddr = ln.Addr().String()
	c.lns = append(c.lns, ln)
	c.serve(func() error { return m.ServeContext(ctx, ln) })
	c.addrs = make(map[geo.ServerID]string, liveEdges)
	for _, info := range infos {
		c.addrs[m.Placement().ServerAt(info.Location)] = info.Addr
	}
	ok = true
	return c, nil
}

func (c *cluster) serve(fn func() error) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		if err := fn(); err != nil {
			c.errs <- err
		}
	}()
}

// close stops every daemon (and with them their pools) and waits for the
// serve goroutines to drain.
func (c *cluster) close() error {
	c.cancel()
	var first error
	if c.master != nil {
		first = c.master.Close()
	}
	for _, e := range c.edges {
		if err := e.Close(); err != nil && first == nil {
			first = err
		}
	}
	// A daemon closed before its ServeContext goroutine has stored the
	// listener never closes it and Accept blocks forever (set-up is
	// repeated back to back here, so that happens); close them here too.
	for _, ln := range c.lns {
		_ = ln.Close() // usually already closed by the daemon
	}
	c.wg.Wait()
	close(c.errs)
	for err := range c.errs {
		if first == nil {
			first = err
		}
	}
	return first
}

// counters sums the daemons' registry counters: "master.<name>" and
// "edged.<name>" (over all edges).
func (c *cluster) counters() map[string]int64 {
	out := make(map[string]int64, 64)
	for name, v := range c.master.Metrics().Snapshot().Counters {
		out["master."+name] = v
	}
	for _, e := range c.edges {
		for name, v := range e.Metrics().Snapshot().Counters {
			out["edged."+name] += v
		}
	}
	return out
}

// worker is one closed-loop client goroutine's state. Everything the hot
// loop writes is preallocated here.
type worker struct {
	id   int
	rng  *rand.Rand
	tr   *tracing.Tracer
	node string
	cl   *cluster
	from time.Time // ops finishing in [from, to] are measured
	to   time.Time

	query, attach, report, coldstart, step, register, upload samples
	// coldstart parts, one sample per session, for the coldstart budget.
	csAttach, csUpload, csQuery samples

	attempted, failed int64        // ops in the measured window
	ops               atomic.Int64 // succeeded ops in the measured window; the slice sampler reads it
	queries           int64        // succeeded queries in the measured window

	// Lifetime tallies for the correctness gate (warm-up included).
	sentSingle, sentHops int64
	coldAttaches         int64
	warmAttaches         int64
	hits                 int64
	planBytes            int64 // weight bytes of the plan's server layers
	planUnits            int64 // schedule units of one cold upload
	estErrSum            float64
	estErrN              int64
	// Sums over closed clients' registries.
	cliQueries, cliChainQueries, cliRetries, cliReconnects, cliFallbacks int64
	cliUploads, cliUploadBytes                                           int64
	problems                                                             []string
}

// mergeInto adds w's samples and tallies to all.
func (w *worker) mergeInto(all *worker) {
	for _, pair := range [][2]*samples{
		{&all.query, &w.query}, {&all.attach, &w.attach}, {&all.report, &w.report},
		{&all.coldstart, &w.coldstart}, {&all.step, &w.step}, {&all.register, &w.register},
		{&all.upload, &w.upload}, {&all.csAttach, &w.csAttach}, {&all.csUpload, &w.csUpload},
		{&all.csQuery, &w.csQuery},
	} {
		pair[0].merge(pair[1])
	}
	all.attempted += w.attempted
	all.failed += w.failed
	all.ops.Add(w.ops.Load())
	all.queries += w.queries
	all.sentSingle += w.sentSingle
	all.sentHops += w.sentHops
	all.coldAttaches += w.coldAttaches
	all.warmAttaches += w.warmAttaches
	all.hits += w.hits
	all.estErrSum += w.estErrSum
	all.estErrN += w.estErrN
	all.cliQueries += w.cliQueries
	all.cliChainQueries += w.cliChainQueries
	all.cliRetries += w.cliRetries
	all.cliReconnects += w.cliReconnects
	all.cliFallbacks += w.cliFallbacks
	all.cliUploads += w.cliUploads
	all.cliUploadBytes += w.cliUploadBytes
}

func newWorker(id int, o options, cl *cluster, tr *tracing.Tracer, window time.Duration) *worker {
	// About twice the queries/s one closed-loop client manages today. The
	// buffers are resident memory (peak_rss_mb), so they are not sized for
	// every imaginable speed: a faster program thins them (samples.add).
	const perSec = 60_000
	n := int(window.Seconds()*perSec) + 1024
	small := n/16 + 1024
	return &worker{
		id:        id,
		rng:       rand.New(rand.NewSource(o.seed*1000 + int64(id))),
		tr:        tr,
		node:      fmt.Sprintf("bench/%d", id),
		cl:        cl,
		query:     newSamples(n),
		attach:    newSamples(small),
		report:    newSamples(small),
		coldstart: newSamples(small),
		step:      newSamples(small),
		register:  newSamples(small),
		upload:    newSamples(small),
		csAttach:  newSamples(small),
		csUpload:  newSamples(small),
		csQuery:   newSamples(small),
	}
}

func (w *worker) problem(format string, args ...any) {
	if len(w.problems) < 8 {
		w.problems = append(w.problems, fmt.Sprintf(format, args...))
	}
}

// measured reports whether an op that ended at t counts.
func (w *worker) measured(t time.Time) bool { return !t.Before(w.from) && !t.After(w.to) }

// span records one bench-side span around a call into the mobile layer.
// Each gets a trace of its own; stitchBenchSpans later joins it to the
// client span it encloses.
func (w *worker) span(stage tracing.Stage, start time.Duration) {
	w.tr.Record(w.tr.NewTrace(), 0, stage, w.node, start, w.tr.Now())
}

// session is one client's attachment state as the driver sees it.
type session struct {
	c    *mobile.Client
	t0   time.Time    // DialContext start
	cur  geo.ServerID // attached server
	hops int64        // edge execs one query costs: chain length, or 1
	// Durations of the latest attach and its upload (0 on a hit).
	attachDur, uploadDur time.Duration
}

// dial registers a fresh client.
func (w *worker) dial(ctx context.Context, id int) (*session, error) {
	s := &session{t0: time.Now(), cur: geo.NoServer}
	s0 := w.tr.Now()
	c, err := mobile.DialContext(ctx, mobile.Config{
		ID:         id,
		Model:      liveModel,
		MasterAddr: w.cl.maddr,
		TimeScale:  0,
		Logger:     quietLog,
		Tracer:     w.tr,
	})
	w.span(stageBenchDial, s0)
	if err != nil {
		return nil, err
	}
	s.c = c
	return s, nil
}

// attachTo connects to a server and uploads what it lacks. first marks
// the first attach of a fresh client, which must be a miss.
func (w *worker) attachTo(ctx context.Context, s *session, server geo.ServerID, first bool) error {
	addr, ok := w.cl.addrs[server]
	if !ok {
		return fmt.Errorf("no edge for server %d", server)
	}
	t0 := time.Now()
	s0 := w.tr.Now()
	err := s.c.ConnectContext(ctx, server, addr)
	w.span(stageBenchAtt, s0)
	t1 := time.Now()
	if err != nil {
		return err
	}
	s.attachDur, s.uploadDur = t1.Sub(t0), 0
	present, total := s.c.CacheState()
	if total == 0 {
		return errors.New("plan offloads nothing")
	}
	switch {
	case first:
		w.coldAttaches++
		if present != 0 {
			w.problem("first attach of a fresh client found %d/%d layers cached", present, total)
		}
	default:
		w.warmAttaches++
		if present == total {
			w.hits++
		}
	}
	if present < total {
		s0 = w.tr.Now()
		units, err := s.c.UploadAllContext(ctx)
		w.span(stageBenchUp, s0)
		if err != nil {
			return err
		}
		s.uploadDur = time.Since(t1)
		if present == 0 {
			// Every edge idles at TimeScale 0, so every plan is the same
			// split; the pricing gate relies on it.
			var b int64
			for _, id := range s.c.ServerLayers() {
				b += w.cl.model.Layer(id).WeightBytes
			}
			if w.planBytes != 0 && b != w.planBytes {
				w.problem("plan weight bytes changed between attaches: %d then %d", w.planBytes, b)
			}
			w.planBytes, w.planUnits = b, int64(units)
		}
		if p, tot := s.c.CacheState(); p != tot {
			return fmt.Errorf("cache %d/%d after full upload", p, tot)
		}
	}
	s.cur, s.hops = server, 1
	if s.c.ChainActive() {
		s.hops = int64(len(s.c.Chain()))
	}
	return nil
}

// doQuery runs one query and tallies it. estimate also scores the
// client's latency estimate against the returned latency.
func (w *worker) doQuery(ctx context.Context, s *session, estimate bool) (time.Duration, error) {
	var est time.Duration
	if estimate {
		est = s.c.EstimatedLatency()
	}
	t0 := time.Now()
	s0 := w.tr.Now()
	lat, err := s.c.QueryContext(ctx)
	w.span(stageBenchQry, s0)
	t1 := time.Now()
	if err == nil && lat <= 0 {
		err = fmt.Errorf("query latency %v", lat)
	}
	if err != nil {
		return 0, err
	}
	if s.hops > 1 {
		w.sentHops += s.hops
	} else {
		w.sentSingle++
	}
	d := t1.Sub(t0)
	if w.measured(t1) {
		w.query.add(int64(d))
		w.queries++
	}
	if estimate {
		w.estErrSum += math.Abs(float64(est-lat)) / float64(lat)
		w.estErrN++
	}
	return d, nil
}

// coldStarted records a session's cold start once its first query after
// the full upload returned at t.
func (w *worker) coldStarted(s *session, t time.Time, firstQuery time.Duration) {
	w.coldstart.add(int64(t.Sub(s.t0)))
	w.csAttach.add(int64(s.attachDur))
	w.csUpload.add(int64(s.uploadDur))
	w.csQuery.add(int64(firstQuery))
}

// closeClient closes a client and folds its registry into the tallies.
func (w *worker) closeClient(c *mobile.Client) {
	if err := c.Close(); err != nil {
		w.problem("closing client: %v", err)
	}
	reg := c.Metrics()
	w.cliQueries += reg.Counter("queries_total").Value()
	w.cliChainQueries += reg.Counter("chain_queries_total").Value()
	w.cliRetries += reg.Counter("master_retries_total").Value() + reg.Counter("edge_retries_total").Value()
	// Every attach redials its edge once; only redials beyond that are
	// reconnects after a drop.
	w.cliReconnects += reg.Counter("reconnects_total").Value() - reg.Counter("connects_total").Value()
	w.cliFallbacks += reg.Counter("local_fallbacks_total").Value() + reg.Counter("chain_failovers_total").Value()
	w.cliUploads += reg.Counter("uploads_total").Value()
	w.cliUploadBytes += reg.Counter("upload_bytes_total").Value()
}

// opDone tallies one op that ended at t.
func (w *worker) opDone(t time.Time, err error) {
	if !w.measured(t) {
		return
	}
	w.attempted++
	if err != nil {
		w.failed++
		return
	}
	w.ops.Add(1)
}

// runSteady is the live-steady loop: register, attach to the worker's own
// edge, upload fully, then query back-to-back until the window closes.
// Its register, attach, upload and cold-start samples come from this one
// start-up, before the window.
func (w *worker) runSteady(ctx context.Context) {
	s, err := w.dial(ctx, w.id+1)
	if err != nil {
		w.problem("dial: %v", err)
		return
	}
	defer w.closeClient(s.c)
	w.register.add(int64(time.Since(s.t0)))
	server := geo.ServerID(w.id % w.cl.master.Placement().Len())
	if err := w.attachTo(ctx, s, server, true); err != nil {
		w.problem("attach: %v", err)
		return
	}
	w.attach.add(int64(s.attachDur))
	w.upload.add(int64(s.uploadDur))
	for first := true; ; first = false {
		d, err := w.doQuery(ctx, s, first)
		now := time.Now()
		if first && err == nil {
			w.coldStarted(s, now, d)
		}
		w.opDone(now, err)
		if err != nil {
			w.problem("query: %v", err)
		}
		if now.After(w.to) {
			return
		}
	}
}

// runSessions is the live-handoff / live-chain loop: sessions of a fresh
// client walking a seeded straight line across the cluster.
func (w *worker) runSessions(ctx context.Context, clients int) {
	for n := 0; time.Now().Before(w.to); n++ {
		w.runSession(ctx, 1+w.id+n*clients)
	}
}

// walk returns the points of one seeded straight line across the cluster:
// every point stays inside the seven cells.
func (w *worker) walk(buf []geo.Point) []geo.Point {
	theta := w.rng.Float64() * 2 * math.Pi
	off := (w.rng.Float64()*2 - 1) * walkMaxOffset
	dir := geo.Point{X: math.Cos(theta), Y: math.Sin(theta)}
	mid := geo.Point{X: -dir.Y, Y: dir.X}.Scale(off)
	buf = buf[:0]
	for d := -float64(walkHalfLength); d <= walkHalfLength; d += stepMetres {
		buf = append(buf, mid.Add(dir.Scale(d)))
	}
	return buf
}

func (w *worker) runSession(ctx context.Context, id int) {
	var pts [2*walkHalfLength/stepMetres + 1]geo.Point
	line := w.walk(pts[:0])
	s, err := w.dial(ctx, id)
	if err != nil {
		w.opDone(time.Now(), err)
		w.problem("dial: %v", err)
		return
	}
	defer w.closeClient(s.c)
	if t := time.Now(); w.measured(t) {
		w.register.add(int64(t.Sub(s.t0)))
	}
	for i, p := range line {
		ts := time.Now()
		err := w.step1(ctx, s, p, i == 0)
		now := time.Now()
		w.opDone(now, err)
		if err != nil {
			w.problem("client %d step %d: %v", id, i, err)
			return
		}
		if w.measured(now) {
			w.step.add(int64(now.Sub(ts)))
		}
		if now.After(w.to) {
			return
		}
	}
}

// step1 is one op of a session: report the point, re-attach when the cell
// changed, then queriesPerStep queries.
func (w *worker) step1(ctx context.Context, s *session, p geo.Point, first bool) error {
	t0 := time.Now()
	s0 := w.tr.Now()
	err := s.c.ReportLocationContext(ctx, p)
	w.span(stageBenchRep, s0)
	if err != nil {
		return err
	}
	if t := time.Now(); w.measured(t) {
		w.report.add(int64(t.Sub(t0)))
	}
	attached := false
	if server := w.cl.master.Placement().ServerAt(p); server != s.cur {
		if server == geo.NoServer {
			return fmt.Errorf("point %+v outside every cell", p)
		}
		if err := w.attachTo(ctx, s, server, first); err != nil {
			return err
		}
		attached = true
		if t := time.Now(); w.measured(t) {
			w.attach.add(int64(s.attachDur))
			if s.uploadDur > 0 && first {
				w.upload.add(int64(s.uploadDur))
			}
		}
	}
	for q := 0; q < queriesPerStep; q++ {
		d, err := w.doQuery(ctx, s, attached && q == 0)
		if err != nil {
			return err
		}
		if first && q == 0 {
			if t := time.Now(); w.measured(t) {
				w.coldStarted(s, t, d)
			}
		}
	}
	return nil
}

// livePhase is one warm-up + measured window against one cluster.
type livePhase struct {
	workers []*worker
	window  time.Duration
	from    procSnap
	to      procSnap
	before  map[string]int64 // cluster counters at window start
	after   map[string]int64 // and at quiescence
	planP50 float64          // master plan_latency_ns histogram
	planP99 float64
	setups  []float64 // seconds per cluster start
	slices  []slice
	spans   []tracing.Span
}

// runLivePhase starts a cluster (setups times, keeping the last), drives
// it with C closed-loop clients through warm-up and the measured window,
// and tears everything down.
func runLivePhase(o options, spec liveSpec, setups int, warm, window time.Duration, tr *tracing.Tracer) (*livePhase, error) {
	ph := &livePhase{window: window}
	var cl *cluster
	for i := 0; i < setups; i++ {
		if cl != nil {
			if err := cl.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if cl, err = startCluster(o.seed, spec, tr); err != nil {
			return nil, err
		}
		ph.setups = append(ph.setups, time.Since(t0).Seconds())
	}
	clients := liveClients()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	from := time.Now().Add(warm)
	to := from.Add(window)
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		w := newWorker(g, o, cl, tr, window)
		w.from, w.to = from, to
		ph.workers = append(ph.workers, w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if spec.sessions {
				w.runSessions(ctx, clients)
			} else {
				w.runSteady(ctx)
			}
		}()
	}
	time.Sleep(time.Until(from))
	ph.before = cl.counters()
	ph.from = snapProc()
	ph.slices = sampleSlices(to, func() (ops int64) {
		for _, w := range ph.workers {
			ops += w.ops.Load()
		}
		return ops
	})
	ph.to = snapProc()
	wg.Wait()
	ph.after = cl.counters()
	h := cl.master.Metrics().Histogram("plan_latency_ns")
	ph.planP50, ph.planP99 = float64(h.P50()), float64(h.P99())
	if err := cl.close(); err != nil {
		return nil, fmt.Errorf("closing cluster: %w", err)
	}
	ph.spans = tr.Spans()
	return ph, nil
}

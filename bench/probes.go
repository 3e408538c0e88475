package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"perdnn/internal/core"
	"perdnn/internal/dnn"
	"perdnn/internal/edgesim"
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
	"perdnn/internal/wire"
)

// Direct-call probes: each times calls into one layer's exported functions
// with inputs taken from the workloads (inception profile, the 7-cell
// placement, history length 5, the Geolife-sized dataset). They are the
// same on every workload and run after the traced window.

const (
	probeBatches   = 3 // median of this many batches
	probeBatchTime = 25 * time.Millisecond
	probeHistory   = 5
	probeChainHops = 3
	engineEvents   = 1_000_000
)

// sink keeps results alive so the compiler cannot drop a probed call.
var sink any

// timeProbe times fn: after a warm-up call it sizes a batch to about
// probeBatchTime from one timed call (at most maxIters calls), runs
// probeBatches of them and returns the median batch's ns and allocations
// per call. Allocations are the process's: a probe that talks to a
// goroutine (the echo server) counts both ends.
func timeProbe(maxIters int, fn func()) (ns, allocs float64) {
	fn()
	t0 := time.Now()
	fn()
	iters := min(max(int(probeBatchTime/max(time.Since(t0), 1)), 1), maxIters)
	var nsB, allocB []float64
	var m0, m1 runtime.MemStats
	for b := 0; b < probeBatches; b++ {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		nsB = append(nsB, float64(d.Nanoseconds())/float64(iters))
		allocB = append(allocB, float64(m1.Mallocs-m0.Mallocs)/float64(iters))
	}
	return medianOf(nsB), medianOf(allocB)
}

// probe times fn and records <name> and, where the tables list it,
// <name>.allocs.
func (r *result) probe(name string, fn func()) {
	maxIters := 1 << 20
	if r.quick {
		maxIters = 4
	}
	ns, allocs := timeProbe(maxIters, fn)
	r.set(name, ns)
	if hasMetric(name + ".allocs") {
		r.set(name+".allocs", allocs)
	}
}

func hasMetric(name string) bool {
	for _, d := range perLayer {
		if d.Name == name {
			return true
		}
	}
	return false
}

// echoServer answers every frame on loopback: with reply when it is set,
// otherwise with the frame itself.
type echoServer struct {
	ln net.Listener
	wg sync.WaitGroup
}

func startEcho(ctx context.Context, reply *wire.Envelope) (*echoServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &echoServer{ln: ln}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				conn := wire.NewConn(c)
				defer conn.Close() //nolint:errcheck // probe teardown
				for {
					e, err := conn.RecvContext(ctx)
					if err != nil {
						return
					}
					if reply != nil {
						e = reply
					}
					if err := conn.SendContext(ctx, e); err != nil {
						return
					}
				}
			}()
		}
	}()
	return s, nil
}

func (s *echoServer) addr() string { return s.ln.Addr().String() }

// stop closes the listener; handlers end when their peers close.
func (s *echoServer) stop() {
	_ = s.ln.Close() // already-closed is fine here
	s.wg.Wait()
}

func runProbes(o options, r *result) error {
	mod, err := dnn.ZooModel(liveModel)
	if err != nil {
		return err
	}
	prof := profile.NewModelProfile(mod, profile.ClientODROID(), profile.ServerTitanXp())
	link := partition.LabWiFi()

	t0 := time.Now()
	est, err := estimator.TrainServerEstimator(profile.ServerTitanXp(), gpusim.DefaultParams(), o.seed)
	if err != nil {
		return err
	}
	r.set("estimator.train_s", time.Since(t0).Seconds())

	if err := probePlanning(r, prof, est, link); err != nil {
		return err
	}
	if err := probeWire(r, prof, est, link); err != nil {
		return err
	}
	if err := probeSim(o, r); err != nil {
		return err
	}
	probeObs(r, mod)
	return nil
}

// probePlanning covers partition, core and estimator.
func probePlanning(r *result, inception *profile.ModelProfile, est *estimator.ServerEstimator, link partition.Link) error {
	servers := make([]partition.ServerSpec, liveEdges)
	for i := range servers {
		servers[i] = partition.ServerSpec{ID: i, Slowdown: 1}
	}
	for _, name := range dnn.ZooNames() {
		m, err := dnn.ZooModel(name)
		if err != nil {
			return err
		}
		prof := profile.NewModelProfile(m, profile.ClientODROID(), profile.ServerTitanXp())
		req := partition.Request{Profile: prof, Slowdown: 1, Link: link}
		solver := partition.NewSolver()
		plan, err := solver.Partition(req)
		if err != nil {
			return err
		}
		plan = plan.Clone() // the solver's next call reuses its plan
		r.probe("partition.split_ns."+string(name), func() { sink, _ = solver.Partition(req) })
		r.probe("partition.schedule_ns."+string(name), func() { sink, _ = solver.UploadSchedule(req, plan) })
		creq := partition.ChainRequest{Profile: prof, Link: link, Servers: servers,
			MaxHops: probeChainHops, Objective: partition.ObjectiveThroughput}
		if _, err := partition.PlanChain(creq); err != nil {
			return err
		}
		r.probe("partition.chain_ns."+string(name), func() { sink, _ = partition.PlanChain(creq) })
	}

	planner, err := core.NewPlanner(inception, est, link)
	if err != nil {
		return err
	}
	idle := gpusim.Stats{}
	if _, err := planner.PlanFor(idle); err != nil {
		return err
	}
	r.probe("core.planfor_hit_ns", func() { sink, _ = planner.PlanFor(idle) })
	r.probe("core.planfor_miss_ns", func() {
		fresh, _ := core.NewPlanner(inception, est, link) // private, empty cache
		sink, _ = fresh.PlanFor(idle)
	})

	busy := gpusim.Stats{ActiveClients: 4, KernelUtil: 0.77, MemUtil: 0.41, MemUsedMB: 6300, TempC: 71}
	est.EstimateSlowdown(busy)
	r.probe("estimator.slowdown_hit_ns", func() { sink = est.EstimateSlowdown(busy) })
	// Every call lands in a bucket the memo has not seen: utilisation walks
	// in steps wider than a bucket and never repeats within the probe.
	step := 0
	r.probe("estimator.slowdown_miss_ns", func() {
		step++
		st := busy
		st.KernelUtil = float64(step%97) / 97
		st.MemUtil = float64(step%89) / 89
		st.MemUsedMB = float64(step%8000) + 100
		sink = est.EstimateSlowdown(st)
	})

	// The live master's policy: dead reckoning over the 7-cell placement.
	grid := geo.NewHexGrid(cellRadius)
	cells := append([]geo.HexCell{{}}, grid.Neighbors(geo.HexCell{})...)
	centers := make([]geo.Point, len(cells))
	for i, c := range cells {
		centers[i] = grid.Center(c)
	}
	pl := geo.NewPlacement(grid, centers)
	lin := &mobility.Linear{}
	lin.FitPlacement(pl)
	pol := &core.MigrationPolicy{Predictor: lin, Placement: pl, Radius: cityRadius, HistoryLen: probeHistory, TTLIntervals: 5}
	recent := make([]geo.Point, probeHistory)
	for i := range recent {
		recent[i] = geo.Point{X: float64(i-probeHistory) * stepMetres}
	}
	r.probe("core.migration_targets_ns", func() { sink, _ = pol.Targets(recent, 0) })
	return nil
}

// probeWire covers the codec and transport over loopback TCP.
func probeWire(r *result, prof *profile.ModelProfile, est *estimator.ServerEstimator, link partition.Link) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	planResp, err := chainPlanResp(prof, est, link)
	if err != nil {
		return err
	}
	echo, err := startEcho(ctx, nil)
	if err != nil {
		return err
	}
	defer echo.stop()
	planSrv, err := startEcho(ctx, &wire.Envelope{Type: wire.MsgPlanResponse, PlanResp: planResp})
	if err != nil {
		return err
	}
	defer planSrv.stop()

	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	exec := &wire.Envelope{Type: wire.MsgExecRequest, ExecReq: &wire.ExecReq{
		ClientID: 1, ServerBaseNs: 5000, Intensity: 0.3, InputBytes: 100}}
	conn, err := wire.DialContext(ctx, echo.addr())
	if err != nil {
		return err
	}
	r.probe("wire.roundtrip_ns", func() {
		_, err := conn.RoundTripContext(ctx, exec)
		note(err)
	})
	note(conn.Close())

	planReq := &wire.Envelope{Type: wire.MsgPlanRequest, PlanReq: &wire.PlanReq{ClientID: 1, Server: 0}}
	pconn, err := wire.DialContext(ctx, planSrv.addr())
	if err != nil {
		return err
	}
	r.probe("wire.planresp_roundtrip_ns", func() {
		_, err := pconn.RoundTripContext(ctx, planReq)
		note(err)
	})
	note(pconn.Close())

	r.probe("wire.dial_ns", func() {
		c, err := wire.DialContext(ctx, echo.addr())
		if err != nil {
			note(err)
			return
		}
		note(c.Close())
	})

	pool := wire.NewPool()
	stats := &wire.Envelope{Type: wire.MsgStatsRequest}
	r.probe("wire.pool_roundtrip_ns", func() {
		_, err := pool.RoundTrip(ctx, echo.addr(), stats)
		note(err)
	})
	note(pool.Close())
	return firstErr
}

// chainPlanResp builds the plan response a MaxHops=3 master sends for
// inception: single-split fields plus the chain tail.
func chainPlanResp(prof *profile.ModelProfile, est *estimator.ServerEstimator, link partition.Link) (*wire.PlanResp, error) {
	planner, err := core.NewPlanner(prof, est, link)
	if err != nil {
		return nil, err
	}
	entry, err := planner.PlanFor(gpusim.Stats{})
	if err != nil {
		return nil, err
	}
	resp := &wire.PlanResp{
		ServerLayers: entry.Plan.ServerLayers(),
		Slowdown:     entry.Plan.Slowdown,
		EstLatencyNs: int64(entry.Plan.EstLatency),
	}
	for _, u := range entry.Schedule {
		resp.UploadOrder = append(resp.UploadOrder, append([]dnn.LayerID(nil), u.Layers...))
	}
	servers := make([]partition.ServerSpec, liveEdges)
	for i := range servers {
		servers[i] = partition.ServerSpec{ID: i, Addr: fmt.Sprintf("127.0.0.1:%d", 40000+i), Slowdown: 1}
	}
	chain, err := partition.PlanChain(partition.ChainRequest{Profile: prof, Link: link, Servers: servers,
		MaxHops: probeChainHops, Objective: partition.ObjectiveThroughput})
	if err != nil {
		return nil, err
	}
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
	return resp, nil
}

// probeSim covers the simulator's layers on the Geolife-sized dataset.
func probeSim(o options, r *result) error {
	cfg := trace.GeolifeConfig()
	cfg.Seed = o.seed
	t0 := time.Now()
	base, err := trace.Generate(cfg)
	if err != nil {
		return err
	}
	r.set("trace.generate_s", time.Since(t0).Seconds())
	ecfg := edgesim.DefaultEnvConfig()
	ds, err := base.Resample(ecfg.Interval)
	if err != nil {
		return err
	}
	points := ds.AllPoints()
	pl := geo.NewPlacement(geo.NewHexGrid(ecfg.CellRadius), points)

	t0 = time.Now()
	svr := &mobility.SVR{Seed: o.seed}
	if err := svr.Fit(ds.Train, pl, ecfg.HistoryLen); err != nil {
		return err
	}
	r.set("mobility.train_s", time.Since(t0).Seconds())
	recent := ds.Test[0].Points[:probeHistory]
	r.probe("mobility.predict_ns", func() { sink, _ = svr.PredictPoint(recent) })

	i := 0
	r.probe("geo.server_at_ns", func() {
		i++
		sink = pl.ServerAt(points[i%len(points)])
	})
	t0 = time.Now()
	sink = geo.NewShardMap(pl, cityShards)
	r.set("geo.shardmap_build_ms", float64(time.Since(t0).Microseconds())/1e3)

	gpu := gpusim.New(profile.ServerTitanXp(), gpusim.DefaultParams(), o.seed)
	now := time.Duration(0)
	r.probe("gpusim.exec_time_ns", func() {
		now += time.Millisecond
		gpu.Begin(now)
		sink = gpu.ExecTime(5*time.Millisecond, 0.3, now)
		gpu.End()
	})

	acct, err := simnet.NewTrafficAccount(ecfg.Interval)
	if err != nil {
		return err
	}
	at := time.Duration(0)
	r.probe("simnet.record_ns", func() {
		at += time.Second
		acct.AddUp(geo.ServerID(int(at/time.Second)%pl.Len()), at%(3*time.Hour), 1<<20)
	})

	events := engineEvents
	if r.quick {
		events /= 100
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 = time.Now()
	eng := edgesim.NewEngine()
	fired := 0
	var next func()
	next = func() {
		if fired++; fired < events {
			eng.After(time.Millisecond, next)
		}
	}
	eng.At(0, next)
	eng.Run(time.Duration(events) * time.Second)
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if fired != events {
		return fmt.Errorf("engine fired %d of %d events", fired, events)
	}
	r.set("edgesim.engine_ns_per_event", float64(d.Nanoseconds())/float64(events))
	r.set("edgesim.engine_allocs_per_event", float64(m1.Mallocs-m0.Mallocs)/float64(events))
	return nil
}

// probeObs covers the registry, the tracer and profile construction.
func probeObs(r *result, mod *dnn.Model) {
	reg := obs.NewRegistry()
	for _, name := range []string{"requests_total", "uploads_total", "upload_bytes_total", "execs_total",
		"forwards_total", "migrations_total", "migration_bytes_total", "forward_failures_total"} {
		reg.Counter(name)
	}
	// By name, as the live daemons do on every request.
	r.probe("obs.counter_by_name_ns", func() { reg.Counter("execs_total").Inc() })
	r.probe("obs.histogram_observe_ns", func() { reg.Histogram("exec_ns").ObserveDuration(3 * time.Millisecond) })

	tr := tracing.NewWallClock()
	trace := tr.NewTrace()
	r.probe("tracing.record_ns", func() {
		now := tr.Now()
		tr.Record(trace, 0, tracing.StageExecCompute, "server/0", now, now)
	})

	ns, _ := timeProbe(1<<20, func() {
		sink = profile.NewModelProfile(mod, profile.ClientODROID(), profile.ServerTitanXp())
	})
	r.set("profile.build_us", ns/1e3)
}

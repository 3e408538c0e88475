package edgesim

import (
	"context"
	"runtime"
	"time"

	"perdnn/internal/dnn"
	"perdnn/internal/geo"
	"perdnn/internal/obs"
	"perdnn/internal/partition"
)

// shardsPerProc is how many region shards an auto-sharded run starts per
// processor. Regions carry uneven load, so more regions than processors
// let the Go scheduler even them out; the multiplier is the fastest of a
// paired sweep (EXPERIMENTS.md "Region-sharded city runs").
const shardsPerProc = 4

// shardCount resolves cfg.Shards to the number of region shards a run
// uses, given the server count and how many runs execute concurrently
// with it (a sweep's worker pool; 1 for a lone run). A positive count is
// kept, clamped to the server count; a negative one is returned for
// newWorld to reject. 0 means "use the machine": shardsPerProc per
// GOMAXPROCS, except where a single engine is as fast or required — one
// processor, a sweep whose other runs already fill the cores, a routing
// run (its home servers cross regions), and a run recording spans (every
// span takes the one shared tracer's mutex).
func shardCount(cfg CityConfig, servers, concurrent int) int {
	n := cfg.Shards
	if n == 0 {
		procs := runtime.GOMAXPROCS(0)
		n = shardsPerProc * procs
		if procs == 1 || concurrent > 1 || cfg.Mode == ModeRouting || cfg.RecordSpans {
			n = 1
		}
	}
	return min(n, max(servers, 1))
}

// simShard owns one region of the city: the servers geo.ShardMap assigns
// to it, the clients currently attached to those servers, and a private
// virtual-clock engine that advances the region's events on its own
// goroutine. Shards synchronize at every movement tick (a conservative
// barrier: the movement interval lower-bounds how soon one region can
// affect another). The tick's two parallel passes (tick.go) run on the
// same goroutines: decide for a block of clients, sample for the requests
// on the shard's own servers. Every cross-shard effect — handoffs,
// migration orders, fault transitions — waits for the serial apply pass,
// which runs while every engine sits at the same virtual instant.
type simShard struct {
	w   *world
	id  int
	eng *Engine

	// Window-phase ledger: every fact a shard records while its window
	// runs lands here, in plain fields no other shard touches, and is
	// merged after the final barrier (world.freeze). The merged totals are
	// order-free sums, so they are identical at every shard count.
	totalQueries  int
	windowQueries int
	sumLatency    time.Duration
	latency       *obs.Histogram
	migCompleted  int

	// locBuf is the shard-local location scratch splitFor decomposes
	// through, so a partial hit's upload loop allocates nothing; targets is
	// the decide pass's AppendTargets scratch, and send the sample pass's
	// set of the layers a migration target lacks.
	locBuf  []partition.Location
	targets []geo.ServerID
	send    dnn.LayerSet
	// routed[o] lists the plan requests this shard's decide pass made on
	// shard o's servers, in client-ID order. Shards decide consecutive
	// blocks of clients, so shard o's sample pass serves the lists routed
	// to it in shard order and meets its requests in client-ID order.
	routed [][]reqRef

	// Barrier channels to the coordinator; nil for shard 0, whose passes
	// run on the coordinator's goroutine.
	req chan shardStep
	ack chan struct{}
}

// shardPass names what a shardStep asks of a shard.
type shardPass uint8

const (
	// passWindow advances the shard's engine to a barrier.
	passWindow shardPass = iota
	// passDecide runs the tick's decide pass for the shard's block of
	// clients.
	passDecide
	// passSample runs the tick's sample pass on the shard's servers.
	passSample
)

// shardStep asks a shard for one pass. A window advances the engine to
// `until`, exclusive (the tick at `until` must run first), or inclusive for
// the final drain; the tick's passes run at instant `until`, trajectory
// step k.
type shardStep struct {
	pass      shardPass
	until     time.Duration
	inclusive bool
	k         int
}

// newSimShard returns an idle shard at virtual time zero.
func newSimShard(w *world, id int) *simShard {
	return &simShard{w: w, id: id, eng: NewEngine(), latency: &obs.Histogram{}}
}

// step runs one pass on the shard.
func (sh *simShard) step(st shardStep) {
	w := sh.w
	switch {
	case st.pass == passDecide:
		if sh.routed == nil {
			sh.routed = make([][]reqRef, len(w.shards))
		}
		for o := range sh.routed {
			sh.routed[o] = sh.routed[o][:0]
		}
		n, m := len(w.clients), len(w.shards)
		for _, c := range w.clients[sh.id*n/m : (sh.id+1)*n/m] {
			w.decide(sh, st.until, st.k, c)
			for i := range c.move.reqs {
				o := w.smap.ShardOf(c.move.reqs[i].sid)
				sh.routed[o] = append(sh.routed[o], reqRef{c, i})
			}
		}
	case st.pass == passSample:
		for _, d := range w.shards {
			for _, r := range d.routed[sh.id] {
				w.serve(sh, st.until, r.c, r.i)
			}
		}
	case st.inclusive:
		sh.eng.Run(st.until)
	default:
		sh.eng.RunBefore(st.until)
	}
}

// loop is the shard's goroutine: run each requested pass, then
// acknowledge. The request/acknowledge pair orders each shard's passes
// against the coordinator's serial work (channel synchronization gives the
// happens-before in both directions), so what one pass writes is visible
// to the next, on whichever goroutine it runs, without further locking.
func (sh *simShard) loop() {
	for st := range sh.req {
		sh.step(st)
		sh.ack <- struct{}{}
	}
}

// runShards drives the barrier-synchronized run: for every movement tick,
// each shard drains its region's events up to (but excluding) the tick
// time in parallel, then the tick runs with all engines paused at the same
// virtual instant — its decide and sample passes on every shard in
// parallel, its apply pass serially; a final inclusive phase drains
// everything scheduled by the last tick. Shard 0 runs on the coordinator's
// goroutine and every other shard on its own, so a single-shard run takes
// the identical protocol inline — the unsharded engine is the one-shard
// special case, which is what makes the journals byte-identical across
// shard counts.
//
// Cancellation is observed at every barrier, matching the unsharded
// engine's per-tick context checks.
func (w *world) runShards(ctx context.Context, steps int) error {
	for _, sh := range w.shards[1:] {
		sh.req = make(chan shardStep)
		sh.ack = make(chan struct{})
		go sh.loop()
	}
	defer func() {
		for _, sh := range w.shards[1:] {
			close(sh.req)
		}
	}()
	// run has every shard take one pass.
	run := func(st shardStep) {
		for _, sh := range w.shards[1:] {
			sh.req <- st
		}
		w.shards[0].step(st)
		for _, sh := range w.shards[1:] {
			<-sh.ack
		}
	}
	for k := 0; k < steps; k++ {
		run(shardStep{until: time.Duration(k) * w.env.Interval})
		if ctx.Err() != nil {
			return ctx.Err()
		}
		w.tick(k, run)
	}
	run(shardStep{until: time.Duration(steps) * w.env.Interval, inclusive: true})
	return ctx.Err()
}

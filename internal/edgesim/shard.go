package edgesim

import (
	"context"
	"time"

	"perdnn/internal/obs"
	"perdnn/internal/partition"
)

// simShard owns one region of the city: the servers geo.ShardMap assigns
// to it, the clients currently attached to those servers, and a private
// virtual-clock engine that advances the region's events on its own
// goroutine. Shards synchronize at every movement tick (a conservative
// barrier: the movement interval lower-bounds how soon one region can
// affect another), so all cross-shard interaction — handoffs, proactive
// migration orders, fault transitions — happens in the serial tick phase
// while every engine sits at the same virtual instant.
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
	// through, so the hot upload/query loop allocates nothing (the PR 5
	// pooled-scratch discipline, one pool per shard).
	locBuf []partition.Location

	// Barrier channels to the coordinator; nil on single-shard runs,
	// which step inline without goroutines.
	req chan shardStep
	ack chan struct{}
}

// shardStep asks a shard to advance its engine to a barrier: exclusive of
// `until` for a window phase (the tick at `until` must run first), or
// inclusive for the final drain.
type shardStep struct {
	until     time.Duration
	inclusive bool
}

// newSimShard returns an idle shard at virtual time zero.
func newSimShard(w *world, id int) *simShard {
	return &simShard{w: w, id: id, eng: NewEngine(), latency: &obs.Histogram{}}
}

// step advances the shard's engine to one barrier.
func (sh *simShard) step(st shardStep) {
	if st.inclusive {
		sh.eng.Run(st.until)
	} else {
		sh.eng.RunBefore(st.until)
	}
}

// loop is the shard's goroutine: advance to each requested barrier, then
// acknowledge. The request/acknowledge pair orders each shard's window
// against the coordinator's serial ticks (channel synchronization gives
// the happens-before in both directions), so tick-phase writes are
// visible to window callbacks and vice versa without further locking.
func (sh *simShard) loop() {
	for st := range sh.req {
		sh.step(st)
		sh.ack <- struct{}{}
	}
}

// runShards drives the barrier-synchronized run: for every movement tick,
// each shard drains its region's events up to (but excluding) the tick
// time in parallel, then the coordinator runs the tick serially with all
// engines paused at the same virtual instant; a final inclusive phase
// drains everything scheduled by the last tick. Single-shard runs use the
// identical protocol inline — the unsharded engine is the one-shard
// special case, which is what makes the journals byte-identical across
// shard counts.
//
// Cancellation is observed at every barrier, matching the unsharded
// engine's per-tick context checks.
func (w *world) runShards(ctx context.Context, steps int) error {
	multi := len(w.shards) > 1
	if multi {
		for _, sh := range w.shards {
			sh.req = make(chan shardStep)
			sh.ack = make(chan struct{})
			go sh.loop()
		}
		defer func() {
			for _, sh := range w.shards {
				close(sh.req)
			}
		}()
	}
	advance := func(st shardStep) {
		if !multi {
			w.shards[0].step(st)
			return
		}
		for _, sh := range w.shards {
			sh.req <- st
		}
		for _, sh := range w.shards {
			<-sh.ack
		}
	}
	for k := 0; k < steps; k++ {
		advance(shardStep{until: time.Duration(k) * w.env.Interval})
		if ctx.Err() != nil {
			return ctx.Err()
		}
		w.tick(k)
	}
	advance(shardStep{until: time.Duration(steps) * w.env.Interval, inclusive: true})
	return ctx.Err()
}

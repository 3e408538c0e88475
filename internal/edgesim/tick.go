package edgesim

import (
	"fmt"
	"time"

	"perdnn/internal/core"
	"perdnn/internal/dnn"
	"perdnn/internal/geo"
	"perdnn/internal/obs/tracing"
	"perdnn/internal/partition"
)

// A movement tick runs in three passes, in every run alike: one shard or
// many, with faults or without, in every mode.
//
//  1. decide, in parallel over clients, only reads: it resolves each
//     client's movement branch and migration targets and lists the plans
//     the client asks for, one GPU sample each, in the order it draws them.
//  2. sample, in parallel over servers: each shard serves the requests on
//     its own servers in client-ID order, so every GPU draws the sequence a
//     serial loop would. A request takes the sample, its plan, and what
//     follows from them and the layer caches alone: a reconnect's layers,
//     upload queue and split, a migration target's send set.
//  3. apply, serially in client-ID order, keeps every effect whose order is
//     part of the contract: counters, plan novelty, decision records, cache
//     touches, the traffic ledger, and engine scheduling.
//
// The split is sound because nothing the first two passes read changes at
// the tick's instant: no layer-cache entry changes liveness (Touch refreshes
// only live entries, Claim runs only in windows, Get only reads), each GPU's
// draws depend only on the order of its own samples, and the estimator's
// memo and the plan cache return the same value whoever asks first.

// moveKind is a client's movement branch at one tick.
type moveKind uint8

const (
	// moveNone: past the trajectory's end, or detached in a dead zone.
	moveNone moveKind = iota
	// moveStay keeps the client's layers warm at the serving server.
	moveStay
	// moveRoute: a routing client changes APs and keeps its home server.
	moveRoute
	// moveReconnect attaches the client to a new server with a fresh plan.
	moveReconnect
	// moveLocal degrades the client to client-local execution.
	moveLocal
)

// clientMove is one client's step at a tick: decide fills it, sample
// completes its requests, apply executes it. Every client keeps one,
// reused from tick to tick.
type clientMove struct {
	kind moveKind
	// at is the server the step stays at (the serving one), routes or
	// attaches to, or, for moveLocal, the one the client failed at or could
	// not attach to.
	at geo.ServerID
	// failover records a failover from down to at ahead of the move;
	// dropHome forgets a routing home that went down.
	failover, dropHome bool
	down               geo.ServerID
	// from is the client's server after the move and src what it holds for
	// the client, which migration sends from. Set only when the step
	// migrates.
	from geo.ServerID
	src  dnn.LayerSet
	// reqs are the step's plan requests in the order the client draws
	// them: a reconnect's first, then one per live migration target.
	reqs []planReq
}

// planReq is one GPU sample, the plan made from it, and what the sample
// pass derives from them.
type planReq struct {
	sid   geo.ServerID
	entry *core.PlanEntry
	// live reports whether the server holds a live entry for the client:
	// apply touches only those, a Touch of any other being a no-op.
	live bool
	// A reconnect's: how many of the plan's layers the server holds for
	// the client, which classifies the handoff as a hit, partial or miss.
	have int
	// A migration target's: how many layers the fractional cap dropped,
	// and, when the source holds layers the target lacks, the order's own
	// copy of them and their bytes.
	dropped int
	send    dnn.LayerSet
	bytes   int64
}

// reqRef names request i of client c's step.
type reqRef struct {
	c *simClient
	i int
}

// request appends a plan request for server sid.
func (m *clientMove) request(sid geo.ServerID) {
	m.reqs = append(m.reqs, planReq{sid: sid})
}

// tick advances every client to trajectory step k: fault transitions, then
// the three passes, run passing the two parallel ones to every shard.
func (w *world) tick(k int, run func(shardStep)) {
	now := time.Duration(k) * w.env.Interval
	w.updateFaults(now)
	run(shardStep{pass: passDecide, until: now, k: k})
	run(shardStep{pass: passSample, until: now})
	for _, c := range w.clients {
		w.apply(now, c)
	}
}

// decide resolves client c's step k from state the tick does not change.
// sh is the shard running it, whose target scratch it uses.
func (w *world) decide(sh *simShard, now time.Duration, k int, c *simClient) {
	m := &c.move
	*m = clientMove{reqs: m.reqs[:0]}
	if k >= c.tr.Len() {
		return
	}
	pos := c.tr.Points[k]
	sid := w.env.Placement.ServerAt(pos)
	if sid == geo.NoServer {
		sid = c.cur // hold the previous attachment in a dead zone
	}
	if w.faults != nil && w.decideFault(now, c, sid, pos) {
		return // the fault consumed the step: no migration
	}
	routing := w.cfg.Mode == ModeRouting && c.home != geo.NoServer
	switch {
	case sid != c.cur && sid != geo.NoServer && routing:
		// Routing: the client changes APs but keeps its session with the
		// home server — no cold start, queries pay the backhaul.
		m.kind, m.at = moveRoute, sid
	case sid != c.cur && sid != geo.NoServer:
		w.decideAttach(now, m, sid)
	case c.cur != geo.NoServer:
		m.kind, m.at = moveStay, c.cur
		if routing {
			m.at = c.home
		}
	}
	if w.policy != nil && k >= 1 {
		w.decideTargets(sh, now, k, c)
	}
}

// decideAttach is a reconnect to sid: a plan from sid's GPU, or, with the
// control plane blacked out, local execution until a later attach finds
// the master back.
func (w *world) decideAttach(now time.Duration, m *clientMove, sid geo.ServerID) {
	if w.faults.masterDown(now) {
		m.kind, m.at = moveLocal, sid
		return
	}
	m.kind, m.at = moveReconnect, sid
	m.request(sid)
}

// decideFault handles the fault cases of a step and reports whether one
// consumed it: the serving server (the routing home, or the cell server
// sid) is down, forcing a failover to a live neighbor or a degradation to
// local execution.
func (w *world) decideFault(now time.Duration, c *simClient, sid geo.ServerID, pos geo.Point) bool {
	m := &c.move
	if w.cfg.Mode == ModeRouting && c.home != geo.NoServer && w.isDown(c.home) {
		// The home server died, taking the session's layers with it:
		// abandon routing and re-home at the current cell (or fail over
		// if that is down too).
		m.dropHome = true
		if sid == geo.NoServer || w.isDown(sid) {
			w.decideFailover(now, c, c.home, pos)
			return true
		}
		m.failover, m.down = true, c.home
		w.decideAttach(now, m, sid)
		return true
	}
	if sid != geo.NoServer && w.isDown(sid) {
		w.decideFailover(now, c, sid, pos)
		return true
	}
	return false
}

// decideFailover reacts to a down server: re-partition to the nearest live
// server within the failover radius, or degrade to local execution.
func (w *world) decideFailover(now time.Duration, c *simClient, down geo.ServerID, pos geo.Point) {
	m := &c.move
	switch nid := w.liveNeighbor(pos); nid {
	case geo.NoServer:
		m.kind, m.at = moveLocal, down
	case c.cur:
		// The previous attachment survives; keep our layers warm there.
		m.kind, m.at = moveStay, nid
	default:
		m.failover, m.down = true, down
		w.decideAttach(now, m, nid)
	}
}

// decideTargets lists the step's migration requests: the live servers near
// the client's predicted next location, which its post-step server pushes
// its layers toward.
func (w *world) decideTargets(sh *simShard, now time.Duration, k int, c *simClient) {
	m := &c.move
	from := c.cur
	switch m.kind {
	case moveRoute, moveReconnect:
		from = m.at
	case moveLocal:
		from = geo.NoServer
	}
	if from == geo.NoServer {
		return
	}
	// A source holding nothing of ours sends nothing, so look before
	// predicting: Targets is pure, and skipping it changes no draw or
	// decision.
	src, ok := w.servers[from].store.Get(now, w.storeKey(c.id))
	if !ok {
		return
	}
	sh.targets, ok = w.policy.AppendTargets(sh.targets[:0], c.tr.Points[:k+1], from)
	if !ok {
		return
	}
	m.from, m.src = from, src
	for _, tid := range sh.targets {
		if !w.isDown(tid) { // never push layers at a downed server
			m.request(tid)
		}
	}
}

// serve answers request i of client c's step on sh, the shard owning its
// server: the GPU sample, the plan for it, and, for a reconnect, the
// client's state at the server (attach), or, for a migration target, what
// to send there. It writes only the request, sh's scratch and, for a
// reconnect, the client.
func (w *world) serve(sh *simShard, now time.Duration, c *simClient, i int) {
	m := &c.move
	r := &m.reqs[i]
	srv := &w.servers[r.sid]
	// A migration target's plan is the future one, from the target's
	// current GPU state ("we use the current GPU workloads ... under the
	// assumption that [they] do not change so abruptly").
	entry, err := w.planner.PlanFor(srv.gpu.Sample(now))
	if err != nil {
		// Planning failures are programming errors (validated inputs).
		panic(fmt.Sprintf("edgesim: plan: %v", err))
	}
	r.entry = entry
	if i == 0 && m.kind == moveReconnect {
		w.attach(sh, now, c, r)
		return
	}
	want, dropped := w.policy.Want(entry, m.from, r.sid)
	r.dropped = dropped
	// Send what the source has and the target lacks: a few word ops into
	// the shard's scratch, copied out only for an order.
	send := &sh.send
	send.Reset(w.model.NumLayers())
	send.Union(want)
	send.Intersect(m.src)
	dst, ok := srv.store.Get(now, w.storeKey(c.id))
	if r.live = ok; ok {
		send.Subtract(dst)
	}
	if r.bytes = send.WeightBytes(w.model); r.bytes > 0 {
		r.send = send.Clone()
	}
}

// apply executes client c's decided and sampled step.
func (w *world) apply(now time.Duration, c *simClient) {
	m := &c.move
	if m.dropHome {
		c.home = geo.NoServer
	}
	if m.failover {
		w.res.Failovers++
		w.recordDecision(now, tracing.StageFailover, w.clientNode(c.id), attrs(c.id, m.down, m.at, 0, 0))
	}
	orders := m.reqs
	switch m.kind {
	case moveStay:
		w.servers[m.at].store.Touch(now, w.storeKey(c.id))
	case moveRoute:
		prev := c.cur
		c.cur = m.at
		c.connectedAt = now
		w.res.Connections++
		w.res.Hits++
		w.recordDecision(now, tracing.StageHandoff, w.clientNode(c.id), attrs(c.id, prev, m.at, 0, 0))
		w.servers[c.home].store.Touch(now, w.storeKey(c.id))
	case moveReconnect:
		w.reconnect(now, c, &orders[0])
		orders = orders[1:]
	case moveLocal:
		w.localFallback(now, c, m.at)
	}
	for i := range orders {
		w.migrate(now, c, &orders[i])
	}
}

// migrate applies one migration request: the target's plan is noted, its
// cache refreshed, and, when the source holds layers the target lacks,
// the transfer ordered.
func (w *world) migrate(now time.Duration, c *simClient, r *planReq) {
	from, tid, key := c.move.from, r.sid, w.storeKey(c.id)
	w.trackPlan(now, r.entry, c.id, tid)
	if r.dropped > 0 {
		w.truncations++
		w.truncatedLayers += r.dropped
		w.recordDecision(now, tracing.StageFractionTruncated, w.serverNode(from),
			attrs(c.id, from, tid, r.dropped, w.policy.CapBytes(from, tid)))
	}
	dst := &w.servers[tid]
	// A transfer attempt refreshes the target's TTL even when everything
	// is already there (duplicate suppression).
	if r.live {
		dst.store.Touch(now, key)
	}
	bytes := r.bytes
	if bytes == 0 {
		return
	}
	w.res.Traffic.AddUp(from, now, bytes)
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
	a := attrs(c.id, from, tid, r.send.Count(), bytes)
	mt := w.decisions.NewTrace()
	order := w.decisions.RecordAttrs(mt, 0, tracing.StageMigrationOrdered, w.serverNode(from), now, now, a)
	layers := r.send // the order's own copy; r is reused at the next tick
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

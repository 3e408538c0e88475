package main

import (
	"fmt"
	"time"

	"perdnn/internal/obs/tracing"
)

// tracedWindowMax caps the traced phase: the live tracer's buffer is
// unbounded, so a longer window only costs memory.
const tracedWindowMax = 3 * time.Second

// minHandoffHitRatio is the share of non-first attaches that must find
// every layer migrated ahead on live-handoff (measured: 0.98 to 0.99).
const minHandoffHitRatio = 0.95

// runLive measures one live workload. Untraced, the whole window is one
// phase and set-up is repeated for its median. Traced, the window is split:
// an untraced half gives the user-visible breakdown and proc.* numbers, a
// second cluster with a wall-clock tracer on every node gives the spans,
// and the two throughputs give the tracing overhead.
func runLive(spec liveSpec, o options, r *result) error {
	window, setups := o.seconds, o.setups
	if o.trace {
		window, setups = o.seconds/2, 1
	}
	ph, err := runLivePhase(o, spec, setups, o.warmup, window, nil)
	if err != nil {
		return err
	}
	untraced := foldLive(ph, spec, r, true)
	if !o.trace {
		return nil
	}
	// One tracer for every node: a single epoch keeps parents and children
	// on one clock, and its ID sequence keeps them unique.
	tr := tracing.NewWallClock()
	tph, err := runLivePhase(o, spec, 1, o.warmup/3, min(window, tracedWindowMax), tr)
	if err != nil {
		return fmt.Errorf("traced phase: %w", err)
	}
	traced := foldLive(tph, spec, r, false)
	r.set("tracing.overhead_pct", 100*(1-traced/untraced))
	return liveBudget(tph, spec, o, r)
}

// opSamples picks the workload's op: the step on session workloads, the
// query on live-steady.
func opSamples(spec liveSpec, step, query *samples) *samples {
	if spec.sessions {
		return step
	}
	return query
}

// foldLive merges the workers of one phase, applies the correctness gate
// and returns the phase's throughput in ops/s. With emit set it also
// writes the phase's metrics into r (the traced phase only gates).
func foldLive(ph *livePhase, spec liveSpec, r *result, emit bool) float64 {
	var all worker
	for _, w := range ph.workers {
		if emit { // before the merge: summarize sorts the merged buffer
			r.ChunkP50Us = append(r.ChunkP50Us, chunkMedians(opSamples(spec, &w.step, &w.query).v, opChunks)...)
		}
		w.mergeInto(&all)
		if w.planBytes != 0 {
			if all.planBytes != 0 && all.planBytes != w.planBytes {
				r.fail("workers saw different plans: %d and %d weight bytes", all.planBytes, w.planBytes)
			}
			all.planBytes, all.planUnits = w.planBytes, w.planUnits
		}
		for _, p := range w.problems {
			r.fail("client %d: %s", w.id, p)
		}
	}
	gateLive(ph, spec, &all, r)
	secs := ph.window.Seconds()
	ops := all.ops.Load()
	opsPerS := float64(ops) / secs
	timings := map[string]*samples{
		"query": &all.query, "attach": &all.attach, "report": &all.report, "coldstart": &all.coldstart,
		"step": &all.step, "register": &all.register, "upload_cold": &all.upload,
	}
	if !emit {
		r.Attempted += all.attempted
		r.Failed += all.failed
		return opsPerS
	}
	r.Attempted, r.Failed = all.attempted, all.failed
	for name, s := range timings {
		r.Timings[name] = s.summarize()
	}
	r.setSlices(ph.slices)
	r.set("op_p50_us", quietLow(r.ChunkP50Us))
	r.setProc(ph.from, ph.to, ops)
	r.set("setup_s", medianOf(ph.setups))

	r.set("queries_per_s", float64(all.queries)/secs)
	r.set("query_p50_us", all.query.p(50)/1e3)
	r.set("query_p99_us", all.query.p(99)/1e3)
	r.set("attach_p50_us", all.attach.p(50)/1e3)
	r.set("attach_p99_us", all.attach.p(99)/1e3)
	r.set("coldstart_p50_us", all.coldstart.p(50)/1e3)
	if spec.sessions {
		r.set("steps_per_s", opsPerS)
		r.set("report_p50_us", all.report.p(50)/1e3)
		r.set("hit_ratio", float64(all.hits)/float64(max(all.warmAttaches, 1)))
	}

	r.set("mobile.register_ns", all.register.p(50))
	r.set("mobile.upload_cold_ns", all.upload.p(50))
	r.set("mobile.upload_units", float64(all.planUnits))
	r.set("mobile.est_error_pct", 100*all.estErrSum/float64(max(all.estErrN, 1)))
	r.set("mobile.chain_query_share", float64(all.cliChainQueries)/float64(max(all.cliQueries, 1)))
	r.set("mobile.retries", float64(all.cliRetries))
	r.set("mobile.reconnects", float64(all.cliReconnects))

	delta := func(name string) float64 { return float64(ph.after[name] - ph.before[name]) }
	r.set("master.plan_p50_us", ph.planP50/1e3)
	r.set("master.plan_p99_us", ph.planP99/1e3)
	r.set("master.plans_per_s", delta("master.plan_requests_total")/secs)
	r.set("master.migrations_ordered", delta("master.migrations_ordered_total"))
	r.set("master.migration_errors", delta("master.migration_errors_total"))
	r.set("master.chain_plans", delta("master.chain_plans_total"))
	r.set("master.chain_candidate_skips", delta("master.chain_candidate_skips_total"))
	r.set("edged.execs", delta("edged.execs_total"))
	r.set("edged.forwards", delta("edged.forwards_total"))
	r.set("edged.uploads", delta("edged.uploads_total"))
	r.set("edged.upload_bytes", delta("edged.upload_bytes_total"))
	r.set("edged.migrations", delta("edged.migrations_total"))
	reuse := ph.after["master.edge_pool_reuse_hits_total"] + ph.after["edged.peer_pool_reuse_hits_total"]
	dials := ph.after["master.edge_pool_dials_total"] + ph.after["edged.peer_pool_dials_total"]
	r.set("wire.pool_reuse_ratio", float64(reuse)/float64(max(reuse+dials, 1)))
	return opsPerS
}

// gateLive is the live correctness gate, over the cluster's whole life
// (warm-up included) once every client is closed and the daemons quiesced.
func gateLive(ph *livePhase, spec liveSpec, all *worker, r *result) {
	if all.ops.Load() == 0 {
		r.fail("no op succeeded in the measured window")
	}
	// Every hop of a chain query counts one exec; every bench query runs
	// after a full upload, so every query offloads.
	if got, want := ph.after["edged.execs_total"], all.sentSingle+all.sentHops; got != want {
		r.fail("edged execs_total %d, want %d (single-split queries %d + chain hops %d)",
			got, want, all.sentSingle, all.sentHops)
	}
	if all.cliFallbacks != 0 {
		r.fail("%d queries fell back to local execution or off their chain", all.cliFallbacks)
	}
	// Exactly-once pricing. Edges price what clients upload plus the
	// layers a migration push newly adds; a push is the whole plan or
	// nothing, and each priced push counts one edged upload.
	pushes := ph.after["edged.uploads_total"] - all.cliUploads
	if got, want := ph.after["edged.upload_bytes_total"], all.cliUploadBytes+pushes*all.planBytes; got != want {
		r.fail("edged upload_bytes_total %d, want %d (clients %d + %d pushes of %d)",
			got, want, all.cliUploadBytes, pushes, all.planBytes)
	}
	if spec.sessions && spec.maxHops <= 1 && float64(all.hits) < minHandoffHitRatio*float64(all.warmAttaches) {
		// Migration runs ahead of the client except when a session crosses
		// a cell border before the master has two points to predict from.
		r.fail("only %d of %d non-first attaches were full hits", all.hits, all.warmAttaches)
	}
	if spec.maxHops > 1 && all.cliChainQueries == 0 {
		r.fail("no query rode a multi-hop chain")
	}
}

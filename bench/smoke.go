package main

import (
	"fmt"
	"strings"
	"time"
)

// bypassed lists, per workload, the per-layer metrics (by name prefix) whose
// layer the workload does not run: those read 0 there. Every other
// per-layer metric must be measured. README.md states the same table.
var (
	bypassSim = []string{"sim_queries_per_s", "budget.sim.",
		"core.plancache_hit_ratio", "edgesim.total_queries", "edgesim.connections", "edgesim.hits", "edgesim.misses",
		"edgesim.partials", "edgesim.migrations", "edgesim.mean_latency_us", "edgesim.shard_speedup"}
	bypassLive = []string{"queries_per_s", "query_p", "steps_per_s", "attach_p", "report_p50_us", "coldstart_p50_us",
		"hit_ratio", "mobile.", "master.", "edged.", "wire.pool_reuse_ratio",
		"budget.query.", "budget.attach.", "budget.report.", "budget.coldstart."}
	bypassed = map[string][]string{
		"live-steady":  append([]string{"steps_per_s", "report_p50_us", "hit_ratio", "budget.report."}, bypassSim...),
		"live-handoff": bypassSim,
		"live-chain":   bypassSim,
		"city-sim":     bypassLive,
	}
)

func isBypassed(workload, metric string) bool {
	for _, p := range bypassed[workload] {
		if strings.HasPrefix(metric, p) {
			return true
		}
	}
	return false
}

// smokeOptions shrinks a run to a few hundred milliseconds per workload:
// the shape stays, only durations and iteration counts drop.
func smokeOptions(o options) options {
	o.seconds = 400 * time.Millisecond
	o.warmup = 100 * time.Millisecond
	o.trace = true
	o.setups = 1
	o.quick = true
	return o
}

// checkEmitted verifies that a traced run measured every end-to-end metric
// and every per-layer metric of the layers the workload runs, and nothing
// of the layers it bypasses.
func checkEmitted(r *result) error {
	for _, d := range endToEnd {
		if v, ok := r.Metrics[d.Name]; !ok || v.Value <= 0 || v.Unit != d.Unit {
			return fmt.Errorf("%s: end-to-end metric %s = %+v", r.Workload, d.Name, v)
		}
	}
	for _, d := range perLayer {
		v, set := r.Metrics[d.Name]
		switch by := isBypassed(r.Workload, d.Name); {
		case set && by:
			return fmt.Errorf("%s: %s is listed as bypassed but was measured", r.Workload, d.Name)
		case !set && !by:
			return fmt.Errorf("%s: per-layer metric %s was not measured", r.Workload, d.Name)
		case set && v.Unit != d.Unit:
			return fmt.Errorf("%s: %s has unit %q, want %q", r.Workload, d.Name, v.Unit, d.Unit)
		}
	}
	return nil
}

// runSmoke runs every workload briefly, traced, in this process.
func runSmoke(o options) error {
	o = smokeOptions(o)
	for _, w := range workloads {
		t0 := time.Now()
		r, err := measure(w.Name, o)
		if err != nil {
			return err
		}
		r.contractMetrics()
		if !r.Correct || r.Failed > 0 {
			return fmt.Errorf("%s: gate failed: %d of %d ops failed, %v", w.Name, r.Failed, r.Attempted, r.Problems)
		}
		if err := checkEmitted(r); err != nil {
			return err
		}
		fmt.Printf("smoke %-13s ok in %.1fs (%d metrics)\n", w.Name, time.Since(t0).Seconds(), len(r.Metrics))
	}
	return nil
}

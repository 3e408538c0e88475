package core

import (
	"fmt"

	"perdnn/internal/dnn"
	"perdnn/internal/geo"
	"perdnn/internal/mobility"
	"perdnn/internal/partition"
)

// MigrationPolicy decides where to proactively push a client's DNN layers
// (Section III.B.2): predict the client's next location from its recent
// trajectory, take every edge server within Radius of the prediction, and
// send the server-side layers of a speculative ("future") partitioning
// plan, truncated for crowded servers under fractional migration (Want).
type MigrationPolicy struct {
	// Predictor is the trained mobility predictor (linear SVR by default).
	Predictor mobility.Predictor
	// Placement maps locations to edge servers.
	Placement *geo.Placement
	// Radius is the paper's r: servers within this distance of the
	// predicted location receive layers (50 m or 100 m in the evaluation).
	Radius float64
	// HistoryLen is the trajectory length n (5 in the paper).
	HistoryLen int
	// TTLIntervals is how many prediction intervals migrated layers stay
	// cached at a server before being discarded (5 in the paper).
	TTLIntervals int
	// FractionCapBytes caps the bytes migrated to or from a crowded
	// server; nil or missing entries mean no cap (Section IV.B.5).
	FractionCapBytes map[geo.ServerID]int64
}

// Validate checks the policy is usable.
func (p *MigrationPolicy) Validate() error {
	if p.Predictor == nil {
		return fmt.Errorf("core: policy has no predictor")
	}
	if p.Placement == nil {
		return fmt.Errorf("core: policy has no placement")
	}
	if p.Radius <= 0 {
		return fmt.Errorf("core: policy radius %v", p.Radius)
	}
	if p.HistoryLen <= 0 {
		return fmt.Errorf("core: policy history length %d", p.HistoryLen)
	}
	if p.TTLIntervals <= 0 {
		return fmt.Errorf("core: policy TTL %d", p.TTLIntervals)
	}
	return nil
}

// Targets returns the servers near the client's predicted next location
// that should receive layers, excluding the client's current server (it
// already has them). The boolean reports whether a prediction was possible.
// It is AppendTargets into a fresh slice, kept because the benchmark module
// (bench/probes.go) calls it.
func (p *MigrationPolicy) Targets(recent []geo.Point, current geo.ServerID) ([]geo.ServerID, bool) {
	return p.AppendTargets(nil, recent, current)
}

// AppendTargets appends Targets' servers to dst and returns the extended
// slice. A caller that reuses dst allocates nothing; the policy only reads,
// so goroutines with buffers of their own may share it.
func (p *MigrationPolicy) AppendTargets(dst []geo.ServerID, recent []geo.Point, current geo.ServerID) ([]geo.ServerID, bool) {
	if len(recent) == 0 {
		return dst, false
	}
	if len(recent) > p.HistoryLen {
		recent = recent[len(recent)-p.HistoryLen:]
	}
	pt, ok := p.Predictor.PredictPoint(recent)
	if !ok {
		// Discrete predictor: take its top-ranked servers directly and
		// keep those within radius of the top prediction's center.
		ranked := p.Predictor.Rank(recent, 2)
		if len(ranked) == 0 {
			return dst, false
		}
		pt = p.Placement.Center(ranked[0])
	}
	// Drop the current server from what Within appended, in place.
	all := p.Placement.Within(dst, pt, p.Radius)
	out := all[:len(dst)]
	for _, id := range all[len(dst):] {
		if id != current {
			out = append(out, id)
		}
	}
	return out, true
}

// CapBytes returns the migration byte budget for a transfer from src to
// dst given the fractional-migration caps; the tighter endpoint wins.
// A negative result means unlimited.
func (p *MigrationPolicy) CapBytes(src, dst geo.ServerID) int64 {
	if p.FractionCapBytes == nil {
		return -1
	}
	budget := int64(-1)
	if c, ok := p.FractionCapBytes[src]; ok {
		budget = c
	}
	if c, ok := p.FractionCapBytes[dst]; ok && (budget < 0 || c < budget) {
		budget = c
	}
	return budget
}

// Want returns what dst should hold of e when the client's layers move
// there from src, and how many of e's layers the fractional cap dropped.
// Uncapped, the set is e.Layers itself, shared and read-only; under a cap
// it is the schedule prefix that fits CapBytes(src, dst).
func (p *MigrationPolicy) Want(e *PlanEntry, src, dst geo.ServerID) (dnn.LayerSet, int) {
	cap := p.CapBytes(src, dst)
	if cap < 0 {
		return e.Layers, 0
	}
	sched := partition.TruncateSchedule(e.Schedule, cap)
	if len(sched) == len(e.Schedule) {
		return e.Layers, 0
	}
	want := partition.ScheduleSet(sched, e.Plan.Model.NumLayers())
	return want, e.Layers.Count() - want.Count()
}

package partition

import (
	"perdnn/internal/dnn"
)

// UploadUnit is one step of the incremental upload / proactive migration
// schedule: a contiguous run of server-side layers, its weight size, and
// the latency improvement per byte it was selected for.
type UploadUnit struct {
	// Layers are the unit's layer IDs in topological order.
	Layers []dnn.LayerID
	// Bytes is the total weight size of the unit.
	Bytes int64
	// Efficiency is the estimated latency reduction per megabyte at
	// selection time (seconds per MB).
	Efficiency float64
}

// UploadSchedule orders the plan's server-side layers for transmission
// using the efficiency-first strategy of Section III.C.2 (see
// Solver.UploadSchedule). It is a convenience wrapper around a pooled
// Solver; hot callers that schedule repeatedly should hold their own.
func UploadSchedule(req Request, plan *Plan) ([]UploadUnit, error) {
	s := solverPool.Get().(*Solver)
	defer solverPool.Put(s)
	return s.UploadSchedule(req, plan)
}

// SequentialSchedule returns the naive front-to-back upload order: the
// plan's server-side layers in topological order, chunked into units of at
// most chunk layers (16 when chunk <= 0). It is the ablation baseline for
// the efficiency-first schedule.
func SequentialSchedule(plan *Plan, chunk int) []UploadUnit {
	if chunk <= 0 {
		chunk = 16
	}
	return chunkLayers(plan.Model, plan.ServerLayers(), chunk)
}

// chunkLayers splits ids into contiguous runs of at most chunk layers.
func chunkLayers(m *dnn.Model, ids []dnn.LayerID, chunk int) []UploadUnit {
	units := make([]UploadUnit, 0, len(ids)/chunk+1)
	for start := 0; start < len(ids); {
		end := start + 1
		// Units stay contiguous and bounded.
		for end < len(ids) && end-start < chunk && ids[end] == ids[end-1]+1 {
			end++
		}
		run := ids[start:end]
		var bytes int64
		for _, id := range run {
			bytes += m.Layer(id).WeightBytes
		}
		units = append(units, UploadUnit{Layers: append([]dnn.LayerID(nil), run...), Bytes: bytes})
		start = end
	}
	return units
}

// TruncateSchedule returns the longest prefix of units whose total size
// stays within maxBytes, for fractional migration to crowded servers
// (Section IV.B.5). The prefix stops at the first unit that does not fit,
// so a first unit larger than maxBytes yields no units even when a later
// one would fit alone; maxBytes <= 0 returns nil.
func TruncateSchedule(units []UploadUnit, maxBytes int64) []UploadUnit {
	if maxBytes <= 0 {
		return nil
	}
	var sum int64
	out := make([]UploadUnit, 0, len(units))
	for _, u := range units {
		if sum+u.Bytes > maxBytes {
			break
		}
		out = append(out, u)
		sum += u.Bytes
	}
	return out
}

// ScheduleBytes returns the total size of the scheduled units.
func ScheduleBytes(units []UploadUnit) int64 {
	var sum int64
	for _, u := range units {
		sum += u.Bytes
	}
	return sum
}

// ScheduleSet returns the layers of the units as a set sized for a model
// with n layers.
func ScheduleSet(units []UploadUnit, n int) dnn.LayerSet {
	s := dnn.NewLayerSet(n)
	for _, u := range units {
		s.AddAll(u.Layers)
	}
	return s
}

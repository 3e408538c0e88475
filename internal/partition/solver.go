package partition

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"perdnn/internal/dnn"
)

// solveStep is one position's backtracking record in the Fig 5 shortest-path
// DP: for each side, whether the best path switched sides at this position
// before executing the next layer.
type solveStep struct {
	switchedAt [2]bool
}

// Solver runs the partitioning algorithms with reusable scratch memory.
// After the first call on a given model size, Partition and Decompose run
// with zero steady-state heap allocations, and UploadSchedule allocates only
// the units it returns. The master re-partitions constantly as GPU load and
// client position change, so this is the planning hot path.
//
// A Solver is NOT safe for concurrent use; give each goroutine its own (the
// package-level Partition/UploadSchedule wrappers draw from a pool). Results
// that alias solver scratch — Solver.Partition's plan — are valid only until
// the next call on the same solver.
type Solver struct {
	// Shortest-path scratch.
	crossUp, crossDown []time.Duration
	steps              []solveStep
	loc                []Location
	plan               Plan

	// Upload-schedule scratch.
	uploadLoc []Location    // current prefix assignment under evaluation
	remaining []bool        // server-side layers not yet scheduled
	ids       []dnn.LayerID // remaining layers in topological order
}

// NewSolver returns a solver with empty scratch; buffers grow to the largest
// model seen and are reused afterwards.
func NewSolver() *Solver { return &Solver{} }

// solverPool backs the package-level wrappers so ad-hoc callers share
// warmed-up scratch instead of re-allocating per call.
var solverPool = sync.Pool{New: func() any { return NewSolver() }}

// grow returns buf resized to n, reallocating only when capacity is short.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Partition computes the minimum-latency partitioning plan for one client /
// server pair using the graph-based algorithm of Fig 5: the model is
// unrolled into a DAG of (position, side) nodes where advancing along a
// side costs that side's layer execution time and switching sides costs the
// transfer of every tensor crossing the frontier at that position; the
// cheapest source-to-sink path is the optimal plan.
//
// For chain models this is exactly IONN's shortest-path construction. For
// branchy models (ResNet, Inception) the frontier is taken along the
// topological order, which restricts side switches to positions where the
// crossing tensor set is explicit — the same monotone-frontier treatment
// IONN applies, and exact for every plan whose server segment set is
// contiguous in topological order.
//
// The returned plan (including its Loc slice) aliases solver scratch and is
// valid until the next call on this solver; use Plan.Clone (or the package
// Partition wrapper) when it must outlive the solver.
func (s *Solver) Partition(req Request) (*Plan, error) {
	if req.Profile == nil || req.Profile.Model == nil {
		return nil, errors.New("partition: request has no profile")
	}
	if req.Slowdown < 1 {
		return nil, fmt.Errorf("partition: slowdown %v < 1", req.Slowdown)
	}
	if req.Link.UpBps <= 0 || req.Link.DownBps <= 0 {
		return nil, fmt.Errorf("partition: non-positive bandwidth %+v", req.Link)
	}
	m := req.Profile.Model
	n := m.NumLayers()

	s.frontierCosts(m, req.Link)

	const (
		client = 0
		server = 1
	)
	// dist[side] is the best cost to reach the frontier at position p on
	// side. steps tracks the argmin for backtracking: for each position
	// and side, whether we switched sides at p before executing layer p.
	dist := [2]float64{0, math.Inf(1)}
	s.steps = grow(s.steps, n+1)

	for p := 0; p <= n; p++ {
		// Side switches at position p.
		var st solveStep
		if viaServer := dist[server] + s.crossDown[p].Seconds(); viaServer < dist[client] {
			dist[client] = viaServer
			st.switchedAt[client] = true
		}
		if viaClient := dist[client] + s.crossUp[p].Seconds(); viaClient < dist[server] {
			// Note: uses the already-updated dist[client]; a double
			// switch (S->C->S) at one position is never cheaper than
			// staying, so this cannot create a spurious path.
			dist[server] = viaClient
			st.switchedAt[server] = true
		}
		s.steps[p] = st
		if p == n {
			break
		}
		// Execute layer p on each side.
		dist[client] += req.Profile.ClientTime[p].Seconds()
		dist[server] += req.serverTime(p).Seconds()
	}

	// The answer must end at the client (crossDown[n] covers returning the
	// final output, folded into the position-n switch above).
	s.loc = grow(s.loc, n)
	loc := s.loc
	side := int8(client)
	if s.steps[n].switchedAt[client] {
		side = server
	}
	for p := n - 1; p >= 0; p-- {
		if side == client {
			loc[p] = AtClient
		} else {
			loc[p] = AtServer
		}
		if s.steps[p].switchedAt[side] {
			side = 1 - side
		}
	}

	lat, err := Evaluate(req, loc)
	if err != nil {
		return nil, fmt.Errorf("partition: evaluating solution: %w", err)
	}
	s.plan = Plan{
		Model:      m,
		Loc:        loc,
		EstLatency: lat,
		Slowdown:   req.Slowdown,
		Link:       req.Link,
	}
	return &s.plan, nil
}

// frontierCosts fills s.crossUp/s.crossDown with, for every frontier
// position p in 0..n, the cost of switching execution from client to server
// (crossUp) or server to client (crossDown) at p: the transfer time of the
// topology's crossing bytes at p (dnn.Topology.Cross). Position n accounts
// for returning the final output to the client in crossDown[n] (and makes
// crossUp[n] unreachable: execution may not end on the server).
func (s *Solver) frontierCosts(m *dnn.Model, link Link) {
	cross := m.Topo().Cross
	n := m.NumLayers()
	s.crossUp = grow(s.crossUp, n+1)
	s.crossDown = grow(s.crossDown, n+1)
	for p, bytes := range cross {
		s.crossUp[p] = link.UpTime(bytes)
		s.crossDown[p] = link.DownTime(bytes)
	}
	s.crossUp[n] = time.Duration(math.MaxInt64 / 4)
}

// UploadSchedule orders the plan's server-side layers for transmission
// using the efficiency-first strategy of Section III.C.2: among all
// contiguous runs of not-yet-uploaded server-side layers, repeatedly pick
// the one with the highest latency-reduction-per-byte, until everything is
// scheduled. The same schedule orders client uploads and server-to-server
// proactive migration.
//
// Candidate runs are costed against a single reused location scratch (flip
// the run to the server, evaluate, flip back) instead of materializing a
// fresh assignment map per candidate; only the returned units allocate.
func (s *Solver) UploadSchedule(req Request, plan *Plan) ([]UploadUnit, error) {
	m := plan.Model
	serverSide := plan.ServerLayers()
	if len(serverSide) == 0 {
		return nil, nil
	}
	n := m.NumLayers()

	s.uploadLoc = grow(s.uploadLoc, n)
	s.remaining = grow(s.remaining, n)
	for i := 0; i < n; i++ {
		s.uploadLoc[i] = AtClient
		s.remaining[i] = false
	}
	left := len(serverSide)
	for _, id := range serverSide {
		s.remaining[id] = true
	}

	baseLat, err := Evaluate(req, s.uploadLoc)
	if err != nil {
		return nil, fmt.Errorf("partition: upload schedule: %w", err)
	}

	units := make([]UploadUnit, 0, 4)
	for left > 0 {
		best, bestLat, err := s.bestRun(req, m, baseLat)
		if err != nil {
			return nil, err
		}
		units = append(units, best)
		for _, id := range best.Layers {
			s.uploadLoc[id] = AtServer
			s.remaining[id] = false
			left--
		}
		baseLat = bestLat
	}
	return units, nil
}

// bestRun evaluates every contiguous run of remaining server-side layers
// and returns the one with the highest latency reduction per byte, along
// with the latency after uploading it. s.uploadLoc holds the already
// uploaded assignment and is restored before returning.
func (s *Solver) bestRun(req Request, m *dnn.Model, baseLat time.Duration) (UploadUnit, time.Duration, error) {
	// Maximal blocks of remaining layers, contiguous in topological order.
	s.ids = s.ids[:0]
	for i := 0; i < m.NumLayers(); i++ {
		if s.remaining[i] {
			s.ids = append(s.ids, dnn.LayerID(i))
		}
	}
	ids := s.ids

	var (
		best     UploadUnit
		bestLat  time.Duration
		bestEff  = -1.0
		haveBest bool
	)
	blockStart := 0
	for i := 1; i <= len(ids); i++ {
		if i != len(ids) && ids[i] == ids[i-1]+1 {
			continue
		}
		block := ids[blockStart:i]
		blockStart = i

		// All contiguous runs within the block. For very long blocks the
		// candidate endpoints are subsampled on a stride grid, bounding
		// the search to ~32x32 runs per block with negligible effect on
		// the schedule (neighbouring endpoints have near-identical
		// efficiency).
		stride := (len(block) + 31) / 32
		for a := 0; a < len(block); a += stride {
			for b := a; b < len(block); b += stride {
				end := b + stride - 1
				if end >= len(block) {
					end = len(block) - 1
				}
				run := block[a : end+1]
				var bytes int64
				for _, id := range run {
					s.uploadLoc[id] = AtServer
					bytes += m.Layers[id].WeightBytes
				}
				lat, err := Evaluate(req, s.uploadLoc)
				for _, id := range run {
					s.uploadLoc[id] = AtClient
				}
				if err != nil {
					return UploadUnit{}, 0, fmt.Errorf("partition: evaluating run: %w", err)
				}
				mb := float64(bytes)/(1<<20) + 1e-9
				eff := (baseLat - lat).Seconds() / mb
				// Normalize by size: prefer small high-benefit runs. Ties
				// and negative benefits fall through to the largest-gain
				// run so progress is always made.
				if eff > bestEff {
					bestEff = eff
					bestLat = lat
					best = UploadUnit{Layers: append([]dnn.LayerID(nil), run...), Bytes: bytes, Efficiency: eff}
					haveBest = true
				}
			}
		}
	}
	if !haveBest {
		return UploadUnit{}, 0, fmt.Errorf("partition: no uploadable run among %d layers", len(ids))
	}
	return best, bestLat, nil
}

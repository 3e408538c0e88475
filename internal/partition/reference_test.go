package partition

import (
	"errors"
	"fmt"
	"math"
	"time"

	"perdnn/internal/dnn"
	"perdnn/internal/gpusim"
	"perdnn/internal/profile"
)

// This file preserves the pre-optimization (PR 5) planning implementations
// byte for byte: the quadratic frontier-cost rescan, the per-call successor
// rebuild, and the map-based assignment bookkeeping. They exist for two
// reasons, which is why they live in a _test.go file:
//
//   - Equivalence oracles: the solver tests prove Solver.Partition,
//     Solver.UploadSchedule, Decompose, and Evaluate return bit-identical
//     results against these references over the model zoo x slowdown x link
//     grid, so the scratch-buffer fast paths cannot silently drift.
//   - Perf trajectory: BenchmarkReferencePartition runs solver and
//     reference in one test binary, so the solver's speedup (EXPERIMENTS.md
//     "Hot-path performance") stays measurable under identical conditions.

// referenceSuccessors rebuilds the successor table the way Model.Successors
// did before topology caching: a fresh [][]LayerID per call.
func referenceSuccessors(m *dnn.Model) [][]dnn.LayerID {
	succ := make([][]dnn.LayerID, len(m.Layers))
	for i := range m.Layers {
		for _, in := range m.Layers[i].Inputs {
			succ[in] = append(succ[in], dnn.LayerID(i))
		}
	}
	return succ
}

// withOffloaded returns the assignment that runs exactly the layers in
// offloaded on the server and everything else on the client.
func withOffloaded(m *dnn.Model, offloaded map[dnn.LayerID]bool) []Location {
	loc := AllClient(m)
	for id, ok := range offloaded {
		if ok {
			loc[id] = AtServer
		}
	}
	return loc
}

// allServer returns the all-server assignment for the model.
func allServer(m *dnn.Model) []Location {
	loc := make([]Location, m.NumLayers())
	for i := range loc {
		loc[i] = AtServer
	}
	return loc
}

// ReferenceEvaluate is the pre-PR5 Evaluate: identical math, but it rebuilds
// the successor table on every call.
func ReferenceEvaluate(req Request, loc []Location) (time.Duration, error) {
	m := req.Profile.Model
	if len(loc) != m.NumLayers() {
		return 0, fmt.Errorf("partition: %d locations for %d layers", len(loc), m.NumLayers())
	}
	var total time.Duration
	for i := range m.Layers {
		switch loc[i] {
		case AtClient:
			total += req.Profile.ClientTime[i]
		case AtServer:
			total += req.serverTime(i)
		default:
			return 0, fmt.Errorf("partition: layer %d has invalid location %v", i, loc[i])
		}
	}
	if loc[0] == AtServer {
		total += req.Link.UpTime(m.Layers[0].InputBytes())
	}
	succ := referenceSuccessors(m)
	for i := range m.Layers {
		var toServer, toClient bool
		for _, s := range succ[i] {
			if loc[s] != loc[i] {
				if loc[s] == AtServer {
					toServer = true
				} else {
					toClient = true
				}
			}
		}
		if toServer {
			total += req.Link.UpTime(m.Layers[i].OutputBytes())
		}
		if toClient {
			total += req.Link.DownTime(m.Layers[i].OutputBytes())
		}
	}
	last := int(m.OutputLayer())
	if loc[last] == AtServer {
		total += req.Link.DownTime(m.Layers[last].OutputBytes())
	}
	return total, nil
}

// ReferenceDecompose is the pre-PR5 Decompose: identical math, but it
// rebuilds the successor table on every call.
func ReferenceDecompose(prof *profile.ModelProfile, loc []Location) Split {
	m := prof.Model
	if len(loc) != m.NumLayers() {
		panic("partition: Decompose location count mismatch")
	}
	var sp Split
	var intensityWeight float64
	for i := range m.Layers {
		switch loc[i] {
		case AtClient:
			sp.ClientTime += prof.ClientTime[i]
		case AtServer:
			base := prof.ServerBase[i]
			sp.ServerBase += base
			sp.Intensity += gpusim.Intensity(&m.Layers[i]) * base.Seconds()
			intensityWeight += base.Seconds()
		default:
			panic("partition: Decompose invalid location")
		}
	}
	if intensityWeight > 0 {
		sp.Intensity /= intensityWeight
	}
	if loc[0] == AtServer {
		sp.UpBytes += m.Layers[0].InputBytes()
	}
	succ := referenceSuccessors(m)
	for i := range m.Layers {
		var toServer, toClient bool
		for _, s := range succ[i] {
			if loc[s] != loc[i] {
				if loc[s] == AtServer {
					toServer = true
				} else {
					toClient = true
				}
			}
		}
		if toServer {
			sp.UpBytes += m.Layers[i].OutputBytes()
		}
		if toClient {
			sp.DownBytes += m.Layers[i].OutputBytes()
		}
	}
	last := int(m.OutputLayer())
	if loc[last] == AtServer {
		sp.DownBytes += m.Layers[last].OutputBytes()
	}
	return sp
}

// referenceFrontierCosts is the pre-PR5 quadratic frontier sweep: for each
// position it rescans every earlier layer for membership in the crossing
// set.
func referenceFrontierCosts(m *dnn.Model, link Link) (crossUp, crossDown []time.Duration) {
	n := m.NumLayers()
	crossUp = make([]time.Duration, n+1)
	crossDown = make([]time.Duration, n+1)

	succ := referenceSuccessors(m)
	lastUse := make([]int, n)
	for i := range m.Layers {
		lastUse[i] = i
		for _, s := range succ[i] {
			if int(s) > lastUse[i] {
				lastUse[i] = int(s)
			}
		}
	}
	for p := 0; p <= n; p++ {
		var bytes int64
		if p == 0 {
			bytes = m.Layers[0].InputBytes()
		} else {
			for i := 0; i < p; i++ {
				if lastUse[i] >= p {
					bytes += m.Layers[i].OutputBytes()
				}
			}
		}
		crossUp[p] = link.UpTime(bytes)
		crossDown[p] = link.DownTime(bytes)
	}
	crossDown[n] = link.DownTime(m.Layers[n-1].OutputBytes())
	crossUp[n] = time.Duration(math.MaxInt64 / 4)
	return crossUp, crossDown
}

// ReferencePartition is the pre-PR5 Partition: the same Fig 5 shortest-path
// DP, with per-call allocation of every working structure and the quadratic
// frontier sweep.
func ReferencePartition(req Request) (*Plan, error) {
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

	crossUp, crossDown := referenceFrontierCosts(m, req.Link)

	const (
		client = 0
		server = 1
	)
	dist := [2]float64{0, math.Inf(1)}
	type step struct {
		switchedAt [2]bool
	}
	steps := make([]step, n+1)

	for p := 0; p <= n; p++ {
		var st step
		if viaServer := dist[server] + crossDown[p].Seconds(); viaServer < dist[client] {
			dist[client] = viaServer
			st.switchedAt[client] = true
		}
		if viaClient := dist[client] + crossUp[p].Seconds(); viaClient < dist[server] {
			dist[server] = viaClient
			st.switchedAt[server] = true
		}
		steps[p] = st
		if p == n {
			break
		}
		dist[client] += req.Profile.ClientTime[p].Seconds()
		dist[server] += req.serverTime(p).Seconds()
	}

	loc := make([]Location, n)
	side := int8(client)
	if steps[n].switchedAt[client] {
		side = server
	}
	for p := n - 1; p >= 0; p-- {
		if side == client {
			loc[p] = AtClient
		} else {
			loc[p] = AtServer
		}
		if steps[p].switchedAt[side] {
			side = 1 - side
		}
	}

	lat, err := ReferenceEvaluate(req, loc)
	if err != nil {
		return nil, fmt.Errorf("partition: evaluating solution: %w", err)
	}
	return &Plan{
		Model:      m,
		Loc:        loc,
		EstLatency: lat,
		Slowdown:   req.Slowdown,
		Link:       req.Link,
	}, nil
}

// ReferenceUploadSchedule is the pre-PR5 UploadSchedule: the same
// efficiency-first selection, with map-based bookkeeping and a fresh
// assignment materialized per candidate run.
func ReferenceUploadSchedule(req Request, plan *Plan) ([]UploadUnit, error) {
	m := plan.Model
	serverSide := plan.ServerLayers()
	if len(serverSide) == 0 {
		return nil, nil
	}

	uploaded := make(map[dnn.LayerID]bool, len(serverSide))
	remaining := make(map[dnn.LayerID]bool, len(serverSide))
	for _, id := range serverSide {
		remaining[id] = true
	}

	baseLat, err := ReferenceEvaluate(req, withOffloaded(m, uploaded))
	if err != nil {
		return nil, fmt.Errorf("partition: upload schedule: %w", err)
	}

	units := make([]UploadUnit, 0, 4)
	for len(remaining) > 0 {
		best, bestLat, err := referenceBestRun(req, m, uploaded, remaining, baseLat)
		if err != nil {
			return nil, err
		}
		units = append(units, best)
		for _, id := range best.Layers {
			uploaded[id] = true
			delete(remaining, id)
		}
		baseLat = bestLat
	}
	return units, nil
}

func referenceBestRun(req Request, m *dnn.Model, uploaded, remaining map[dnn.LayerID]bool, baseLat time.Duration) (UploadUnit, time.Duration, error) {
	ids := make([]dnn.LayerID, 0, len(remaining))
	for i := 0; i < m.NumLayers(); i++ {
		if remaining[dnn.LayerID(i)] {
			ids = append(ids, dnn.LayerID(i))
		}
	}
	blocks := make([][]dnn.LayerID, 0, 4)
	start := 0
	for i := 1; i <= len(ids); i++ {
		if i == len(ids) || ids[i] != ids[i-1]+1 {
			blocks = append(blocks, ids[start:i])
			start = i
		}
	}

	var (
		best     UploadUnit
		bestLat  time.Duration
		bestEff  = -1.0
		haveBest bool
	)
	trial := make(map[dnn.LayerID]bool, len(uploaded)+len(ids))
	for _, block := range blocks {
		stride := (len(block) + 31) / 32
		for a := 0; a < len(block); a += stride {
			for b := a; b < len(block); b += stride {
				end := b + stride - 1
				if end >= len(block) {
					end = len(block) - 1
				}
				run := block[a : end+1]
				var bytes int64
				for id := range trial {
					delete(trial, id)
				}
				for id := range uploaded {
					trial[id] = true
				}
				for _, id := range run {
					trial[id] = true
					bytes += m.Layers[id].WeightBytes
				}
				lat, err := ReferenceEvaluate(req, withOffloaded(m, trial))
				if err != nil {
					return UploadUnit{}, 0, fmt.Errorf("partition: evaluating run: %w", err)
				}
				mb := float64(bytes)/(1<<20) + 1e-9
				eff := (baseLat - lat).Seconds() / mb
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
		return UploadUnit{}, 0, fmt.Errorf("partition: no uploadable run among %d layers", len(remaining))
	}
	return best, bestLat, nil
}

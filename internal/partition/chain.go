package partition

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"perdnn/internal/dnn"
	"perdnn/internal/gpusim"
	"perdnn/internal/profile"
)

// Objective selects what the chain partitioner minimizes.
type Objective int

const (
	// ObjectiveLatency minimizes the end-to-end latency of a single query:
	// client prefix + per-hop transfers and execution + the trip home. At
	// MaxHops == 1 this is exactly the Fig 5 single-split problem and
	// PlanChain delegates to Solver.Partition, so the classic solver falls
	// out as the K=1 special case bit for bit.
	ObjectiveLatency Objective = iota
	// ObjectiveThroughput minimizes the bottleneck stage time of the
	// pipeline (SEIFER-style): with queries streaming through the chain,
	// steady-state throughput is 1/bottleneck, so the best chain is the one
	// whose slowest stage is fastest.
	ObjectiveThroughput
)

// String implements fmt.Stringer.
func (o Objective) String() string {
	switch o {
	case ObjectiveLatency:
		return "latency"
	case ObjectiveThroughput:
		return "throughput"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// ServerSpec describes one candidate edge server offered to the chain
// partitioner: identity, estimated contention slowdown, a memory budget for
// the weights it can host, and the backhaul link it receives activations
// over when it is not the first hop.
type ServerSpec struct {
	// ID is the caller's identifier for the server (geo.ServerID in the
	// sim, an index on the live path). It is carried through to the plan.
	ID int
	// Addr is the server's wire address on the live path ("" in the sim).
	Addr string
	// Slowdown scales the profile's contention-free execution times on this
	// server; it comes from the GPU-aware slowdown estimator. Must be >= 1.
	Slowdown float64
	// MemBytes caps the weight bytes the server can host; 0 means
	// unlimited. Segments whose weights exceed the budget are never placed
	// on the server.
	MemBytes int64
	// Link is the ingress backhaul the server receives activations over
	// when it is hop 2 or later (hop 1 always receives over the client
	// link). The zero value means DefaultBackhaul().
	Link Link
}

// DefaultBackhaul returns the link assumed between adjacent edge servers
// when a ServerSpec does not name one: wired gigabit with a short RTT, the
// regime where edge clusters live (far faster than the client's Wi-Fi, so
// inter-hop forwarding is cheap relative to the first hop).
func DefaultBackhaul() Link {
	return Link{UpBps: 1e9, DownBps: 1e9, RTT: 2 * time.Millisecond}
}

// ChainRequest carries everything the chain partitioner needs: the model
// profile, the client link, the ordered candidate servers, the hop budget,
// and the objective.
type ChainRequest struct {
	Profile *profile.ModelProfile
	// Link is the client's uplink/downlink — hop 1 receives over it and the
	// final activation returns to the client over it.
	Link Link
	// Servers are the candidate servers in chain order. A plan uses an
	// order-preserving subsequence of them: the physical chain the master
	// assembles (nearest server first, then its backhaul neighbours) fixes
	// who can forward to whom, so the planner picks which candidates to
	// use, not how to permute them.
	Servers []ServerSpec
	// MaxHops caps the number of segments placed on servers (K). 0 means
	// len(Servers).
	MaxHops int
	// Objective selects latency or throughput optimization.
	Objective Objective
}

// Hop is one server-side segment of a chain plan.
type Hop struct {
	// Server is the candidate this segment runs on.
	Server ServerSpec
	// Layers are the segment's layer IDs in topological order. Chain-DP
	// plans are contiguous; delegated single-split plans may not be.
	Layers []dnn.LayerID
	// Bytes is the total weight size of the segment — what must be present
	// on the server before the hop runs at full speed.
	Bytes int64
	// InBytes is the activation bytes entering this hop from the previous
	// stage (client input or the upstream server's live tensors).
	InBytes int64
	// Transfer is the estimated ingress transfer time of InBytes.
	Transfer time.Duration
	// Exec is the segment execution time at Server.Slowdown.
	Exec time.Duration
	// BaseExec is the contention-free segment execution time (what the live
	// path ships as a hop's ExecReq.ServerBaseNs, and as each entry of the
	// ExecReq.Next a relay carries; each edged scales it by its own live GPU
	// state).
	BaseExec time.Duration
	// Intensity is the weighted gpusim memory intensity of the segment.
	Intensity float64
}

// ChainPlan is a multi-hop partitioning plan: an ordered list of server
// segments with the client prefix/suffix around them, plus the latency and
// bottleneck estimates both objectives report.
//
// A ChainPlan with zero hops runs everything on the client; a ChainPlan
// with one hop is a classic single-split plan (and Split returns it in the
// legacy form).
type ChainPlan struct {
	Model *dnn.Model
	// Hops are the server segments in execution order.
	Hops []Hop
	// ClientPre is the client-side execution time before the first hop.
	// For delegated (possibly non-contiguous) single-split plans all client
	// work is folded here.
	ClientPre time.Duration
	// ClientPost is the client-side execution time after the last hop.
	ClientPost time.Duration
	// DownBytes is the activation bytes returning to the client after the
	// last hop.
	DownBytes int64
	// EstLatency is the estimated end-to-end latency of one query through
	// the chain.
	EstLatency time.Duration
	// Bottleneck is the slowest pipeline stage (client prefix, each hop's
	// transfer+execution, or downlink+client suffix). Steady-state pipeline
	// throughput is 1/Bottleneck.
	Bottleneck time.Duration
	// Objective is what the plan was optimized for.
	Objective Objective
	// Link is the client link the plan was computed with.
	Link Link

	prof     *profile.ModelProfile
	fallback *Plan // best single-split plan over the candidates
}

// NumHops returns the number of server segments.
func (p *ChainPlan) NumHops() int { return len(p.Hops) }

// ServerBytes returns the total weight bytes across all hops.
func (p *ChainPlan) ServerBytes() int64 {
	var sum int64
	for i := range p.Hops {
		sum += p.Hops[i].Bytes
	}
	return sum
}

// NumServerLayers returns the number of layers placed on servers.
func (p *ChainPlan) NumServerLayers() int {
	n := 0
	for i := range p.Hops {
		n += len(p.Hops[i].Layers)
	}
	return n
}

// Split returns the best single-split Plan over the request's candidates —
// the failover target when a chain breaks, and the exact Fig 5 result when
// the plan was computed at MaxHops == 1 under ObjectiveLatency. The result
// is owned by the ChainPlan; Clone it if it must outlive the plan.
func (p *ChainPlan) Split() *Plan { return p.fallback }

// UploadSchedule orders the plan's server-side layers for transmission.
// Single-hop plans use the exact efficiency-first schedule of Section
// III.C.2 (bit-identical to UploadSchedule on the equivalent single-split
// plan). Multi-hop plans schedule each hop's segment in chain order —
// earlier hops unblock first — chunked into contiguous runs; the
// per-megabyte efficiency refinement does not apply across hops because
// each hop's weights travel to a different server.
func (p *ChainPlan) UploadSchedule() ([]UploadUnit, error) {
	if p.fallback == nil {
		return nil, errors.New("partition: chain plan has no fallback split")
	}
	if len(p.Hops) <= 1 {
		req := Request{Profile: p.prof, Slowdown: p.fallback.Slowdown, Link: p.fallback.Link}
		return UploadSchedule(req, p.fallback)
	}
	var units []UploadUnit
	for h := range p.Hops {
		units = append(units, chunkLayers(p.Model, p.Hops[h].Layers, 16)...)
	}
	return units, nil
}

// String implements fmt.Stringer with a compact summary.
func (p *ChainPlan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chain[%s/%s]: %d hops, %d/%d layers offloaded, est %v, bottleneck %v",
		p.Model.Name, p.Objective, len(p.Hops), p.NumServerLayers(), p.Model.NumLayers(),
		p.EstLatency.Round(time.Millisecond), p.Bottleneck.Round(time.Millisecond))
	return b.String()
}

// PlanChain splits the model into up to MaxHops contiguous segments placed
// on an order-preserving subsequence of the candidate servers, minimizing
// the requested objective under each server's memory budget. The DP runs
// over the cached dnn.Topology: segment boundaries are frontier positions
// in topological order, and the activation crossing a boundary is the exact
// byte total of every tensor alive there (the same incremental sweep the
// Fig 5 solver uses), which is also exactly what the live path forwards —
// tensors produced before a hop and consumed after it ride the chain
// through it.
//
// Under ObjectiveLatency with MaxHops == 1 the problem is the classic
// single-split one and PlanChain delegates to Solver.Partition, so the
// result is bit-identical to the existing solver (including its ability to
// offload non-contiguous layer sets).
func PlanChain(req ChainRequest) (*ChainPlan, error) {
	if req.Profile == nil || req.Profile.Model == nil {
		return nil, errors.New("partition: chain request has no profile")
	}
	if req.Link.UpBps <= 0 || req.Link.DownBps <= 0 {
		return nil, fmt.Errorf("partition: non-positive client bandwidth %+v", req.Link)
	}
	if len(req.Servers) == 0 {
		return nil, errors.New("partition: chain request has no candidate servers")
	}
	if req.MaxHops < 0 {
		return nil, fmt.Errorf("partition: negative MaxHops %d", req.MaxHops)
	}
	sc := chainScratchPool.Get().(*chainScratch)
	defer chainScratchPool.Put(sc)
	sc.servers = grow(sc.servers, len(req.Servers))
	servers := sc.servers
	copy(servers, req.Servers)
	for i := range servers {
		if servers[i].Slowdown < 1 {
			return nil, fmt.Errorf("partition: server %d slowdown %v < 1", servers[i].ID, servers[i].Slowdown)
		}
		if servers[i].MemBytes < 0 {
			return nil, fmt.Errorf("partition: server %d negative memory budget", servers[i].ID)
		}
		if servers[i].Link == (Link{}) {
			servers[i].Link = DefaultBackhaul()
		}
		if servers[i].Link.UpBps <= 0 || servers[i].Link.DownBps <= 0 {
			return nil, fmt.Errorf("partition: server %d non-positive backhaul bandwidth", servers[i].ID)
		}
	}
	req.Servers = servers

	fallback, fbSpec, err := bestSingleSplit(req)
	if err != nil {
		return nil, err
	}

	if req.Objective == ObjectiveLatency && maxHops(req) == 1 {
		return delegatedChainPlan(req, fallback, fbSpec), nil
	}
	plan, err := planChainDP(req, sc)
	if err != nil {
		return nil, err
	}
	plan.fallback = fallback
	return plan, nil
}

// WrapSplit lifts an existing single-split plan (Fig 5 or min-cut) into
// the unified chain form: one hop holding the plan's server layers, the
// plan itself as the Split() fallback, estimates copied bit for bit.
func WrapSplit(prof *profile.ModelProfile, plan *Plan) *ChainPlan {
	return delegatedChainPlan(
		ChainRequest{Profile: prof, Link: plan.Link},
		plan,
		ServerSpec{Slowdown: plan.Slowdown},
	)
}

// chainSegment is one backtracked (start, end, candidate) run of the DP.
type chainSegment struct {
	start, end, srv int
}

// chainScratch holds the chain DP's working arrays. Like Solver, buffers
// grow to the largest (model, candidate set) seen and are reused, so after
// warm-up PlanChain's planning core runs without steady-state allocations;
// only the returned plan (Hops, Layers) is freshly built, because the
// caller owns it. Not safe for concurrent use; PlanChain draws one from a
// pool per call.
type chainScratch struct {
	servers      []ServerSpec
	prefC, prefB []float64
	prefW        []int64
	prev, cur    []float64
	enterVal     []float64
	enterSrv     []int32
	parentPos    []int32
	parentSrv    []int32
	segs         []chainSegment
}

// chainScratchPool shares warmed-up DP scratch across PlanChain calls.
var chainScratchPool = sync.Pool{New: func() any { return new(chainScratch) }}

// combineCost folds one pipeline stage into an accumulated cost: additive
// under latency, max-combine under throughput (bottleneck stage).
func combineCost(throughput bool, acc, stage float64) float64 {
	if throughput {
		return math.Max(acc, stage)
	}
	return acc + stage
}

// maxHops resolves the request's hop budget (0 = all candidates).
func maxHops(req ChainRequest) int {
	k := req.MaxHops
	if k <= 0 || k > len(req.Servers) {
		k = len(req.Servers)
	}
	return k
}

// bestSingleSplit runs the Fig 5 solver once per candidate (over the client
// link, which is how a single-split plan talks to its server) and keeps the
// lowest-latency plan. Candidates whose memory budget cannot hold the
// resulting plan are skipped; the all-client plan backstops a fully
// over-committed candidate set.
func bestSingleSplit(req ChainRequest) (*Plan, ServerSpec, error) {
	var (
		best     *Plan
		bestSpec ServerSpec
	)
	s := solverPool.Get().(*Solver)
	defer solverPool.Put(s)
	for _, spec := range req.Servers {
		p, err := s.Partition(Request{Profile: req.Profile, Slowdown: spec.Slowdown, Link: req.Link})
		if err != nil {
			return nil, ServerSpec{}, err
		}
		if spec.MemBytes > 0 && p.ServerBytes() > spec.MemBytes {
			continue
		}
		if best == nil || p.EstLatency < best.EstLatency {
			best = p.Clone()
			bestSpec = spec
		}
	}
	if best == nil {
		// Every candidate was too small for its own optimum: fall back to
		// running the whole model on the client.
		m := req.Profile.Model
		loc := AllClient(m)
		lat, err := Evaluate(Request{Profile: req.Profile, Slowdown: 1, Link: req.Link}, loc)
		if err != nil {
			return nil, ServerSpec{}, err
		}
		best = &Plan{Model: m, Loc: loc, EstLatency: lat, Slowdown: 1, Link: req.Link}
		bestSpec = req.Servers[0]
	}
	return best, bestSpec, nil
}

// delegatedChainPlan wraps an exact single-split plan in the chain form:
// one hop holding the plan's (possibly non-contiguous) server layers, all
// client work folded into ClientPre. EstLatency is the solver's own
// estimate, bit for bit.
func delegatedChainPlan(req ChainRequest, plan *Plan, spec ServerSpec) *ChainPlan {
	sp := Decompose(req.Profile, plan.Loc)
	cp := &ChainPlan{
		Model:      plan.Model,
		ClientPre:  sp.ClientTime,
		DownBytes:  sp.DownBytes,
		EstLatency: plan.EstLatency,
		Objective:  ObjectiveLatency,
		Link:       req.Link,
		prof:       req.Profile,
		fallback:   plan,
	}
	if layers := plan.ServerLayers(); len(layers) > 0 {
		exec := time.Duration(float64(sp.ServerBase) * plan.Slowdown)
		cp.Hops = []Hop{{
			Server:    spec,
			Layers:    layers,
			Bytes:     plan.ServerBytes(),
			InBytes:   sp.UpBytes,
			Transfer:  req.Link.UpTime(sp.UpBytes),
			Exec:      exec,
			BaseExec:  sp.ServerBase,
			Intensity: sp.Intensity,
		}}
	}
	cp.Bottleneck = chainBottleneck(cp)
	return cp
}

// chainBottleneck recomputes the slowest stage of a built plan.
func chainBottleneck(p *ChainPlan) time.Duration {
	bottleneck := p.ClientPre
	for i := range p.Hops {
		if st := p.Hops[i].Transfer + p.Hops[i].Exec; st > bottleneck {
			bottleneck = st
		}
	}
	if st := p.Link.DownTime(p.DownBytes) + p.ClientPost; st > bottleneck {
		bottleneck = st
	}
	return bottleneck
}

// planChainDP is the K-segment DP. State: best[h][j][p] is the cheapest way
// to have executed layers [0,p) where the h-th (latest) server segment runs
// on candidate j and ends at frontier p. "Cheapest" is total elapsed time
// under ObjectiveLatency and slowest-stage-so-far under
// ObjectiveThroughput (stages: client prefix, each hop's ingress transfer +
// execution, downlink + client suffix; the client prefix and suffix are
// modelled as separate pipeline stages — the offload runtime overlaps them
// — which keeps the throughput DP a pure max-combine).
//
// Transitions extend a state at frontier p with a segment [p,q) on a later
// candidate j (order-preserving subsequence), pricing the ingress transfer
// of the exact crossing bytes at p over the client link for hop 1 and the
// candidate's backhaul otherwise, and skipping segments whose weights
// exceed the candidate's memory budget. DP costs are float64 seconds; the
// chosen chain is re-priced exactly in integer Durations afterwards.
func planChainDP(req ChainRequest, sc *chainScratch) (*ChainPlan, error) {
	prof := req.Profile
	m := prof.Model
	n := m.NumLayers()
	nServers := len(req.Servers)
	hopCap := maxHops(req)
	throughput := req.Objective == ObjectiveThroughput

	cross := m.Topo().Cross

	sc.prefC = grow(sc.prefC, n+1) // client seconds
	sc.prefB = grow(sc.prefB, n+1) // contention-free server seconds
	sc.prefW = grow(sc.prefW, n+1) // weight bytes
	prefC, prefB, prefW := sc.prefC, sc.prefB, sc.prefW
	prefC[0], prefB[0], prefW[0] = 0, 0, 0
	for i := 0; i < n; i++ {
		prefC[i+1] = prefC[i] + prof.ClientTime[i].Seconds()
		prefB[i+1] = prefB[i] + prof.ServerBase[i].Seconds()
		prefW[i+1] = prefW[i] + m.Layers[i].WeightBytes
	}

	inf := math.Inf(1)
	stride := n + 1 // flat [j][p] indexing: j*stride + p
	size := nServers * stride
	// best/parent for the current and previous hop counts. prev's stale
	// contents are never read: at h == 1 only prefC seeds the entry states,
	// and from h == 2 on prev is the fully written cur of the previous h.
	sc.prev = grow(sc.prev, size)
	sc.cur = grow(sc.cur, size)
	prev, cur := sc.prev, sc.cur
	// Backtracking: for (h, j, q), the segment start and predecessor
	// candidate (-1 = the client prefix). Every (h, j, q >= 1) entry is
	// written before the backtrack reads it; q == 0 entries are never read
	// because no recorded segment ends at frontier 0.
	sc.parentPos = grow(sc.parentPos, hopCap*size)
	sc.parentSrv = grow(sc.parentSrv, hopCap*size)
	parentPos, parentSrv := sc.parentPos, sc.parentSrv

	type finishState struct {
		cost    float64
		hops, j int
		end     int
	}
	// Seed with the all-client plan: identical cost under both objectives
	// (one stage, no transfers).
	final := finishState{cost: prefC[n], hops: 0}

	// enter[j][p]: the cheapest way to stand at frontier p about to start
	// the current hop on candidate j — the client prefix for hop 1, else
	// the best (h-1)-hop state of any earlier candidate (prefix-min over
	// the candidate order keeps the chain an order-preserving subsequence).
	sc.enterVal = grow(sc.enterVal, size)
	sc.enterSrv = grow(sc.enterSrv, size)
	enterVal, enterSrv := sc.enterVal, sc.enterSrv

	for h := 1; h <= hopCap; h++ {
		for p := 0; p <= n; p++ {
			if h == 1 {
				for j := 0; j < nServers; j++ {
					enterVal[j*stride+p] = prefC[p]
					enterSrv[j*stride+p] = -1
				}
				continue
			}
			run, runJ := inf, int32(-1)
			for j := 0; j < nServers; j++ {
				enterVal[j*stride+p] = run
				enterSrv[j*stride+p] = runJ
				if v := prev[j*stride+p]; v < run {
					run, runJ = v, int32(j)
				}
			}
		}
		for i := range cur {
			cur[i] = inf
		}
		for j := 0; j < nServers; j++ {
			spec := &req.Servers[j]
			link := req.Link
			if h > 1 {
				link = spec.Link
			}
			for q := 1; q <= n; q++ {
				best := inf
				var bestP, bestJ int32
				for p := q - 1; p >= 0; p-- {
					if spec.MemBytes > 0 && prefW[q]-prefW[p] > spec.MemBytes {
						break // the segment only grows as p moves left
					}
					enter := enterVal[j*stride+p]
					if math.IsInf(enter, 1) {
						continue
					}
					stage := link.UpTime(cross[p]).Seconds() + (prefB[q]-prefB[p])*spec.Slowdown
					if cost := combineCost(throughput, enter, stage); cost < best {
						best = cost
						bestP = int32(p)
						bestJ = enterSrv[j*stride+p]
					}
				}
				cur[j*stride+q] = best
				parentPos[(h-1)*size+j*stride+q] = bestP
				parentSrv[(h-1)*size+j*stride+q] = bestJ
				if math.IsInf(best, 1) {
					continue
				}
				// Close the chain here: downlink + client suffix.
				tail := req.Link.DownTime(cross[q]).Seconds() + (prefC[n] - prefC[q])
				if total := combineCost(throughput, best, tail); total < final.cost {
					final = finishState{cost: total, hops: h, j: j, end: q}
				}
			}
		}
		prev, cur = cur, prev
	}

	// Backtrack the winning chain into (start, end, candidate) segments.
	segs := sc.segs[:0]
	j, q := final.j, final.end
	for h := final.hops; h >= 1; h-- {
		p := int(parentPos[(h-1)*size+j*stride+q])
		pj := int(parentSrv[(h-1)*size+j*stride+q])
		segs = append(segs, chainSegment{start: p, end: q, srv: j})
		j, q = pj, p
	}
	sc.segs = segs
	for i, k := 0, len(segs)-1; i < k; i, k = i+1, k-1 {
		segs[i], segs[k] = segs[k], segs[i]
	}

	// Exact integer re-pricing of the chosen chain.
	plan := &ChainPlan{
		Model:     m,
		Objective: req.Objective,
		Link:      req.Link,
		prof:      prof,
	}
	prefixEnd, suffixStart := n, n
	if len(segs) > 0 {
		prefixEnd = segs[0].start
		suffixStart = segs[len(segs)-1].end
	}
	for i := 0; i < prefixEnd; i++ {
		plan.ClientPre += prof.ClientTime[i]
	}
	for i := suffixStart; i < n; i++ {
		plan.ClientPost += prof.ClientTime[i]
	}
	plan.DownBytes = cross[suffixStart]
	for hi, sg := range segs {
		spec := req.Servers[sg.srv]
		link := req.Link
		if hi > 0 {
			link = spec.Link
		}
		hop := Hop{
			Server:  spec,
			Layers:  make([]dnn.LayerID, 0, sg.end-sg.start),
			Bytes:   prefW[sg.end] - prefW[sg.start],
			InBytes: cross[sg.start],
		}
		hop.Transfer = link.UpTime(hop.InBytes)
		var intensity, weight float64
		for i := sg.start; i < sg.end; i++ {
			hop.Layers = append(hop.Layers, dnn.LayerID(i))
			base := prof.ServerBase[i]
			hop.BaseExec += base
			hop.Exec += time.Duration(float64(base) * spec.Slowdown)
			intensity += gpusim.Intensity(&m.Layers[i]) * base.Seconds()
			weight += base.Seconds()
		}
		if weight > 0 {
			hop.Intensity = intensity / weight
		}
		plan.Hops = append(plan.Hops, hop)
	}

	plan.EstLatency = plan.ClientPre + plan.ClientPost
	if len(plan.Hops) == 0 {
		// The all-client plan keeps every tensor local.
		plan.DownBytes = 0
	} else {
		plan.EstLatency += req.Link.DownTime(plan.DownBytes)
		for i := range plan.Hops {
			plan.EstLatency += plan.Hops[i].Transfer + plan.Hops[i].Exec
		}
	}
	plan.Bottleneck = chainBottleneck(plan)
	return plan, nil
}

package edgesim

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"perdnn/internal/geo"
)

// FaultWindow is one half-open fault interval [Start, End) in virtual time.
type FaultWindow struct {
	Start, End time.Duration
}

// Contains reports whether t falls inside the window.
func (w FaultWindow) Contains(t time.Duration) bool {
	return t >= w.Start && t < w.End
}

// FaultModel injects failures into a city run: per-server outage windows
// (a downed server loses its layer cache and serves nothing), master
// blackouts (no new partitioning plans), and transient wireless latency
// spikes. The outage schedule is realized from Seed up front in server-ID
// order, and each link-spike draw is a pure hash of (Seed, virtual time,
// client, transfer kind) — never of engine scheduling order — so a faulty
// run, including its event journal, is a deterministic function of the
// configuration and is byte-identical at every RunSweepContext worker
// count and every CityConfig.Shards count.
//
// A nil *FaultModel (the CityConfig default) injects nothing.
type FaultModel struct {
	// Seed drives outage-window generation and link-spike draws. Kept
	// separate from CityConfig.Seed so fault schedules can be varied
	// independently of GPU contention noise.
	Seed int64

	// ServerOutageProb is the per-server, per-interval probability that an
	// outage starts (0 disables generated outages).
	ServerOutageProb float64
	// OutageIntervals is the length of each generated outage in prediction
	// intervals (<= 0 means 2).
	OutageIntervals int

	// ServerOutages adds explicit outage windows per server, merged with
	// the generated ones.
	ServerOutages map[geo.ServerID][]FaultWindow

	// MasterBlackouts are windows in which the control plane is
	// unreachable: clients that hand off during one cannot obtain a plan
	// and degrade to client-local execution until they next re-attach.
	MasterBlackouts []FaultWindow

	// LinkFaultProb is the per-transfer probability of a transient
	// wireless latency spike; LinkSpikeFactor multiplies the spiked
	// transfer's duration (<= 1 means 4).
	LinkFaultProb   float64
	LinkSpikeFactor float64

	// FailoverRadius bounds the search for a live neighbor when a
	// client's server is down (meters; <= 0 means 150). With no live
	// server within the radius the client falls back to local execution.
	FailoverRadius float64
}

// Enabled reports whether the model injects any faults.
func (f *FaultModel) Enabled() bool { return f != nil }

// Validate rejects nonsensical fault parameters.
func (f *FaultModel) Validate() error {
	if f == nil {
		return nil
	}
	if f.ServerOutageProb < 0 || f.ServerOutageProb > 1 {
		return fmt.Errorf("edgesim: fault outage probability %v outside [0,1]", f.ServerOutageProb)
	}
	if f.LinkFaultProb < 0 || f.LinkFaultProb > 1 {
		return fmt.Errorf("edgesim: link fault probability %v outside [0,1]", f.LinkFaultProb)
	}
	for id, ws := range f.ServerOutages {
		for _, w := range ws {
			if w.End <= w.Start {
				return fmt.Errorf("edgesim: empty outage window %v for server %d", w, id)
			}
		}
	}
	for _, w := range f.MasterBlackouts {
		if w.End <= w.Start {
			return fmt.Errorf("edgesim: empty master blackout window %v", w)
		}
	}
	return nil
}

func (f *FaultModel) outageLen() int {
	if f.OutageIntervals <= 0 {
		return 2
	}
	return f.OutageIntervals
}

func (f *FaultModel) spikeFactor() float64 {
	if f.LinkSpikeFactor <= 1 {
		return 4
	}
	return f.LinkSpikeFactor
}

func (f *FaultModel) failoverRadius() float64 {
	if f.FailoverRadius <= 0 {
		return 150
	}
	return f.FailoverRadius
}

// faultState is one run's realized fault schedule. Every query after
// construction is a pure function of its arguments, so shards may consult
// it concurrently without coordination.
type faultState struct {
	model   *FaultModel
	outages [][]FaultWindow // per server ID, sorted and merged
}

// mergeWindows sorts windows and coalesces overlapping/adjacent ones.
func mergeWindows(ws []FaultWindow) []FaultWindow {
	if len(ws) <= 1 {
		return ws
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i].Start < ws[j].Start })
	out := ws[:1]
	for _, w := range ws[1:] {
		last := &out[len(out)-1]
		if w.Start <= last.End {
			if w.End > last.End {
				last.End = w.End
			}
			continue
		}
		out = append(out, w)
	}
	return out
}

// newFaultState realizes the fault schedule for a run: servers are visited
// in ID order and intervals in time order, so the generated windows depend
// only on the model and the run shape, never on scheduling.
func newFaultState(f *FaultModel, servers, steps int, interval time.Duration) *faultState {
	s := &faultState{
		model:   f,
		outages: make([][]FaultWindow, servers),
	}
	rng := rand.New(rand.NewSource(f.Seed))
	for id := 0; id < servers; id++ {
		var ws []FaultWindow
		if f.ServerOutageProb > 0 {
			for k := 0; k < steps; k++ {
				if rng.Float64() < f.ServerOutageProb {
					ws = append(ws, FaultWindow{
						Start: time.Duration(k) * interval,
						End:   time.Duration(k+f.outageLen()) * interval,
					})
				}
			}
		}
		ws = append(ws, f.ServerOutages[geo.ServerID(id)]...)
		s.outages[id] = mergeWindows(ws)
	}
	return s
}

// serverDown reports whether server id is inside an outage window at t.
func (s *faultState) serverDown(id geo.ServerID, t time.Duration) bool {
	if s == nil || id == geo.NoServer || int(id) >= len(s.outages) {
		return false
	}
	ws := s.outages[id]
	i := sort.Search(len(ws), func(i int) bool { return ws[i].End > t })
	return i < len(ws) && ws[i].Contains(t)
}

// masterDown reports whether the control plane is blacked out at t.
func (s *faultState) masterDown(t time.Duration) bool {
	if s == nil {
		return false
	}
	for _, w := range s.model.MasterBlackouts {
		if w.Contains(t) {
			return true
		}
	}
	return false
}

// Transfer kinds naming the spike-draw identity of each wireless transfer
// a client can have in flight.
const (
	linkKindUpload    = iota // a layer-upload chunk
	linkKindQueryUp          // a query's input tensor
	linkKindQueryDown        // a query's output tensor
)

// stretch applies a transient link spike to a transfer duration. The draw
// is a pure hash of the transfer's identity — the fault seed, the virtual
// start time, the client, and the transfer kind — so it is independent of
// engine scheduling order: sharded and unsharded runs spike exactly the
// same transfers.
func (s *faultState) stretch(now time.Duration, client, kind int, base time.Duration) time.Duration {
	if s == nil || base <= 0 || s.model.LinkFaultProb <= 0 {
		return base
	}
	h := splitmix64(uint64(s.model.Seed) ^ 0x5dee7e11)
	h = splitmix64(h ^ uint64(now))
	h = splitmix64(h ^ uint64(client)<<2 ^ uint64(kind))
	if float64(h>>11)/(1<<53) < s.model.LinkFaultProb {
		return time.Duration(float64(base) * s.model.spikeFactor())
	}
	return base
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-mixed 64-bit hash
// step used to turn transfer identities into uniform draws.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

package partition

import (
	"time"

	"perdnn/internal/gpusim"
	"perdnn/internal/profile"
)

// Split is the device-and-network decomposition of one query under a fixed
// assignment: everything a simulator needs to price the query end to end.
// The server time is contention-free; the engine scales it by the live GPU
// state and uses Intensity for the memory-sensitivity of the server-side
// work.
type Split struct {
	// ClientTime is the total client-side layer execution time.
	ClientTime time.Duration
	// ServerBase is the total contention-free server-side execution time.
	ServerBase time.Duration
	// UpBytes and DownBytes are the tensor bytes crossing the link in each
	// direction (shared tensors counted once, final output included).
	UpBytes   int64
	DownBytes int64
	// Intensity is the weighted memory intensity of the server-side layers
	// (see gpusim.Intensity); zero when nothing runs on the server.
	Intensity float64
}

// Decompose computes the Split of an assignment. It panics on malformed
// locations — callers always derive them from a Plan.
func Decompose(prof *profile.ModelProfile, loc []Location) Split {
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

	topo := m.Topo()
	if loc[0] == AtServer {
		sp.UpBytes += topo.InBytes
	}
	for i := range m.Layers {
		var toServer, toClient bool
		for _, s := range topo.Succ[i] {
			if loc[s] != loc[i] {
				if loc[s] == AtServer {
					toServer = true
				} else {
					toClient = true
				}
			}
		}
		if toServer {
			sp.UpBytes += topo.OutBytes[i]
		}
		if toClient {
			sp.DownBytes += topo.OutBytes[i]
		}
	}
	last := int(m.OutputLayer())
	if loc[last] == AtServer {
		sp.DownBytes += topo.OutBytes[last]
	}
	return sp
}

// ScheduleSplits returns the split after each prefix of an upload schedule:
// row k has the layers of the first k units on the server and everything
// else on the client, so the last row is the whole schedule's split. Uploads
// follow the schedule and fractional migration takes a prefix of it, so
// every cache state reached from an empty server is one of these rows. One
// location slice is updated in place from row to row, so a row costs one
// Decompose. It panics on an empty unit, which no schedule this package
// builds contains: a row per unit is a row per upload.
func ScheduleSplits(prof *profile.ModelProfile, sched []UploadUnit) []Split {
	loc := AllClient(prof.Model)
	out := make([]Split, len(sched)+1)
	out[0] = Decompose(prof, loc)
	for k, u := range sched {
		if len(u.Layers) == 0 {
			panic("partition: ScheduleSplits empty upload unit")
		}
		for _, id := range u.Layers {
			loc[id] = AtServer
		}
		out[k+1] = Decompose(prof, loc)
	}
	return out
}

// Latency prices the split at a given link and server slowdown. It is not
// Evaluate's price: it charges RTT/2 once per direction where Evaluate
// charges it per crossing tensor, and rounds the summed times once where
// Evaluate rounds each layer's and each tensor's. At the request's
// slowdown the two differ by half an RTT per extra crossing tensor plus at
// most 1 ns per layer and per crossing tensor.
func (sp Split) Latency(link Link, slowdown float64) time.Duration {
	return sp.ClientTime +
		link.UpTime(sp.UpBytes) +
		time.Duration(float64(sp.ServerBase)*slowdown) +
		link.DownTime(sp.DownBytes)
}

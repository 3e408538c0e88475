package edgesim

import (
	"time"

	"perdnn/internal/partition"
	"perdnn/internal/profile"
)

// prefixLatencies returns the query latency on the lab link after each
// prefix of an upload schedule: out[k] is the latency with the layers of the first k units at
// the server and everything else on the client. Uploads follow the schedule
// and fractional migration takes a prefix of it, so every reachable cache
// state during an upload is one of these prefixes.
//
// The per-layer assignment is maintained incrementally in one scratch slice
// across prefixes instead of materializing a fresh offloaded-set map per
// prefix, so the pass costs one Decompose per prefix and a single
// allocation for the result.
func prefixLatencies(prof *profile.ModelProfile, sched []partition.UploadUnit) []time.Duration {
	link := partition.LabWiFi()
	loc := partition.AllClient(prof.Model)
	out := make([]time.Duration, len(sched)+1)
	for k := 0; k <= len(sched); k++ {
		out[k] = partition.Decompose(prof, loc).Latency(link, 1)
		if k < len(sched) {
			for _, id := range sched[k].Layers {
				loc[id] = partition.AtServer
			}
		}
	}
	return out
}

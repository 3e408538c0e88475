// Package partition implements PerDNN's DNN partitioning (Section III.C):
// the graph-based shortest-path algorithm of Fig 5 that assigns each layer
// to the client or the edge server to minimize query latency, an exact
// evaluator for arbitrary assignments, and the efficiency-first upload
// ordering of Section III.C.2 that decides which server-side layers to
// transmit first (used both for incremental upload from the client and for
// proactive migration between edge servers).
package partition

import (
	"fmt"
	"strings"
	"time"

	"perdnn/internal/dnn"
	"perdnn/internal/profile"
)

// Location says where a layer executes.
type Location int

// Execution locations.
const (
	AtClient Location = iota + 1
	AtServer
)

// String implements fmt.Stringer.
func (l Location) String() string {
	switch l {
	case AtClient:
		return "client"
	case AtServer:
		return "server"
	default:
		return fmt.Sprintf("Location(%d)", int(l))
	}
}

// Link models the network between a client and an edge server as seen by
// the partitioner: asymmetric bandwidth plus a round-trip latency.
type Link struct {
	// UpBps and DownBps are uplink/downlink bandwidths in bits per second.
	UpBps   float64 `json:"upBps"`
	DownBps float64 `json:"downBps"`
	// RTT is the round-trip time.
	RTT time.Duration `json:"rtt"`
}

// LabWiFi returns the paper's evaluation link: 50 Mbps down / 35 Mbps up,
// the average speed of the authors' lab Wi-Fi.
func LabWiFi() Link {
	return Link{UpBps: 35e6, DownBps: 50e6, RTT: 4 * time.Millisecond}
}

// UpTime returns the time to move bytes from client to server.
func (l Link) UpTime(bytes int64) time.Duration {
	if bytes <= 0 {
		return 0
	}
	return l.RTT/2 + time.Duration(float64(bytes)*8/l.UpBps*float64(time.Second))
}

// DownTime returns the time to move bytes from server to client.
func (l Link) DownTime(bytes int64) time.Duration {
	if bytes <= 0 {
		return 0
	}
	return l.RTT/2 + time.Duration(float64(bytes)*8/l.DownBps*float64(time.Second))
}

// Request carries everything the partitioner needs for one decision:
// the DNN profile (layer times and sizes), the estimated contention
// slowdown of the candidate server, and the client-server link.
type Request struct {
	Profile *profile.ModelProfile
	// Slowdown scales the profile's contention-free server times; it comes
	// from the server's GPU-aware execution-time estimator.
	Slowdown float64
	Link     Link
}

// serverTime returns the estimated server-side time of layer i.
func (r *Request) serverTime(i int) time.Duration {
	return time.Duration(float64(r.Profile.ServerBase[i]) * r.Slowdown)
}

// Plan is a partitioning plan: the execution location of every layer, the
// estimated query latency it achieves, and derived statistics.
type Plan struct {
	Model *dnn.Model
	// Loc[i] is where layer i executes.
	Loc []Location
	// EstLatency is the estimated end-to-end query latency of the plan
	// (client execution + transfers + server execution).
	EstLatency time.Duration
	// Slowdown is the server contention factor the plan was computed with.
	Slowdown float64
	// Link is the client-server link the plan was computed with.
	Link Link
}

// Clone returns a deep copy of the plan whose Loc slice is independently
// owned (the Model pointer is shared; models are immutable).
func (p *Plan) Clone() *Plan {
	out := *p
	out.Loc = append([]Location(nil), p.Loc...)
	return &out
}

// ServerLayers returns the IDs of server-side layers in topological order.
func (p *Plan) ServerLayers() []dnn.LayerID {
	out := make([]dnn.LayerID, 0, len(p.Loc))
	for i, loc := range p.Loc {
		if loc == AtServer {
			out = append(out, dnn.LayerID(i))
		}
	}
	return out
}

// ServerBytes returns the total weight bytes of server-side layers — what
// must be present at the server before the plan runs at full speed.
func (p *Plan) ServerBytes() int64 {
	var sum int64
	for i, loc := range p.Loc {
		if loc == AtServer {
			sum += p.Model.Layers[i].WeightBytes
		}
	}
	return sum
}

// NumServerLayers returns the number of server-side layers.
func (p *Plan) NumServerLayers() int {
	n := 0
	for _, loc := range p.Loc {
		if loc == AtServer {
			n++
		}
	}
	return n
}

// String implements fmt.Stringer with a compact summary.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan[%s]: %d/%d layers on server, %.1f MB server-side, est %v",
		p.Model.Name, p.NumServerLayers(), p.Model.NumLayers(),
		float64(p.ServerBytes())/(1<<20), p.EstLatency.Round(time.Millisecond))
	return b.String()
}

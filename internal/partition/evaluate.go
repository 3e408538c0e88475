package partition

import (
	"fmt"
	"time"

	"perdnn/internal/dnn"
)

// Evaluate returns the exact end-to-end query latency of executing the
// model with the given per-layer locations: the sum of layer execution
// times on their assigned devices plus every tensor transfer across the
// client-server boundary. A tensor consumed by several layers on the other
// side is transferred once. The model input originates at the client; the
// final output must end at the client.
//
// Evaluate is the ground truth the Fig 5 shortest-path solution is checked
// against, and the costing function of the efficiency-first upload order.
func Evaluate(req Request, loc []Location) (time.Duration, error) {
	m := req.Profile.Model
	if len(loc) != m.NumLayers() {
		return 0, fmt.Errorf("partition: %d locations for %d layers", len(loc), m.NumLayers())
	}
	var total time.Duration

	// Execution time per layer.
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

	topo := m.Topo()

	// Model input: produced at the client, consumed by layer 0.
	if loc[0] == AtServer {
		total += req.Link.UpTime(topo.InBytes)
	}

	// Intermediate tensors: each layer's output crosses at most once per
	// direction, regardless of how many consumers it has there.
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
			total += req.Link.UpTime(topo.OutBytes[i])
		}
		if toClient {
			total += req.Link.DownTime(topo.OutBytes[i])
		}
	}

	// Final output must reach the client.
	last := int(m.OutputLayer())
	if loc[last] == AtServer {
		total += req.Link.DownTime(topo.OutBytes[last])
	}
	return total, nil
}

// AllClient returns the all-client assignment for the model (the cold-start
// execution before any layer is uploaded).
func AllClient(m *dnn.Model) []Location {
	loc := make([]Location, m.NumLayers())
	for i := range loc {
		loc[i] = AtClient
	}
	return loc
}

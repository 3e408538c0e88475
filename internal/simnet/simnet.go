// Package simnet keeps the per-server, per-interval uplink/downlink traffic
// ledger of the inter-server backhaul: the data behind the paper's backhaul
// analysis (Section IV.B.4) and the fractional migration experiment
// (Fig 10). The links themselves, the wireless access link and the
// backhaul alike, are package partition's Link.
package simnet

import (
	"fmt"
	"io"
	"sort"
	"time"

	"perdnn/internal/geo"
	"perdnn/internal/obs"
)

// TrafficAccount records per-server uplink and downlink bytes in fixed time
// buckets ("we measured the backhaul traffics of each edge server for each
// time interval in two directions").
type TrafficAccount struct {
	interval time.Duration
	up       map[geo.ServerID][]int64
	down     map[geo.ServerID][]int64
}

// NewTrafficAccount creates a ledger with the given bucket width (the
// prediction interval t in the paper).
func NewTrafficAccount(interval time.Duration) (*TrafficAccount, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("simnet: non-positive accounting interval %v", interval)
	}
	return &TrafficAccount{
		interval: interval,
		up:       make(map[geo.ServerID][]int64, 64),
		down:     make(map[geo.ServerID][]int64, 64),
	}, nil
}

func (a *TrafficAccount) slot(at time.Duration) int {
	if at < 0 {
		return 0
	}
	return int(at / a.interval)
}

func addTo(m map[geo.ServerID][]int64, id geo.ServerID, slot int, bytes int64) {
	buckets := m[id]
	for len(buckets) <= slot {
		buckets = append(buckets, 0)
	}
	buckets[slot] += bytes
	m[id] = buckets
}

// AddUp records bytes sent from server id at virtual time `at`.
func (a *TrafficAccount) AddUp(id geo.ServerID, at time.Duration, bytes int64) {
	if bytes <= 0 {
		return
	}
	addTo(a.up, id, a.slot(at), bytes)
}

// AddDown records bytes received by server id at virtual time `at`.
func (a *TrafficAccount) AddDown(id geo.ServerID, at time.Duration, bytes int64) {
	if bytes <= 0 {
		return
	}
	addTo(a.down, id, a.slot(at), bytes)
}

// bpsOf converts a byte bucket to average bits per second over the interval.
func (a *TrafficAccount) bpsOf(bytes int64) float64 {
	return float64(bytes) * 8 / a.interval.Seconds()
}

// PeakUpBps returns the highest per-interval uplink rate of server id.
func (a *TrafficAccount) PeakUpBps(id geo.ServerID) float64 {
	var peak int64
	for _, b := range a.up[id] {
		if b > peak {
			peak = b
		}
	}
	return a.bpsOf(peak)
}

// PeakDownBps returns the highest per-interval downlink rate of server id.
func (a *TrafficAccount) PeakDownBps(id geo.ServerID) float64 {
	var peak int64
	for _, b := range a.down[id] {
		if b > peak {
			peak = b
		}
	}
	return a.bpsOf(peak)
}

// PeakUp returns the most loaded server by peak uplink rate.
func (a *TrafficAccount) PeakUp() (geo.ServerID, float64) {
	best, bestBps := geo.NoServer, 0.0
	for id := range a.up {
		if bps := a.PeakUpBps(id); bps > bestBps {
			best, bestBps = id, bps
		}
	}
	return best, bestBps
}

// PeakDown returns the most loaded server by peak downlink rate.
func (a *TrafficAccount) PeakDown() (geo.ServerID, float64) {
	best, bestBps := geo.NoServer, 0.0
	for id := range a.down {
		if bps := a.PeakDownBps(id); bps > bestBps {
			best, bestBps = id, bps
		}
	}
	return best, bestBps
}

// TotalBytes returns the ledger-wide byte totals.
func (a *TrafficAccount) TotalBytes() (up, down int64) {
	for _, bs := range a.up {
		for _, b := range bs {
			up += b
		}
	}
	for _, bs := range a.down {
		for _, b := range bs {
			down += b
		}
	}
	return up, down
}

// ActiveServers returns every server that sent or received any bytes.
func (a *TrafficAccount) ActiveServers() []geo.ServerID {
	seen := make(map[geo.ServerID]struct{}, len(a.up)+len(a.down))
	for id := range a.up {
		seen[id] = struct{}{}
	}
	for id := range a.down {
		seen[id] = struct{}{}
	}
	out := make([]geo.ServerID, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	return out
}

// ShareUnderBps returns the fraction of active servers whose peak uplink
// and downlink both stay under the threshold — the paper's "60~70% of the
// servers needed less than 100 Mbps" statistic.
func (a *TrafficAccount) ShareUnderBps(threshold float64) float64 {
	servers := a.ActiveServers()
	if len(servers) == 0 {
		return 1
	}
	n := 0
	for _, id := range servers {
		if a.PeakUpBps(id) < threshold && a.PeakDownBps(id) < threshold {
			n++
		}
	}
	return float64(n) / float64(len(servers))
}

// WriteCSV dumps the ledger as per-server per-interval rows
// (server,interval_start_s,up_bytes,down_bytes), skipping empty slots —
// the raw data behind the paper's backhaul analysis, ready for plotting.
func (a *TrafficAccount) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "server,interval_start_s,up_bytes,down_bytes"); err != nil {
		return fmt.Errorf("simnet: writing csv header: %w", err)
	}
	servers := a.ActiveServers()
	sort.Slice(servers, func(i, j int) bool { return servers[i] < servers[j] })
	for _, id := range servers {
		up, down := a.up[id], a.down[id]
		slots := len(up)
		if len(down) > slots {
			slots = len(down)
		}
		for s := 0; s < slots; s++ {
			var u, d int64
			if s < len(up) {
				u = up[s]
			}
			if s < len(down) {
				d = down[s]
			}
			if u == 0 && d == 0 {
				continue
			}
			start := time.Duration(s) * a.interval
			if _, err := fmt.Fprintf(w, "%d,%.0f,%d,%d\n", id, start.Seconds(), u, d); err != nil {
				return fmt.Errorf("simnet: writing csv row: %w", err)
			}
		}
	}
	return nil
}

// RecordMetrics publishes the ledger's aggregates as gauges into a metrics
// registry: total and peak backhaul load plus the number of active servers.
// Call it on a quiesced ledger (end of a run) so the resulting snapshot is
// deterministic.
func (a *TrafficAccount) RecordMetrics(reg *obs.Registry) {
	up, down := a.TotalBytes()
	reg.Gauge("backhaul_up_bytes").Set(up)
	reg.Gauge("backhaul_down_bytes").Set(down)
	_, peakUp := a.PeakUp()
	_, peakDown := a.PeakDown()
	reg.Gauge("backhaul_peak_up_bps").Set(int64(peakUp))
	reg.Gauge("backhaul_peak_down_bps").Set(int64(peakDown))
	reg.Gauge("backhaul_active_servers").Set(int64(len(a.ActiveServers())))
}

// TopByPeakUp returns the k servers with the highest peak uplink rate,
// most loaded first — the crowded-server set for fractional migration.
func (a *TrafficAccount) TopByPeakUp(k int) []geo.ServerID {
	type entry struct {
		id  geo.ServerID
		bps float64
	}
	entries := make([]entry, 0, len(a.up))
	for id := range a.up {
		entries = append(entries, entry{id: id, bps: a.PeakUpBps(id)})
	}
	// Insertion-sort by descending bps (k is small, lists moderate).
	for i := 1; i < len(entries); i++ {
		for j := i; j > 0 && (entries[j].bps > entries[j-1].bps ||
			(entries[j].bps == entries[j-1].bps && entries[j].id < entries[j-1].id)); j-- {
			entries[j], entries[j-1] = entries[j-1], entries[j]
		}
	}
	if k > len(entries) {
		k = len(entries)
	}
	out := make([]geo.ServerID, 0, k)
	for _, e := range entries[:k] {
		out = append(out, e.id)
	}
	return out
}

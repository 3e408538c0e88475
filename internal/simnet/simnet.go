// Package simnet keeps the per-server, per-interval uplink/downlink traffic
// ledger of the inter-server backhaul: the data behind the paper's backhaul
// analysis (Section IV.B.4) and the fractional migration experiment
// (Fig 10). The links themselves, the wireless access link and the
// backhaul alike, are package partition's Link.
package simnet

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"time"

	"perdnn/internal/geo"
	"perdnn/internal/obs"
)

// TrafficAccount records per-server uplink and downlink bytes in fixed time
// buckets ("we measured the backhaul traffics of each edge server for each
// time interval in two directions").
type TrafficAccount struct {
	interval time.Duration
	// up[id][slot] and down[id][slot] are the bytes server id sent and
	// received in interval slot. Server IDs are dense placement indices,
	// so the tables hold a row for every ID up to the highest one seen;
	// the row of a server that carried no traffic is empty.
	up, down [][]int64
}

// NewTrafficAccount creates a ledger with the given bucket width (the
// prediction interval t in the paper).
func NewTrafficAccount(interval time.Duration) (*TrafficAccount, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("simnet: non-positive accounting interval %v", interval)
	}
	return &TrafficAccount{interval: interval}, nil
}

// add adds bytes to rows[id] at virtual time at's slot, growing the table
// to the ID and the row to the slot with one slices.Grow each. A negative
// ID panics; a negative time counts in slot 0.
func (a *TrafficAccount) add(rows [][]int64, id geo.ServerID, at time.Duration, bytes int64) [][]int64 {
	if bytes <= 0 {
		return rows
	}
	slot := int(max(at, 0) / a.interval)
	if n := int(id) + 1; n > len(rows) {
		rows = slices.Grow(rows, n-len(rows))[:n]
	}
	if n := slot + 1; n > len(rows[id]) {
		rows[id] = slices.Grow(rows[id], n-len(rows[id]))[:n]
	}
	rows[id][slot] += bytes
	return rows
}

// AddUp records bytes sent from server id at virtual time `at`.
func (a *TrafficAccount) AddUp(id geo.ServerID, at time.Duration, bytes int64) {
	a.up = a.add(a.up, id, at, bytes)
}

// AddDown records bytes received by server id at virtual time `at`.
func (a *TrafficAccount) AddDown(id geo.ServerID, at time.Duration, bytes int64) {
	a.down = a.add(a.down, id, at, bytes)
}

// get returns s[i], or the zero value past the end of s: an unseen
// server's row, an unrecorded slot's bytes.
func get[E any](s []E, i int) E {
	if i < len(s) {
		return s[i]
	}
	var zero E
	return zero
}

// peakBps returns the highest per-interval rate of one row in bits per
// second.
func (a *TrafficAccount) peakBps(row []int64) float64 {
	var peak int64
	for _, b := range row {
		peak = max(peak, b)
	}
	return float64(peak) * 8 / a.interval.Seconds()
}

// peakUpBps returns the highest per-interval uplink rate of server id.
func (a *TrafficAccount) peakUpBps(id geo.ServerID) float64 {
	return a.peakBps(get(a.up, int(id)))
}

// peakDownBps returns the highest per-interval downlink rate of server id.
func (a *TrafficAccount) peakDownBps(id geo.ServerID) float64 {
	return a.peakBps(get(a.down, int(id)))
}

// peakOf returns the lowest-ID server with the highest peak rate in rows,
// or NoServer when no row carries traffic.
func (a *TrafficAccount) peakOf(rows [][]int64) (geo.ServerID, float64) {
	best, bestBps := geo.NoServer, 0.0
	for id, row := range rows {
		if bps := a.peakBps(row); bps > bestBps {
			best, bestBps = geo.ServerID(id), bps
		}
	}
	return best, bestBps
}

// PeakUp returns the most loaded server by peak uplink rate, the lowest ID
// among equal peaks.
func (a *TrafficAccount) PeakUp() (geo.ServerID, float64) { return a.peakOf(a.up) }

// PeakDown returns the most loaded server by peak downlink rate, the
// lowest ID among equal peaks.
func (a *TrafficAccount) PeakDown() (geo.ServerID, float64) { return a.peakOf(a.down) }

// TotalBytes returns the ledger-wide byte totals.
func (a *TrafficAccount) TotalBytes() (up, down int64) {
	sum := func(rows [][]int64) (total int64) {
		for _, row := range rows {
			for _, b := range row {
				total += b
			}
		}
		return total
	}
	return sum(a.up), sum(a.down)
}

// activeServers returns every server that sent or received any bytes, in
// ID order.
func (a *TrafficAccount) activeServers() []geo.ServerID {
	var out []geo.ServerID
	for id := range max(len(a.up), len(a.down)) {
		if len(get(a.up, id)) > 0 || len(get(a.down, id)) > 0 {
			out = append(out, geo.ServerID(id))
		}
	}
	return out
}

// ShareUnderBps returns the fraction of active servers whose peak uplink
// and downlink both stay under the threshold — the paper's "60~70% of the
// servers needed less than 100 Mbps" statistic.
func (a *TrafficAccount) ShareUnderBps(threshold float64) float64 {
	servers := a.activeServers()
	if len(servers) == 0 {
		return 1
	}
	n := 0
	for _, id := range servers {
		if a.peakUpBps(id) < threshold && a.peakDownBps(id) < threshold {
			n++
		}
	}
	return float64(n) / float64(len(servers))
}

// WriteCSV dumps the ledger as per-server per-interval rows
// (server,interval_start_s,up_bytes,down_bytes) in server order, skipping
// empty slots — the raw data behind the paper's backhaul analysis, ready
// for plotting.
func (a *TrafficAccount) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "server,interval_start_s,up_bytes,down_bytes"); err != nil {
		return fmt.Errorf("simnet: writing csv header: %w", err)
	}
	for _, id := range a.activeServers() {
		up, down := get(a.up, int(id)), get(a.down, int(id))
		for s := range max(len(up), len(down)) {
			u, d := get(up, s), get(down, s)
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
	reg.Gauge("backhaul_active_servers").Set(int64(len(a.activeServers())))
}

// TopByPeakUp returns the k servers with the highest peak uplink rate,
// most loaded first and the lowest ID first among equal peaks — the
// crowded-server set for fractional migration.
func (a *TrafficAccount) TopByPeakUp(k int) []geo.ServerID {
	peaks := make([]float64, len(a.up))
	var ids []geo.ServerID
	for id, row := range a.up {
		if len(row) > 0 {
			peaks[id] = a.peakBps(row)
			ids = append(ids, geo.ServerID(id))
		}
	}
	// Stable over ascending IDs, so equal peaks keep ID order.
	slices.SortStableFunc(ids, func(x, y geo.ServerID) int { return cmp.Compare(peaks[y], peaks[x]) })
	return slices.Clip(ids[:min(k, len(ids))])
}

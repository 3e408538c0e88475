// Package obs is the observability layer shared by the simulator and the
// live daemons: a dependency-free metrics registry (atomic counters, gauges,
// and fixed-bucket histograms with deterministic merge), a leveled
// component-tagged logger on log/slog, and an opt-in debug HTTP listener
// serving the registry as JSON plus net/http/pprof. Records — spans and the
// decision instants a city run's event journal projects — live in
// obs/tracing.
//
// Everything here is deterministic where the simulator needs it to be:
// snapshots sort metric names, histograms bucket by value (never by arrival
// order), and merges are commutative bucketwise additions.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use; all methods are safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative n is ignored — counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down (queue depths, cache sizes).
// The zero value is ready to use; all methods are safe for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add shifts the gauge by n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Registry is a named collection of metrics. Lookups get-or-create under a
// mutex; the returned metric objects update lock-free, so callers should
// resolve them once and hold the pointers on hot paths.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter, 16),
		gauges:   make(map[string]*Gauge, 8),
		hists:    make(map[string]*Histogram, 8),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// BucketCount is one non-empty histogram bucket in a snapshot: Bucket is
// the log-spaced bucket index, Le its inclusive upper bound, Count the
// samples in it.
type BucketCount struct {
	Bucket int   `json:"bucket"`
	Le     int64 `json:"le"`
	Count  int64 `json:"count"`
}

// HistogramSnapshot is the frozen state of one histogram.
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	Sum     int64         `json:"sum"`
	P50     int64         `json:"p50"`
	P95     int64         `json:"p95"`
	P99     int64         `json:"p99"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Snapshot is a frozen, deterministic view of a registry: plain maps and
// slices, comparable with reflect.DeepEqual and serializing with sorted
// keys under encoding/json.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot freezes the registry. Metric updates racing the snapshot land in
// it or in the next one; a quiesced registry snapshots deterministically.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = h.snapshot()
		}
	}
	return s
}

// WriteJSON writes the registry snapshot as indented JSON (the /metrics
// payload). encoding/json sorts map keys, so the output is deterministic
// for a quiesced registry.
func (r *Registry) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshaling snapshot: %w", err)
	}
	b = append(b, '\n')
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("obs: writing snapshot: %w", err)
	}
	return nil
}

// CounterNames returns the registered counter names, sorted.
func (r *Registry) CounterNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters))
	for name := range r.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

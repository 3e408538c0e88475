package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime/metrics"
)

// NewDebugMux builds the live-debug HTTP handler: /metrics serves the
// registry as expvar-style JSON with the process's health beside it, and
// /debug/pprof/ exposes the standard runtime profiles.
func NewDebugMux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		b, err := json.MarshalIndent(metricsPage{reg.Snapshot(), readProcess()}, "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		// A failed write leaves nothing useful to do.
		_, _ = w.Write(append(b, '\n'))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// metricsPage is the /metrics payload: the registry's snapshot, and the
// process's health under "process".
type metricsPage struct {
	Snapshot
	Process process `json:"process"`
}

// process is a daemon's health, read from runtime/metrics on every
// /metrics request. It is not a registry metric: a Snapshot, which city
// results and sim journals carry, stays a pure function of what the
// program counted.
type process struct {
	Goroutines    uint64 `json:"goroutines"`
	HeapLiveBytes uint64 `json:"heap_live_bytes"` // marked live by the last GC
	// GCPauseTotalNs sums the runtime's GC pause histogram at its bucket
	// midpoints, so it is exact to the histogram's resolution.
	GCPauseTotalNs uint64 `json:"gc_pause_total_ns"`
}

// processSamples names what readProcess reads, in process's field order.
var processSamples = []string{
	"/sched/goroutines:goroutines",
	"/gc/heap/live:bytes",
	"/sched/pauses/total/gc:seconds",
}

// readProcess reads the process's health. A metric the runtime does not
// support reads 0.
func readProcess() process {
	s := make([]metrics.Sample, len(processSamples))
	for i, name := range processSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	var p process
	if s[0].Value.Kind() == metrics.KindUint64 {
		p.Goroutines = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		p.HeapLiveBytes = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[2].Value.Float64Histogram()
		var sec float64
		for i, n := range h.Counts {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			switch {
			case math.IsInf(lo, -1):
				lo = hi
			case math.IsInf(hi, 1):
				hi = lo
			}
			sec += float64(n) * (lo + hi) / 2
		}
		p.GCPauseTotalNs = uint64(sec * 1e9)
	}
	return p
}

// DebugServer is a running debug listener (the daemons' -debug-addr).
type DebugServer struct {
	ln   net.Listener
	srv  *http.Server
	done chan struct{}
	err  error
}

// ServeDebugMux binds addr (e.g. ":0" or "127.0.0.1:6060") and serves h,
// NewDebugMux's handler plus whatever endpoints the daemon adds (e.g.
// tracing.RegisterDebug), until Close. It returns after the listener is
// bound, so Addr is immediately valid.
func ServeDebugMux(addr string, h http.Handler) (*DebugServer, error) {
	if h == nil {
		return nil, errors.New("obs: debug server needs a handler")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: binding debug listener: %w", err)
	}
	d := &DebugServer{
		ln:   ln,
		srv:  &http.Server{Handler: h},
		done: make(chan struct{}),
	}
	go func() {
		defer close(d.done)
		if serr := d.srv.Serve(ln); serr != nil && !errors.Is(serr, http.ErrServerClosed) {
			d.err = serr
		}
	}()
	return d, nil
}

// Addr returns the bound listener address (useful with ":0").
func (d *DebugServer) Addr() string { return d.ln.Addr().String() }

// Close stops the listener and waits for the serve goroutine to exit.
func (d *DebugServer) Close() error {
	err := d.srv.Close()
	<-d.done
	if err == nil {
		err = d.err
	}
	return err
}

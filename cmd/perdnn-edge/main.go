// Command perdnn-edge runs a live edge-server daemon: it caches clients'
// DNN layers, executes offloaded layer work on a simulated shared GPU, and
// answers the master's GPU-statistics pings and migration orders.
//
// Usage:
//
//	perdnn-edge [-listen :7101] [-model inception] [-ttl 100s] [-timescale 0.01]
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"perdnn/internal/dnn"
	"perdnn/internal/edged"
	"perdnn/internal/obs"
	"perdnn/internal/obs/tracing"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perdnn-edge:", err)
		os.Exit(1)
	}
}

func run() error {
	listen := flag.String("listen", ":7101", "listen address")
	model := flag.String("model", "inception", "zoo model served")
	ttl := flag.Duration("ttl", 100*time.Second, "layer cache TTL in modelled time: it lasts ttl × timescale of wall time (ttl at timescale 0)")
	timescale := flag.Float64("timescale", 0.01, "wall-time scale for simulated work")
	seed := flag.Int64("seed", 1, "GPU simulation seed")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, or error")
	debugAddr := flag.String("debug-addr", "", "serve /metrics and /debug/pprof/ on this address (off when empty)")
	traceOn := flag.Bool("trace", false, "record request spans; export them at /trace on -debug-addr")
	node := flag.String("node", "", `node label on trace spans (default "edged")`)
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	cfg := edged.DefaultConfig(dnn.ModelName(*model))
	cfg.TTL = *ttl
	cfg.TimeScale = *timescale
	cfg.GPUSeed = *seed
	cfg.Logger = obs.NewLogger(os.Stderr, level, "edged")
	cfg.Node = *node
	if *traceOn {
		cfg.Tracer = tracing.NewWallClock()
	}
	srv, err := edged.New(cfg)
	if err != nil {
		return err
	}
	if *debugAddr != "" {
		mux := obs.NewDebugMux(srv.Metrics())
		tracing.RegisterDebug(mux, srv.Tracer())
		dbg, err := obs.ServeDebugMux(*debugAddr, mux)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := dbg.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "perdnn-edge: closing debug server:", cerr)
			}
		}()
		fmt.Printf("perdnn-edge: debug endpoints on http://%s/metrics, /trace and /debug/pprof/\n", dbg.Addr())
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	// Ctrl-C / SIGTERM cancels the serve context; ServeContext closes the
	// listener, interrupts in-flight exchanges, drains, and returns nil.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Printf("perdnn-edge: serving %s on %s (ttl %v, timescale %v)\n",
		*model, ln.Addr(), *ttl, *timescale)
	return srv.ServeContext(ctx, ln)
}

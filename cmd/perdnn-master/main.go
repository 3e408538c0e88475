// Command perdnn-master runs the live master-server daemon. Edge servers
// are declared with repeated -edge flags giving their daemon address and
// planar location:
//
//	perdnn-master -listen :7100 \
//	    -edge 127.0.0.1:7101@0,0 -edge 127.0.0.1:7102@87,0
//
// The master answers clients' plan requests with GPU-aware partitioning
// plans and orders proactive layer migrations as clients report their
// trajectories.
//
// Several masters can split a city into region shards: every master is
// launched with the same full -edge list, its own -shard index, and one
// -peer flag per shard naming each master's address, in shard order; the
// shard count is the number of -peer flags:
//
//	perdnn-master -listen :7100 -shard 0 \
//	    -peer 10.0.0.1:7100 -peer 10.0.0.2:7100 -edge ... -edge ...
//
// Each master then owns its region's registrations and plans; a client
// whose trajectory crosses a region boundary is redirected, with its
// history, to the owning master, which no master ever dials.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"perdnn/internal/geo"
	"perdnn/internal/master"
	"perdnn/internal/obs"
	"perdnn/internal/obs/tracing"
)

// edgeFlags collects repeated -edge values.
type edgeFlags []master.EdgeInfo

func (e *edgeFlags) String() string { return fmt.Sprintf("%d edges", len(*e)) }

func (e *edgeFlags) Set(v string) error {
	addr, loc, ok := strings.Cut(v, "@")
	if !ok {
		return fmt.Errorf("edge %q: want addr@x,y", v)
	}
	xs, ys, ok := strings.Cut(loc, ",")
	if !ok {
		return fmt.Errorf("edge %q: want addr@x,y", v)
	}
	x, err := strconv.ParseFloat(xs, 64)
	if err != nil {
		return fmt.Errorf("edge %q: %w", v, err)
	}
	y, err := strconv.ParseFloat(ys, 64)
	if err != nil {
		return fmt.Errorf("edge %q: %w", v, err)
	}
	*e = append(*e, master.EdgeInfo{Addr: addr, Location: geo.Point{X: x, Y: y}})
	return nil
}

// peerFlags collects repeated -peer values.
type peerFlags []string

func (p *peerFlags) String() string { return strings.Join(*p, ",") }

func (p *peerFlags) Set(v string) error {
	*p = append(*p, v)
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perdnn-master:", err)
		os.Exit(1)
	}
}

func run() error {
	listen := flag.String("listen", ":7100", "listen address")
	radius := flag.Float64("radius", 100, "proactive migration radius r in meters")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, or error")
	debugAddr := flag.String("debug-addr", "", "serve /metrics and /debug/pprof/ on this address (off when empty)")
	traceOn := flag.Bool("trace", false, "record request spans; export them at /trace on -debug-addr")
	shard := flag.Int("shard", 0, "this master's region shard index (with two or more -peer flags)")
	var edges edgeFlags
	flag.Var(&edges, "edge", "edge server as addr@x,y (repeatable)")
	var peers peerFlags
	flag.Var(&peers, "peer", "shard master address, one per shard in shard order (repeatable); fewer than two run a single master owning the whole city")
	flag.Parse()

	if len(edges) == 0 {
		return fmt.Errorf("at least one -edge required")
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	cfg := master.DefaultConfig(edges)
	cfg.Radius = *radius
	cfg.Shard = *shard
	cfg.Peers = peers
	cfg.Logger = obs.NewLogger(os.Stderr, level, "master")
	if *traceOn {
		cfg.Tracer = tracing.NewWallClock()
	}
	m, err := master.New(cfg)
	if err != nil {
		return err
	}
	if *debugAddr != "" {
		mux := obs.NewDebugMux(m.Metrics())
		tracing.RegisterDebug(mux, m.Tracer())
		dbg, err := obs.ServeDebugMux(*debugAddr, mux)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := dbg.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "perdnn-master: closing debug server:", cerr)
			}
		}()
		fmt.Printf("perdnn-master: debug endpoints on http://%s/metrics, /trace and /debug/pprof/\n", dbg.Addr())
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	// Ctrl-C / SIGTERM cancels the serve context; ServeContext closes the
	// listener, interrupts in-flight exchanges, drains, and returns nil.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if len(peers) > 1 {
		fmt.Printf("perdnn-master: serving shard %d of %d on %s with %d edge servers (r=%.0fm)\n",
			*shard, len(peers), ln.Addr(), len(edges), *radius)
	} else {
		fmt.Printf("perdnn-master: serving on %s with %d edge servers (r=%.0fm)\n",
			ln.Addr(), len(edges), *radius)
	}
	return m.ServeContext(ctx, ln)
}

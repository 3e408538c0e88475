// Package livetest starts the live daemons a test needs on loopback, in
// the manner of net/http/httptest: a master, an edge daemon and a bare
// wire.Server are all served, stopped and checked the same way.
//
// It imports neither master nor edged, so their in-package tests can use
// it. Only test code may import it: it links package testing.
package livetest

import (
	"context"
	"net"
	"sync"
	"testing"

	"perdnn/internal/estimator"
	"perdnn/internal/gpusim"
	"perdnn/internal/profile"
)

// Daemon is what Serve runs: *master.Master, *edged.Server and
// *wire.Server are each one.
type Daemon interface {
	ServeContext(ctx context.Context, ln net.Listener) error
	Close() error
}

// Serve serves d on a fresh loopback listener and returns its address and
// the func that stops it (see ServeOn).
func Serve(tb testing.TB, d Daemon) (addr string, stop func()) {
	tb.Helper()
	ln := Listen(tb)
	return ln.Addr().String(), ServeOn(tb, ln, d)
}

// ServeOn serves d on ln, which it takes over, under a cancellable
// context. stop cancels that context, closes d, waits for ServeContext to
// return and fails the test on a close or serve error. It is idempotent
// and registered with tb.Cleanup, so no daemon outlives its test.
//
// Serve is ServeOn over Listen; call the two apart only when a daemon's
// config must name addresses before it is built (a sharded master's
// peers).
func ServeOn(tb testing.TB, ln net.Listener, d Daemon) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.ServeContext(ctx, ln) }()
	var once sync.Once
	stop = func() {
		once.Do(func() {
			cancel()
			if err := d.Close(); err != nil {
				tb.Errorf("livetest: closing %T: %v", d, err)
			}
			if err := <-done; err != nil {
				tb.Errorf("livetest: %T serve: %v", d, err)
			}
		})
	}
	tb.Cleanup(stop)
	return stop
}

// Listen returns a fresh loopback listener.
func Listen(tb testing.TB) net.Listener {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	return ln
}

// DeadAddr returns a loopback address that nothing listens on: a port the
// kernel handed out, closed again.
func DeadAddr(tb testing.TB) string {
	tb.Helper()
	ln := Listen(tb)
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		tb.Fatal(err)
	}
	return addr
}

var trainEstimator = sync.OnceValues(func() (*estimator.ServerEstimator, error) {
	return estimator.TrainServerEstimator(profile.ServerTitanXp(), gpusim.DefaultParams(), 1)
})

// Estimator returns the seed-1 server estimator that master.New trains
// when its Config.Estimator is nil, trained once per test binary. Passed
// as Config.Estimator, it makes a master cost microseconds, not a
// training.
func Estimator(tb testing.TB) *estimator.ServerEstimator {
	tb.Helper()
	est, err := trainEstimator()
	if err != nil {
		tb.Fatal(err)
	}
	return est
}

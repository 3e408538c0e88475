package livetest_test

import (
	"context"
	"io"
	"log/slog"
	"net"
	"testing"

	"perdnn/internal/livetest"
	"perdnn/internal/wire"
)

// TestStopEndsTheDaemon: stop, called twice, leaves nothing accepting at
// the address and ends the connections the daemon was serving.
func TestStopEndsTheDaemon(t *testing.T) {
	ctx := context.Background()
	srv := &wire.Server{Name: "ack", Log: slog.New(slog.NewTextHandler(io.Discard, nil)), Open: func() (wire.Dispatch, func()) {
		return func(context.Context, *wire.Envelope) *wire.Envelope { return wire.NewAck(nil) }, nil
	}}
	addr, stop := livetest.Serve(t, srv)
	conn, err := wire.DialContext(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close() //nolint:errcheck // test teardown
	ping := &wire.Envelope{Type: wire.MsgStatsRequest}
	if resp, err := conn.RoundTripContext(ctx, ping); err != nil || resp.Ack == nil || !resp.Ack.OK {
		t.Fatalf("serving daemon answered %+v, %v", resp, err)
	}
	stop()
	stop()
	if _, err := conn.RoundTripContext(ctx, ping); err == nil {
		t.Error("a connection outlived its stopped daemon")
	}
	for name, a := range map[string]string{"stopped daemon": addr, "DeadAddr": livetest.DeadAddr(t)} {
		if c, err := net.Dial("tcp", a); err == nil {
			_ = c.Close()
			t.Errorf("%s %s accepts connections", name, a)
		}
	}
}

package mobile_test

import (
	"context"
	"io"
	"log/slog"
	"net"
	"testing"

	"perdnn/internal/dnn"
	"perdnn/internal/edged"
	"perdnn/internal/geo"
	"perdnn/internal/master"
	"perdnn/internal/mobile"
	"perdnn/internal/obs"
	"perdnn/internal/raceguard"
)

// warmClient is the steady state a live query runs in: one edge daemon and
// a master on loopback, both serving under a cancellable context, and a
// client (cancellable context too) attached with its whole plan uploaded.
// TimeScale is 0 everywhere, so a query costs the program's own work only.
func warmClient(tb testing.TB) (context.Context, *mobile.Client) {
	tb.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	quiet := obs.NewLogger(io.Discard, slog.LevelError+1, "test")
	served := make(chan error, 2) // one slot per daemon
	listen := func() net.Listener {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		return ln
	}

	ecfg := edged.DefaultConfig(dnn.ModelMobileNet)
	ecfg.TimeScale = 0
	ecfg.Logger = quiet
	edge, err := edged.New(ecfg)
	if err != nil {
		tb.Fatal(err)
	}
	eln := listen()
	go func() { served <- edge.ServeContext(ctx, eln) }()

	loc := geo.NewHexGrid(50).Center(geo.HexCell{})
	mcfg := master.DefaultConfig([]master.EdgeInfo{{Addr: eln.Addr().String(), Location: loc}})
	mcfg.Logger = quiet
	mcfg.Estimator = sharedEstimator(tb)
	m, err := master.New(mcfg)
	if err != nil {
		tb.Fatal(err)
	}
	mln := listen()
	go func() { served <- m.ServeContext(ctx, mln) }()

	client, err := mobile.DialContext(ctx, mobile.Config{
		ID: 1, Model: dnn.ModelMobileNet, MasterAddr: mln.Addr().String(), Logger: quiet,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		if err := client.Close(); err != nil {
			tb.Logf("closing client: %v", err)
		}
		cancel()
		for i := 0; i < cap(served); i++ {
			if err := <-served; err != nil {
				tb.Errorf("serve: %v", err)
			}
		}
	})
	if err := client.ConnectContext(ctx, m.Placement().ServerAt(loc), eln.Addr().String()); err != nil {
		tb.Fatal(err)
	}
	if _, err := client.UploadAllContext(ctx); err != nil {
		tb.Fatal(err)
	}
	if present, total := client.CacheState(); total == 0 || present != total {
		tb.Fatalf("cache %d/%d after full upload", present, total)
	}
	for i := 0; i < 10; i++ { // warm both conns' buffers
		if _, err := client.QueryContext(ctx); err != nil {
			tb.Fatal(err)
		}
	}
	return ctx, client
}

// queryAllocBudget is what one offloaded QueryContext allocates, client and
// edge daemon counted together: the client's cancel watcher for the round
// trip (context.AfterFunc: closure, afterFuncCtx, stop func). Retry, codec,
// request and response bodies, metrics and the serve loop add nothing.
const queryAllocBudget = 3

// TestQueryAllocBudget gates the whole live query, the way
// wire.TestRoundTripCancellableContextAllocs gates the round trip under it.
func TestQueryAllocBudget(t *testing.T) {
	if raceguard.Enabled {
		t.Skip("race detector instrumentation allocates; gate runs in non-race builds")
	}
	ctx, client := warmClient(t)
	if n := testing.AllocsPerRun(200, func() {
		if _, err := client.QueryContext(ctx); err != nil {
			t.Fatal(err)
		}
	}); n > queryAllocBudget {
		t.Errorf("QueryContext allocates %.1f/op across client and edge, budget %d", n, queryAllocBudget)
	}
}

// BenchmarkLiveQuery is the live-steady query loop from the root module, so
// `go test -run '^$' -bench LiveQuery -cpuprofile cpu.out ./internal/mobile`
// profiles what the benchmark harness can only time.
func BenchmarkLiveQuery(b *testing.B) {
	ctx, client := warmClient(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.QueryContext(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

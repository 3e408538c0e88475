package mobile_test

import (
	"context"
	"testing"

	"perdnn/internal/dnn"
	"perdnn/internal/mobile"
	"perdnn/internal/raceguard"
)

// warmClient is the steady state a live query runs in: one edge daemon and
// a master on loopback, and a client (cancellable context) attached with
// its whole plan uploaded. TimeScale is 0 everywhere, so a query costs the
// program's own work only.
func warmClient(tb testing.TB) (context.Context, *mobile.Client) {
	tb.Helper()
	c := topology{Edges: 1, Model: dnn.ModelMobileNet}.start(tb)
	ctx, cancel := context.WithCancel(context.Background())
	tb.Cleanup(cancel)
	client, err := mobile.DialContext(ctx, mobile.Config{
		ID: 1, Model: dnn.ModelMobileNet, MasterAddr: c.addr, Logger: quietLogger(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		if err := client.Close(); err != nil {
			tb.Logf("closing client: %v", err)
		}
	})
	if err := client.ConnectContext(ctx, c.m.Placement().ServerAt(c.edges[0].Location), c.edges[0].Addr); err != nil {
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

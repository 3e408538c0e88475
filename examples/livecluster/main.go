// Live cluster: spins up a master daemon and two edge daemons over
// localhost TCP, then drives a real client through the full PerDNN
// lifecycle — register, cold connect, incremental upload, queries,
// trajectory reports triggering proactive migration, and a warm reconnect
// at the predicted next server.
package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"time"

	"perdnn/internal/dnn"
	"perdnn/internal/edged"
	"perdnn/internal/geo"
	"perdnn/internal/master"
	"perdnn/internal/mobile"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "livecluster:", err)
		os.Exit(1)
	}
}

func run() error {
	const timeScale = 0.002 // 500x faster than real time

	// Canceling ctx on return stops the daemons started below.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Two edge servers in adjacent 50 m cells.
	grid := geo.NewHexGrid(50)
	locs := []geo.Point{grid.Center(geo.HexCell{Q: 0, R: 0}), grid.Center(geo.HexCell{Q: 1, R: 0})}
	edges := make([]master.EdgeInfo, 0, len(locs))
	for i, loc := range locs {
		cfg := edged.DefaultConfig(dnn.ModelInception)
		cfg.TimeScale = timeScale
		cfg.GPUSeed = int64(i + 1)
		srv, err := edged.New(cfg)
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		go srv.ServeContext(ctx, ln) //nolint:errcheck // stopped by cancel on return
		edges = append(edges, master.EdgeInfo{Addr: ln.Addr().String(), Location: loc})
		fmt.Printf("edge %d listening on %s at (%.0f,%.0f)\n", i, ln.Addr(), loc.X, loc.Y)
	}

	mcfg := master.DefaultConfig(edges)
	m, err := master.New(mcfg)
	if err != nil {
		return err
	}
	mln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go m.ServeContext(ctx, mln) //nolint:errcheck // stopped by cancel on return
	fmt.Printf("master listening on %s\n\n", mln.Addr())

	client, err := mobile.DialContext(ctx, mobile.Config{
		ID:         1,
		Model:      dnn.ModelInception,
		MasterAddr: mln.Addr().String(),
		TimeScale:  timeScale,
	})
	if err != nil {
		return err
	}
	defer client.Close() //nolint:errcheck // process exits right after

	pl := m.Placement()
	serverA := pl.ServerAt(edges[0].Location)
	serverB := pl.ServerAt(edges[1].Location)

	fmt.Println("== connect to edge A (cold) ==")
	if err := client.ConnectContext(ctx, serverA, edges[0].Addr); err != nil {
		return err
	}
	present, total := client.CacheState()
	fmt.Printf("cached %d/%d plan layers (miss): queries run mostly locally\n", present, total)
	lat, err := client.QueryContext(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("first query: %v\n", lat.Round(time.Millisecond))

	fmt.Println("\n== incremental upload ==")
	for step := 1; ; step++ {
		more, err := client.UploadStepContext(ctx)
		if err != nil {
			return err
		}
		if !more {
			break
		}
		lat, err := client.QueryContext(ctx)
		if err != nil {
			return err
		}
		present, total = client.CacheState()
		fmt.Printf("after unit %d (%d/%d layers): query %v\n",
			step, present, total, lat.Round(time.Millisecond))
	}

	fmt.Println("\n== walking toward edge B; master migrates proactively ==")
	a := edges[0].Location
	for i := 0; i < 5; i++ {
		if err := client.ReportLocationContext(ctx, geo.Point{X: a.X + float64(i)*8, Y: a.Y}); err != nil {
			return err
		}
	}

	fmt.Println("\n== reconnect at edge B ==")
	if err := client.ConnectContext(ctx, serverB, edges[1].Addr); err != nil {
		return err
	}
	present, total = client.CacheState()
	state := "miss"
	switch {
	case present == total:
		state = "hit — no cold start"
	case present > 0:
		state = "partial"
	}
	fmt.Printf("cached %d/%d plan layers (%s)\n", present, total, state)
	lat, err = client.QueryContext(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("first query at B: %v\n", lat.Round(time.Millisecond))
	return nil
}

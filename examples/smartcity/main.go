// Smart city: a compact version of the paper's large-scale simulation
// (Section IV.B). Dozens of mobile users play back campus trajectories over
// a hexagonal grid of GPU edge servers; the example contrasts the IONN
// baseline, PerDNN, and the always-cached optimum on cold-start behaviour
// and backhaul traffic.
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"perdnn"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "smartcity:", err)
		os.Exit(1)
	}
}

func run() error {
	fmt.Println("generating campus mobility dataset and preparing the city...")
	base, err := perdnn.GenerateKAIST()
	if err != nil {
		return err
	}
	env, err := perdnn.PrepareCity(base)
	if err != nil {
		return err
	}
	fmt.Printf("%d edge servers, %d mobile users, mean speed %.1f m/s\n\n",
		env.Placement.Len(), len(env.Dataset.Test), env.Dataset.MeanSpeed())

	fmt.Printf("%-26s %10s %8s %12s %12s\n", "system", "windowQ", "hit%", "cold starts", "peak uplink")
	for _, s := range []struct {
		label  string
		mode   int
		radius float64
	}{
		{"IONN baseline", 1, 0},
		{"PerDNN r=50m", 2, 50},
		{"PerDNN r=100m", 2, 100},
		{"Optimal (always cached)", 3, 0},
	} {
		mode := perdnn.ModeIONN
		switch s.mode {
		case 2:
			mode = perdnn.ModePerDNN
		case 3:
			mode = perdnn.ModeOptimal
		}
		cfg := perdnn.CityDefaults(perdnn.ModelResNet, mode, s.radius)
		cfg.MaxSteps = 360 // two simulated hours at t = 20 s
		t0 := time.Now()
		res, err := perdnn.RunCityContext(context.Background(), env, cfg)
		if err != nil {
			return err
		}
		_, peakUp := res.Traffic.PeakUp()
		fmt.Printf("%-26s %10d %7.0f%% %12d %9.0f Mbps   (%v)\n",
			s.label, res.WindowQueries, res.HitRatio()*100, res.Misses,
			peakUp/1e6, time.Since(t0).Round(time.Millisecond))
	}
	return nil
}

// Command perdnn-model inspects the model zoo: layer inventories, size and
// compute distributions, partitioning behaviour, and JSON export/import.
//
// Usage:
//
//	perdnn-model -model inception            # summary + heaviest layers
//	perdnn-model -model resnet -layers       # full layer listing
//	perdnn-model -model inception -export m.json
//	perdnn-model -import m.json              # validate + summarize a file
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"perdnn/internal/dnn"
	"perdnn/internal/partition"
	"perdnn/internal/profile"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perdnn-model:", err)
		os.Exit(1)
	}
}

func run() error {
	model := flag.String("model", "inception", "zoo model to inspect")
	layers := flag.Bool("layers", false, "print the full layer listing")
	export := flag.String("export", "", "write the model as JSON to this path")
	importPath := flag.String("import", "", "load a model from JSON instead of the zoo")
	flag.Parse()

	var m *dnn.Model
	if *importPath != "" {
		f, err := os.Open(*importPath)
		if err != nil {
			return err
		}
		defer f.Close() //nolint:errcheck // read-only file
		m, err = dnn.ReadJSON(f)
		if err != nil {
			return err
		}
	} else {
		var err error
		m, err = dnn.ZooModel(dnn.ModelName(*model))
		if err != nil {
			return err
		}
	}

	fmt.Println(m)
	fmt.Println("\nlayer types:")
	counts := m.CountByType()
	types := make([]dnn.LayerType, 0, len(counts))
	for lt := range counts {
		types = append(types, lt)
	}
	sort.Slice(types, func(i, j int) bool { return counts[types[i]] > counts[types[j]] })
	for _, lt := range types {
		fmt.Printf("  %-8s %4d\n", lt, counts[lt])
	}

	fmt.Println("\nheaviest layers by weight:")
	byWeight := make([]int, m.NumLayers())
	for i := range byWeight {
		byWeight[i] = i
	}
	sort.Slice(byWeight, func(a, b int) bool {
		return m.Layers[byWeight[a]].WeightBytes > m.Layers[byWeight[b]].WeightBytes
	})
	for _, i := range byWeight[:min(5, len(byWeight))] {
		l := &m.Layers[i]
		fmt.Printf("  %-20s %-8s %8.2f MB\n", l.Name, l.Type, float64(l.WeightBytes)/(1<<20))
	}

	fmt.Println("\nheaviest layers by compute:")
	byFLOPs := make([]int, m.NumLayers())
	for i := range byFLOPs {
		byFLOPs[i] = i
	}
	sort.Slice(byFLOPs, func(a, b int) bool {
		return m.Layers[byFLOPs[a]].FLOPs > m.Layers[byFLOPs[b]].FLOPs
	})
	for _, i := range byFLOPs[:min(5, len(byFLOPs))] {
		l := &m.Layers[i]
		fmt.Printf("  %-20s %-8s %8.0f MFLOPs\n", l.Name, l.Type, float64(l.FLOPs)/1e6)
	}

	prof := profile.NewModelProfile(m, profile.ClientODROID(), profile.ServerTitanXp())
	fmt.Printf("\nexecution: %v local (%s), %v remote (%s)\n",
		prof.TotalClientTime().Round(time.Millisecond), profile.ClientODROID().Name,
		prof.TotalServerBase().Round(time.Millisecond), profile.ServerTitanXp().Name)
	plan, err := partition.Partition(partition.Request{Profile: prof, Slowdown: 1, Link: partition.LabWiFi()})
	if err != nil {
		return err
	}
	fmt.Printf("partition: %v\n", plan)

	if *layers {
		fmt.Println("\nlayers:")
		for i := range m.Layers {
			l := &m.Layers[i]
			fmt.Printf("  %3d %-22s %-8s in %-12s out %-12s %8.1f KB %10.1f MFLOPs\n",
				l.ID, l.Name, l.Type, l.In, l.Out,
				float64(l.WeightBytes)/1024, float64(l.FLOPs)/1e6)
		}
	}

	if *export != "" {
		f, err := os.Create(*export)
		if err != nil {
			return err
		}
		if err := m.WriteJSON(f); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("\nexported to %s\n", *export)
	}
	return nil
}

package dnn

import "testing"

// Table I targets. Layer counts and sizes of our reconstructions; the paper
// values are noted where they differ slightly (layer-counting conventions of
// the authors' Caffe prototxts are not fully specified).
var zooTargets = []struct {
	name        ModelName
	layers      int   // ours (paper: 110 / 312 / 245)
	minMB       int64 // paper: 16 / 128 / 98
	maxMB       int64
	minGFLOPs   float64
	maxGFLOPs   float64
	outputElems int64
}{
	{ModelMobileNet, 110, 15, 18, 1.0, 1.3, 1000},
	{ModelInception, 301, 120, 132, 3.5, 4.8, 21841},
	{ModelResNet, 227, 95, 104, 7.0, 8.5, 1000},
}

func TestZooMatchesTableI(t *testing.T) {
	for _, tc := range zooTargets {
		m, err := ZooModel(tc.name)
		if err != nil {
			t.Fatalf("ZooModel(%s): %v", tc.name, err)
		}
		if got := m.NumLayers(); got != tc.layers {
			t.Errorf("%s: %d layers, want %d", tc.name, got, tc.layers)
		}
		mb := m.TotalWeightBytes() / (1 << 20)
		if mb < tc.minMB || mb > tc.maxMB {
			t.Errorf("%s: %d MB, want [%d,%d]", tc.name, mb, tc.minMB, tc.maxMB)
		}
		gf := float64(m.TotalFLOPs()) / 1e9
		if gf < tc.minGFLOPs || gf > tc.maxGFLOPs {
			t.Errorf("%s: %.2f GFLOPs, want [%.1f,%.1f]", tc.name, gf, tc.minGFLOPs, tc.maxGFLOPs)
		}
		out := m.Layer(m.OutputLayer()).Out
		if out.Elems() != tc.outputElems {
			t.Errorf("%s: output %v, want %d classes", tc.name, out, tc.outputElems)
		}
	}
}

func TestZooModelsValidate(t *testing.T) {
	for _, n := range ZooNames() {
		m, err := ZooModel(n)
		if err != nil {
			t.Fatalf("ZooModel(%s): %v", n, err)
		}
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", n, err)
		}
	}
}

func TestZooModelUnknown(t *testing.T) {
	if _, err := ZooModel("alexnet"); err == nil {
		t.Error("expected error for unknown model")
	}
}

func TestZooDeterministic(t *testing.T) {
	a, b := Inception21k(), Inception21k()
	if a.NumLayers() != b.NumLayers() || a.TotalWeightBytes() != b.TotalWeightBytes() {
		t.Fatal("zoo construction is not deterministic")
	}
	for i := range a.Layers {
		if a.Layers[i].Name != b.Layers[i].Name || a.Layers[i].FLOPs != b.Layers[i].FLOPs {
			t.Fatalf("layer %d differs between constructions", i)
		}
	}
}

// TestInceptionFrontLoadedCompute verifies the structural property the
// paper's fractional-migration result relies on (Section IV.A): Inception's
// compute is concentrated in the front of the model while its bytes are
// concentrated at the back (the 21k-class FC layer).
func TestInceptionFrontLoadedCompute(t *testing.T) {
	m := Inception21k()
	n := m.NumLayers()
	var frontFLOPs, totalFLOPs, frontBytes, totalBytes int64
	for i := range m.Layers {
		l := &m.Layers[i]
		totalFLOPs += l.FLOPs
		totalBytes += l.WeightBytes
		if i < n/2 {
			frontFLOPs += l.FLOPs
			frontBytes += l.WeightBytes
		}
	}
	if frac := float64(frontFLOPs) / float64(totalFLOPs); frac < 0.5 {
		t.Errorf("front half holds only %.0f%% of FLOPs, want majority", frac*100)
	}
	if frac := float64(frontBytes) / float64(totalBytes); frac > 0.3 {
		t.Errorf("front half holds %.0f%% of bytes, want minority (FC dominates the back)", frac*100)
	}
}

// TestInceptionFCDominatesSize checks that the 21k FC layer is the dominant
// share of the model bytes, which is what makes 9% fractional migration so
// effective for this model.
func TestInceptionFCDominatesSize(t *testing.T) {
	m := Inception21k()
	var fcBytes int64
	for i := range m.Layers {
		if m.Layers[i].Type == FC {
			fcBytes += m.Layers[i].WeightBytes
		}
	}
	if frac := float64(fcBytes) / float64(m.TotalWeightBytes()); frac < 0.6 {
		t.Errorf("FC holds %.0f%% of bytes, want >= 60%%", frac*100)
	}
}

func TestResNetShortcutTopology(t *testing.T) {
	m := ResNet50()
	counts := map[LayerType]int{}
	for i := range m.Layers {
		counts[m.Layers[i].Type]++
	}
	if counts[EltwiseAdd] != 16 {
		t.Errorf("ResNet-50 has %d eltwise adds, want 16", counts[EltwiseAdd])
	}
	if counts[Conv] != 53 {
		t.Errorf("ResNet-50 has %d convs, want 53", counts[Conv])
	}
	// Every eltwise add must have exactly two inputs.
	for i := range m.Layers {
		if m.Layers[i].Type == EltwiseAdd && len(m.Layers[i].Inputs) != 2 {
			t.Errorf("add layer %s has %d inputs", m.Layers[i].Name, len(m.Layers[i].Inputs))
		}
	}
}

func TestMobileNetIsChain(t *testing.T) {
	m := MobileNetV1()
	for i := 1; i < m.NumLayers(); i++ {
		l := m.Layer(LayerID(i))
		if len(l.Inputs) != 1 || l.Inputs[0] != LayerID(i-1) {
			t.Fatalf("layer %d (%s) breaks the chain: inputs %v", i, l.Name, l.Inputs)
		}
	}
}

func TestZooSpatialShapesShrink(t *testing.T) {
	for _, n := range ZooNames() {
		m, _ := ZooModel(n)
		in := m.Layers[0].In
		out := m.Layer(m.OutputLayer()).Out
		if out.H != 1 || out.W != 1 {
			t.Errorf("%s: final spatial dims %dx%d, want 1x1", n, out.H, out.W)
		}
		if in.H != 224 || in.W != 224 || in.C != 3 {
			t.Errorf("%s: input %v, want 3x224x224", n, in)
		}
	}
}

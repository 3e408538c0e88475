package dnn

import (
	"strings"
	"testing"
	"testing/quick"
)

func chainModel(t *testing.T) *Model {
	t.Helper()
	b := NewBuilder("chain", Shape{C: 3, H: 8, W: 8})
	b.Conv("c1", 4, 3, 1, 1)
	b.ReLU("r1")
	b.GlobalPool("p")
	b.FC("fc", 10)
	return b.Build()
}

func TestModelBasics(t *testing.T) {
	m := chainModel(t)
	if m.NumLayers() != 4 {
		t.Fatalf("NumLayers = %d", m.NumLayers())
	}
	if m.OutputLayer() != 3 {
		t.Errorf("OutputLayer = %d", m.OutputLayer())
	}
	if in := m.Layers[0].In; in != (Shape{C: 3, H: 8, W: 8}) {
		t.Errorf("input shape = %v", in)
	}
	if m.TotalWeightBytes() == 0 || m.TotalFLOPs() == 0 {
		t.Error("zero totals")
	}
	if !strings.Contains(m.String(), "chain") {
		t.Errorf("String = %q", m.String())
	}
}

func TestModelLayerPanics(t *testing.T) {
	m := chainModel(t)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	m.Layer(99)
}

func TestSuccessors(t *testing.T) {
	b := NewBuilder("branchy", Shape{C: 4, H: 4, W: 4})
	root := b.Conv("c", 4, 1, 1, 0)
	l := b.ReLU("left")
	b.SetCur(root)
	r := b.ReLU("right")
	b.AddOf("join", l, r)
	m := b.Build()
	succ := m.Successors()
	if len(succ[root.id]) != 2 {
		t.Errorf("root has %d successors, want 2", len(succ[root.id]))
	}
	if len(succ[m.OutputLayer()]) != 0 {
		t.Error("output layer has successors")
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	good := chainModel(t)
	tests := []struct {
		name   string
		mutate func(m *Model)
	}{
		{"no name", func(m *Model) { m.Name = "" }},
		{"no layers", func(m *Model) { m.Layers = nil }},
		{"bad id", func(m *Model) { m.Layers[1].ID = 7 }},
		{"first layer has inputs", func(m *Model) { m.Layers[0].Inputs = []LayerID{0} }},
		{"orphan layer", func(m *Model) { m.Layers[2].Inputs = nil }},
		{"forward edge", func(m *Model) { m.Layers[1].Inputs = []LayerID{3} }},
		{"self edge", func(m *Model) { m.Layers[1].Inputs = []LayerID{1} }},
		{"negative weights", func(m *Model) { m.Layers[0].WeightBytes = -1 }},
		{"weighted layer without bytes", func(m *Model) { m.Layers[0].WeightBytes = 0 }},
		{"empty output", func(m *Model) { m.Layers[3].Out = Shape{} }},
		{"dangling mid layer", func(m *Model) { m.Layers[2].Inputs = []LayerID{0} }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			m := &Model{Name: good.Name, Layers: make([]Layer, len(good.Layers))}
			copy(m.Layers, good.Layers)
			tc.mutate(m)
			if err := m.Validate(); err == nil {
				t.Error("Validate accepted a bad model")
			}
		})
	}
}

func TestShapeBytes(t *testing.T) {
	s := Shape{C: 2, H: 3, W: 4}
	if s.Elems() != 24 {
		t.Errorf("Elems = %d", s.Elems())
	}
	if s.Bytes() != 96 {
		t.Errorf("Bytes = %d", s.Bytes())
	}
	if s.String() != "2x3x4" {
		t.Errorf("String = %q", s.String())
	}
}

func TestLayerTypeString(t *testing.T) {
	if Conv.String() != "conv" {
		t.Errorf("Conv = %q", Conv)
	}
	if LayerType(99).String() != "LayerType(99)" {
		t.Errorf("unknown = %q", LayerType(99))
	}
}

func TestHasWeights(t *testing.T) {
	weighted := []LayerType{Conv, DepthwiseConv, FC, BatchNorm, Scale}
	for _, lt := range weighted {
		if !lt.HasWeights() {
			t.Errorf("%v should have weights", lt)
		}
	}
	weightless := []LayerType{Pool, GlobalPool, ReLU, Concat, EltwiseAdd, Softmax, Dropout}
	for _, lt := range weightless {
		if lt.HasWeights() {
			t.Errorf("%v should not have weights", lt)
		}
	}
}

// Property: conv weight bytes and FLOPs scale linearly with output channels.
func TestConvScalingProperty(t *testing.T) {
	f := func(rawC uint8) bool {
		outC := int(rawC%32) + 1
		b1 := NewBuilder("m1", Shape{C: 3, H: 16, W: 16})
		l1 := b1.Conv("c", outC, 3, 1, 1)
		b2 := NewBuilder("m2", Shape{C: 3, H: 16, W: 16})
		l2 := b2.Conv("c", 2*outC, 3, 1, 1)
		m1 := b1.layers[l1.id]
		m2 := b2.layers[l2.id]
		return m2.FLOPs == 2*m1.FLOPs &&
			m2.Out.C == 2*m1.Out.C
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCheckLayers(t *testing.T) {
	m, err := ZooModel(ModelMobileNet)
	if err != nil {
		t.Fatal(err)
	}
	last := LayerID(m.NumLayers() - 1)
	if err := m.CheckLayers([]LayerID{0, last}); err != nil {
		t.Errorf("valid IDs rejected: %v", err)
	}
	for _, bad := range []LayerID{-1, last + 1, 1 << 40} {
		if err := m.CheckLayers([]LayerID{0, bad}); err == nil {
			t.Errorf("layer %d accepted", bad)
		}
	}
}

// TestTopologyCrossMatchesRescan pins the frontier sweep against a direct
// rescan of the DAG: at every frontier p of each zoo model, Cross[p] is
// the input at 0, the final output at n, and otherwise the summed output
// of every layer before p with a consumer at or after p.
func TestTopologyCrossMatchesRescan(t *testing.T) {
	for _, name := range ZooNames() {
		m, err := ZooModel(name)
		if err != nil {
			t.Fatal(err)
		}
		n := m.NumLayers()
		cross := m.Topo().Cross
		if len(cross) != n+1 {
			t.Fatalf("%s: %d frontiers for %d layers", name, len(cross), n)
		}
		for p := 0; p <= n; p++ {
			var want int64
			switch p {
			case 0:
				want = m.Layers[0].InputBytes()
			case n:
				want = m.Layers[n-1].OutputBytes()
			default:
				crosses := make(map[LayerID]bool)
				for j := p; j < n; j++ {
					for _, in := range m.Layers[j].Inputs {
						if int(in) < p {
							crosses[in] = true
						}
					}
				}
				for i := range crosses {
					want += m.Layers[i].OutputBytes()
				}
			}
			if cross[p] != want {
				t.Fatalf("%s: Cross[%d] = %d, rescan %d", name, p, cross[p], want)
			}
		}
	}
}

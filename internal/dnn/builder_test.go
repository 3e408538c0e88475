package dnn

import "testing"

func TestBuilderShapePropagation(t *testing.T) {
	b := NewBuilder("m", Shape{C: 3, H: 224, W: 224})
	c := b.Conv("c1", 32, 3, 2, 1)
	if c.shape != (Shape{C: 32, H: 112, W: 112}) {
		t.Errorf("conv out = %v", c.shape)
	}
	p := b.Pool("p1", 3, 2, 0)
	if p.shape != (Shape{C: 32, H: 55, W: 55}) {
		t.Errorf("pool out = %v", p.shape)
	}
	g := b.GlobalPool("gp")
	if g.shape != (Shape{C: 32, H: 1, W: 1}) {
		t.Errorf("gpool out = %v", g.shape)
	}
	fc := b.FC("fc", 7)
	if fc.shape != (Shape{C: 7, H: 1, W: 1}) {
		t.Errorf("fc out = %v", fc.shape)
	}
}

func TestBuilderDWConvPreservesChannels(t *testing.T) {
	b := NewBuilder("m", Shape{C: 16, H: 32, W: 32})
	d := b.DWConv("dw", 3, 1, 1)
	if d.shape != (Shape{C: 16, H: 32, W: 32}) {
		t.Errorf("dwconv out = %v", d.shape)
	}
	l := b.layers[d.id]
	// Depthwise weights: K*K*1*C plus bias.
	want := int64(3*3*16+16) * 4
	if l.WeightBytes != want {
		t.Errorf("dw weights = %d, want %d", l.WeightBytes, want)
	}
}

func TestBuilderConcatChannels(t *testing.T) {
	b := NewBuilder("m", Shape{C: 8, H: 16, W: 16})
	root := b.Conv("c", 8, 1, 1, 0)
	a := b.Conv("a", 4, 1, 1, 0)
	b.SetCur(root)
	c := b.Conv("b", 6, 1, 1, 0)
	j := b.ConcatOf("cat", a, c)
	if j.shape != (Shape{C: 10, H: 16, W: 16}) {
		t.Errorf("concat out = %v", j.shape)
	}
	m := b.Build()
	cat := m.Layer(j.id)
	if cat.In.C != 10 {
		t.Errorf("concat in channels = %d", cat.In.C)
	}
}

func TestBuilderPanics(t *testing.T) {
	tests := []struct {
		name string
		fn   func()
	}{
		{"empty input", func() { NewBuilder("m", Shape{}) }},
		{"degenerate conv", func() {
			b := NewBuilder("m", Shape{C: 3, H: 2, W: 2})
			b.Conv("c", 8, 5, 1, 0)
		}},
		{"concat one branch", func() {
			b := NewBuilder("m", Shape{C: 3, H: 8, W: 8})
			r := b.Conv("c", 4, 1, 1, 0)
			b.ConcatOf("cat", r)
		}},
		{"concat spatial mismatch", func() {
			b := NewBuilder("m", Shape{C: 3, H: 8, W: 8})
			root := b.Conv("c", 4, 1, 1, 0)
			a := b.Pool("p", 2, 2, 0)
			b.SetCur(root)
			c := b.Conv("d", 4, 1, 1, 0)
			b.ConcatOf("cat", a, c)
		}},
		{"add shape mismatch", func() {
			b := NewBuilder("m", Shape{C: 3, H: 8, W: 8})
			root := b.Conv("c", 4, 1, 1, 0)
			a := b.Conv("a", 5, 1, 1, 0)
			b.SetCur(root)
			c := b.Conv("d", 4, 1, 1, 0)
			b.AddOf("add", a, c)
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			tc.fn()
		})
	}
}

func TestConvBNReLUQuartet(t *testing.T) {
	b := NewBuilder("m", Shape{C: 3, H: 8, W: 8})
	b.ConvBNReLU("u", 4, 3, 1, 1)
	m := b.Build()
	wantTypes := []LayerType{Conv, BatchNorm, Scale, ReLU}
	if m.NumLayers() != len(wantTypes) {
		t.Fatalf("got %d layers", m.NumLayers())
	}
	for i, want := range wantTypes {
		if m.Layers[i].Type != want {
			t.Errorf("layer %d type = %v, want %v", i, m.Layers[i].Type, want)
		}
	}
}

func TestStrideDefaultsToOne(t *testing.T) {
	if got := outSpatial(8, 3, 0, 1); got != 8 {
		t.Errorf("outSpatial with stride 0 = %d, want 8", got)
	}
}

func TestInputOutputBytes(t *testing.T) {
	b := NewBuilder("m", Shape{C: 3, H: 10, W: 10})
	r := b.Conv("c", 5, 1, 1, 0)
	m := b.Build()
	l := m.Layer(r.id)
	if l.InputBytes() != 3*10*10*4 {
		t.Errorf("InputBytes = %d", l.InputBytes())
	}
	if l.OutputBytes() != 5*10*10*4 {
		t.Errorf("OutputBytes = %d", l.OutputBytes())
	}
}

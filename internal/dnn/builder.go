package dnn

import "fmt"

// Ref is a tap point in a model under construction: a layer plus the shape
// of its output tensor. Branching topologies (Inception, ResNet) save Refs,
// rewind the builder cursor with SetCur, and join branches with ConcatOf or
// AddOf.
type Ref struct {
	id    LayerID
	shape Shape
}

// Builder incrementally constructs a Model. Each method appends one layer
// consuming the current cursor and advances the cursor to it. Builder
// methods panic on geometry errors (non-dividing strides, channel
// mismatches): models are constructed from code, so these are always bugs.
type Builder struct {
	name   string
	layers []Layer
	cur    Ref
}

// NewBuilder starts a model with the given input tensor shape. The input is
// not itself a layer; the first appended layer consumes it directly.
func NewBuilder(name string, input Shape) *Builder {
	if input.Elems() <= 0 {
		panic(fmt.Sprintf("dnn: model %q has empty input shape %v", name, input))
	}
	return &Builder{
		name:   name,
		layers: make([]Layer, 0, 128),
		cur:    Ref{id: -1, shape: input},
	}
}

// Cur returns the current cursor, to be saved before building a branch.
func (b *Builder) Cur() Ref { return b.cur }

// SetCur rewinds the cursor to a previously saved tap point.
func (b *Builder) SetCur(r Ref) { b.cur = r }

func (b *Builder) append(name string, typ LayerType, hyper Hyper, inputs []Ref, out Shape, weightBytes, flops int64) Ref {
	id := LayerID(len(b.layers))
	ids := make([]LayerID, 0, len(inputs))
	var in Shape
	for _, r := range inputs {
		if r.id >= 0 {
			ids = append(ids, r.id)
		}
		in.C += r.shape.C
		in.H, in.W = r.shape.H, r.shape.W
	}
	b.layers = append(b.layers, Layer{
		ID:          id,
		Name:        name,
		Type:        typ,
		Hyper:       hyper,
		Inputs:      ids,
		In:          in,
		Out:         out,
		WeightBytes: weightBytes,
		FLOPs:       flops,
	})
	b.cur = Ref{id: id, shape: out}
	return b.cur
}

func outSpatial(in, kernel, stride, pad int) int {
	if stride <= 0 {
		stride = 1
	}
	out := (in+2*pad-kernel)/stride + 1
	if out <= 0 {
		panic(fmt.Sprintf("dnn: degenerate spatial dim (in=%d k=%d s=%d p=%d)", in, kernel, stride, pad))
	}
	return out
}

// Conv appends a 2-D convolution producing outC channels.
func (b *Builder) Conv(name string, outC, kernel, stride, pad int) Ref {
	in := b.cur.shape
	out := Shape{C: outC, H: outSpatial(in.H, kernel, stride, pad), W: outSpatial(in.W, kernel, stride, pad)}
	return b.append(name, Conv,
		Hyper{Kernel: kernel, Stride: stride, Pad: pad, Groups: 1, OutputK: outC},
		[]Ref{b.cur}, out,
		convWeights(kernel, in.C, outC, 1),
		convFLOPs(kernel, in.C, outC, 1, out.H, out.W))
}

// DWConv appends a depthwise convolution (groups == channels).
func (b *Builder) DWConv(name string, kernel, stride, pad int) Ref {
	in := b.cur.shape
	out := Shape{C: in.C, H: outSpatial(in.H, kernel, stride, pad), W: outSpatial(in.W, kernel, stride, pad)}
	return b.append(name, DepthwiseConv,
		Hyper{Kernel: kernel, Stride: stride, Pad: pad, Groups: in.C, OutputK: in.C},
		[]Ref{b.cur}, out,
		convWeights(kernel, in.C, in.C, in.C),
		convFLOPs(kernel, in.C, in.C, in.C, out.H, out.W))
}

// BN appends a batch-normalization layer (Caffe-style: statistics only;
// the affine transform is a separate Scale layer).
func (b *Builder) BN(name string) Ref {
	s := b.cur.shape
	return b.append(name, BatchNorm, Hyper{OutputK: s.C}, []Ref{b.cur}, s,
		int64(2*s.C+1)*4, 2*s.Elems())
}

// ScaleLayer appends a per-channel affine (gamma, beta) layer.
func (b *Builder) ScaleLayer(name string) Ref {
	s := b.cur.shape
	return b.append(name, Scale, Hyper{OutputK: s.C}, []Ref{b.cur}, s,
		int64(2*s.C)*4, 2*s.Elems())
}

// ReLU appends a rectified-linear activation.
func (b *Builder) ReLU(name string) Ref {
	s := b.cur.shape
	return b.append(name, ReLU, Hyper{}, []Ref{b.cur}, s, 0, s.Elems())
}

// Pool appends a spatial max/avg pooling layer.
func (b *Builder) Pool(name string, kernel, stride, pad int) Ref {
	in := b.cur.shape
	out := Shape{C: in.C, H: outSpatial(in.H, kernel, stride, pad), W: outSpatial(in.W, kernel, stride, pad)}
	return b.append(name, Pool, Hyper{Kernel: kernel, Stride: stride, Pad: pad}, []Ref{b.cur}, out,
		0, out.Elems()*int64(kernel*kernel))
}

// GlobalPool appends a pooling layer collapsing the spatial dimensions.
func (b *Builder) GlobalPool(name string) Ref {
	in := b.cur.shape
	out := Shape{C: in.C, H: 1, W: 1}
	return b.append(name, GlobalPool, Hyper{Kernel: in.H}, []Ref{b.cur}, out, 0, in.Elems())
}

// FC appends a fully connected layer with the given number of units.
func (b *Builder) FC(name string, units int) Ref {
	in := b.cur.shape
	out := Shape{C: units, H: 1, W: 1}
	w := (in.Elems()*int64(units) + int64(units)) * 4
	return b.append(name, FC, Hyper{OutputK: units}, []Ref{b.cur}, out,
		w, 2*in.Elems()*int64(units))
}

// Dropout appends a dropout layer (identity at inference time).
func (b *Builder) Dropout(name string) Ref {
	s := b.cur.shape
	return b.append(name, Dropout, Hyper{}, []Ref{b.cur}, s, 0, s.Elems())
}

// ConcatOf joins branches along the channel dimension and sets the cursor to
// the joined tensor.
func (b *Builder) ConcatOf(name string, branches ...Ref) Ref {
	if len(branches) < 2 {
		panic("dnn: ConcatOf needs at least two branches")
	}
	h, w := branches[0].shape.H, branches[0].shape.W
	c := 0
	for _, r := range branches {
		if r.shape.H != h || r.shape.W != w {
			panic(fmt.Sprintf("dnn: concat %q spatial mismatch: %v vs %v", name, branches[0].shape, r.shape))
		}
		c += r.shape.C
	}
	out := Shape{C: c, H: h, W: w}
	return b.append(name, Concat, Hyper{}, branches, out, 0, out.Elems())
}

// AddOf joins branches by element-wise addition (ResNet shortcut).
func (b *Builder) AddOf(name string, branches ...Ref) Ref {
	if len(branches) < 2 {
		panic("dnn: AddOf needs at least two branches")
	}
	s := branches[0].shape
	for _, r := range branches {
		if r.shape != s {
			panic(fmt.Sprintf("dnn: add %q shape mismatch: %v vs %v", name, s, r.shape))
		}
	}
	return b.append(name, EltwiseAdd, Hyper{}, branches, s, 0, s.Elems()*int64(len(branches)-1))
}

// ConvBNReLU appends the conv + bn + scale + relu quartet that dominates the
// zoo models.
func (b *Builder) ConvBNReLU(name string, outC, kernel, stride, pad int) Ref {
	b.Conv(name, outC, kernel, stride, pad)
	b.BN(name + "/bn")
	b.ScaleLayer(name + "/scale")
	return b.ReLU(name + "/relu")
}

// Build validates and returns the completed model. It panics if validation
// fails: zoo construction errors are programming bugs, not runtime input.
func (b *Builder) Build() *Model {
	m := &Model{Name: b.name, Layers: b.layers}
	if err := m.Validate(); err != nil {
		panic(fmt.Sprintf("dnn: invalid model: %v", err))
	}
	m.initTopo()
	return m
}

// Package dnn provides the DNN model representation PerDNN partitions and
// offloads: a topologically ordered DAG of layers, each carrying the
// hyperparameters, weight size, activation sizes, and FLOP count that the
// partitioner and the execution-time estimators consume.
//
// Models are structural descriptions only — there are no numeric weights.
// The paper's "DNN profile" (Section III.B) is exactly this: "the types and
// hyperparameters of DNN layers ... [it] does not contain the weights of
// layers (the heaviest part of a DNN model)". Weight *bytes* are tracked so
// that uploading and migrating layers takes realistic time.
package dnn

import "fmt"

// LayerType enumerates the layer kinds found in the paper's three evaluation
// models (Table I), following Caffe's layer taxonomy since the paper's
// executor is Caffe-based.
type LayerType int

// Layer types. Conv and FC carry weights; BatchNorm and Scale carry small
// per-channel parameters; the rest are weightless.
const (
	Conv LayerType = iota + 1
	DepthwiseConv
	FC
	Pool
	GlobalPool
	BatchNorm
	Scale
	ReLU
	Concat
	EltwiseAdd
	Softmax
	Dropout
)

var layerTypeNames = map[LayerType]string{
	Conv:          "conv",
	DepthwiseConv: "dwconv",
	FC:            "fc",
	Pool:          "pool",
	GlobalPool:    "gpool",
	BatchNorm:     "bn",
	Scale:         "scale",
	ReLU:          "relu",
	Concat:        "concat",
	EltwiseAdd:    "add",
	Softmax:       "softmax",
	Dropout:       "dropout",
}

// String implements fmt.Stringer.
func (t LayerType) String() string {
	if s, ok := layerTypeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("LayerType(%d)", int(t))
}

// HasWeights reports whether layers of this type carry trained parameters
// that must be transferred before the layer can execute remotely.
func (t LayerType) HasWeights() bool {
	switch t {
	case Conv, DepthwiseConv, FC, BatchNorm, Scale:
		return true
	default:
		return false
	}
}

// LayerID indexes a layer within its model. IDs are dense and equal to the
// layer's position in topological order.
type LayerID int

// Shape describes an activation tensor (channels x height x width) flowing
// between layers. FC outputs use H = W = 1.
type Shape struct {
	C int
	H int
	W int
}

// Elems returns the number of elements in the tensor.
func (s Shape) Elems() int64 { return int64(s.C) * int64(s.H) * int64(s.W) }

// Bytes returns the tensor size in bytes assuming float32 activations.
func (s Shape) Bytes() int64 { return s.Elems() * 4 }

// String implements fmt.Stringer.
func (s Shape) String() string { return fmt.Sprintf("%dx%dx%d", s.C, s.H, s.W) }

// Hyper holds the hyperparameters of a layer — the training-time-fixed
// values the paper's estimators use as features (Section III.C.1).
type Hyper struct {
	Kernel  int // spatial kernel size (square)
	Stride  int // spatial stride
	Pad     int // spatial zero padding
	Groups  int // conv groups (C for depthwise)
	OutputK int // output channels / FC units
}

// Layer is one node of the model DAG.
type Layer struct {
	ID     LayerID
	Name   string
	Type   LayerType
	Hyper  Hyper
	Inputs []LayerID // predecessor layers; empty for the first layer

	In  Shape // input tensor shape (post-concat for multi-input layers)
	Out Shape // output tensor shape

	// WeightBytes is the size of the layer's trained parameters in bytes;
	// it is what incremental upload and proactive migration move around.
	WeightBytes int64
	// FLOPs is the number of floating-point operations one inference of
	// this layer performs; execution-time profiles derive from it.
	FLOPs int64
}

// InputBytes returns the size of the layer's input activation, i.e. the
// bytes a client must ship to the server when this layer is the first
// remotely executed layer.
func (l *Layer) InputBytes() int64 { return l.In.Bytes() }

// OutputBytes returns the size of the layer's output activation.
func (l *Layer) OutputBytes() int64 { return l.Out.Bytes() }

// convWeights returns the parameter bytes of a convolution with the given
// geometry (float32).
func convWeights(kernel, inC, outC, groups int) int64 {
	if groups <= 0 {
		groups = 1
	}
	weights := int64(kernel) * int64(kernel) * int64(inC/groups) * int64(outC)
	bias := int64(outC)
	return (weights + bias) * 4
}

// convFLOPs returns multiply-add FLOPs (counting 2 per MAC) for a conv.
func convFLOPs(kernel, inC, outC, groups, outH, outW int) int64 {
	if groups <= 0 {
		groups = 1
	}
	macs := int64(kernel) * int64(kernel) * int64(inC/groups) * int64(outC) * int64(outH) * int64(outW)
	return 2 * macs
}

// Package estimator implements the layer execution-time estimators of
// Section III.C.1: a random forest over layer hyperparameters and GPU
// statistics (PerDNN's model), and the NeuroSurgeon-style linear/logarithmic
// regression baselines with and without server-load features. It also
// provides the runtime slowdown estimator the partitioner uses to price
// server-side execution under contention, and the Fig 4 evaluation harness.
//
// All learning is implemented from scratch on the standard library: CART
// regression trees with bootstrap aggregation and impurity-based feature
// importance, and ridge-regularized least squares for the linear models.
package estimator

import (
	"math"

	"perdnn/internal/dnn"
	"perdnn/internal/gpusim"
)

// Layer feature indices (see LayerFeatureNames).
const (
	lfFLOPs = iota
	lfKernel
	lfStride
	lfInC
	lfOutC
	lfInHW
	lfOutElems
	lfWeightKB
	numLayerFeatures
)

// Workload feature indices, offset by numLayerFeatures when combined.
const (
	wfClients = iota
	wfKernelUtil
	wfMemUtil
	wfMemGB
	wfTempC
	numLoadFeatures
)

// LayerFeatureNames returns the names of the hyperparameter features, in
// feature order.
func LayerFeatureNames() []string {
	return []string{"gflops", "kernel", "stride", "in_ch", "out_ch", "in_hw", "out_elems", "weight_kb"}
}

// LoadFeatureNames returns the names of the workload features, in feature
// order (these follow the layer features in a combined vector).
func LoadFeatureNames() []string {
	return []string{"clients", "kernel_util", "mem_util", "mem_gb", "temp_c"}
}

// LayerFeatures extracts the hyperparameter feature vector of a layer.
func LayerFeatures(l *dnn.Layer) []float64 {
	return LayerFeaturesInto(make([]float64, numLayerFeatures), l)
}

// LayerFeaturesInto fills dst (len >= 8, the layer feature count) with the
// hyperparameter features of l and returns the filled prefix. With a
// caller-owned buffer it performs no allocation — the hot-path variant of
// LayerFeatures.
func LayerFeaturesInto(dst []float64, l *dnn.Layer) []float64 {
	f := dst[:numLayerFeatures]
	f[lfFLOPs] = float64(l.FLOPs) / 1e9
	f[lfKernel] = float64(l.Hyper.Kernel)
	f[lfStride] = float64(l.Hyper.Stride)
	f[lfInC] = float64(l.In.C)
	f[lfOutC] = float64(l.Out.C)
	f[lfInHW] = float64(l.In.H)
	f[lfOutElems] = float64(l.Out.Elems()) / 1e6
	f[lfWeightKB] = float64(l.WeightBytes) / 1024
	return f
}

// LoadFeaturesInto fills dst (len >= 5, the load feature count) with the
// workload feature vector of GPU sample st and returns the filled prefix.
// With a caller-owned buffer it performs no allocation.
func LoadFeaturesInto(dst []float64, st gpusim.Stats) []float64 {
	f := dst[:numLoadFeatures]
	f[wfClients] = float64(st.ActiveClients)
	f[wfKernelUtil] = st.KernelUtil
	f[wfMemUtil] = st.MemUtil
	f[wfMemGB] = st.MemUsedMB / 1024
	f[wfTempC] = st.TempC / 10
	return f
}

// CombinedFeatures concatenates layer and workload features.
func CombinedFeatures(l *dnn.Layer, st gpusim.Stats) []float64 {
	return CombinedFeaturesInto(make([]float64, numLayerFeatures+numLoadFeatures), l, st)
}

// CombinedFeaturesInto fills dst (len >= 13, the combined feature count)
// with the layer features of l followed by the workload features of st and
// returns the filled prefix. With a caller-owned buffer it performs no
// allocation — the hot-path variant of CombinedFeatures.
func CombinedFeaturesInto(dst []float64, l *dnn.Layer, st gpusim.Stats) []float64 {
	f := dst[:numLayerFeatures+numLoadFeatures]
	LayerFeaturesInto(f[:numLayerFeatures], l)
	LoadFeaturesInto(f[numLayerFeatures:], st)
	return f
}

// CombinedFeatureNames returns the names for CombinedFeatures vectors.
func CombinedFeatureNames() []string {
	out := make([]string, 0, numLayerFeatures+numLoadFeatures)
	out = append(out, LayerFeatureNames()...)
	out = append(out, LoadFeatureNames()...)
	return out
}

// logAugment appends log(1+x) of every non-negative feature, the
// "logarithmic" half of NeuroSurgeon's linear/logarithmic models.
func logAugment(f []float64) []float64 {
	out := make([]float64, 0, 2*len(f))
	out = append(out, f...)
	for _, v := range f {
		out = append(out, math.Log1p(math.Max(0, v)))
	}
	return out
}

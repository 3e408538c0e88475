package dnn

import (
	"errors"
	"fmt"
)

// Model is an immutable, topologically ordered DNN layer DAG. Layer i's
// inputs always have IDs < i, so a single forward scan executes the model.
type Model struct {
	Name   string
	Layers []Layer

	// topo lazily computes the cached Topology exactly once (sync.OnceValue).
	// It is installed by the package's constructor (Builder.Build); Topo
	// falls back to an uncached computation when nil.
	topo func() *Topology
}

// NumLayers returns the number of layers in the model.
func (m *Model) NumLayers() int { return len(m.Layers) }

// TotalWeightBytes returns the total size of all layer parameters — the
// model size reported in Table I.
func (m *Model) TotalWeightBytes() int64 {
	var sum int64
	for i := range m.Layers {
		sum += m.Layers[i].WeightBytes
	}
	return sum
}

// TotalFLOPs returns the total per-inference FLOP count.
func (m *Model) TotalFLOPs() int64 {
	var sum int64
	for i := range m.Layers {
		sum += m.Layers[i].FLOPs
	}
	return sum
}

// Layer returns the layer with the given ID. It panics on out-of-range IDs,
// which always indicate a bug: IDs only come from the model itself.
func (m *Model) Layer(id LayerID) *Layer {
	if id < 0 || int(id) >= len(m.Layers) {
		panic(fmt.Sprintf("dnn: layer id %d out of range [0,%d) in model %q", id, len(m.Layers), m.Name))
	}
	return &m.Layers[id]
}

// CheckLayers rejects layer IDs the model does not have. IDs that arrive
// from outside the process (wire frames) go through it before they index
// the model or a LayerSet, neither of which tolerates a bad ID.
func (m *Model) CheckLayers(ids []LayerID) error {
	for _, id := range ids {
		if id < 0 || int(id) >= len(m.Layers) {
			return fmt.Errorf("dnn: layer %d outside model %s (%d layers)", id, m.Name, len(m.Layers))
		}
	}
	return nil
}

// OutputLayer returns the ID of the model's final layer.
func (m *Model) OutputLayer() LayerID { return LayerID(len(m.Layers) - 1) }

// Successors returns, for each layer, the IDs of the layers consuming its
// output. The final layer has no successors. The result is the cached
// Topology's successor table, shared across callers: it must be treated as
// read-only (use Topo for the richer cached view).
func (m *Model) Successors() [][]LayerID {
	return m.Topo().Succ
}

// Validate checks the structural invariants every model must satisfy:
// dense IDs, topological input ordering, exactly one source (layer 0) and
// one sink (the last layer), and non-negative sizes. Zoo constructors
// validate before returning, so downstream code may assume these hold.
func (m *Model) Validate() error {
	if m.Name == "" {
		return errors.New("dnn: model has no name")
	}
	if len(m.Layers) == 0 {
		return fmt.Errorf("dnn: model %q has no layers", m.Name)
	}
	succ := make([]int, len(m.Layers))
	for i := range m.Layers {
		l := &m.Layers[i]
		if l.ID != LayerID(i) {
			return fmt.Errorf("dnn: model %q layer %d has ID %d", m.Name, i, l.ID)
		}
		if i == 0 && len(l.Inputs) != 0 {
			return fmt.Errorf("dnn: model %q first layer has inputs", m.Name)
		}
		if i > 0 && len(l.Inputs) == 0 {
			return fmt.Errorf("dnn: model %q layer %d (%s) has no inputs", m.Name, i, l.Name)
		}
		for _, in := range l.Inputs {
			if in < 0 || in >= LayerID(i) {
				return fmt.Errorf("dnn: model %q layer %d (%s) has non-topological input %d", m.Name, i, l.Name, in)
			}
			succ[in]++
		}
		if l.WeightBytes < 0 || l.FLOPs < 0 {
			return fmt.Errorf("dnn: model %q layer %d (%s) has negative size", m.Name, i, l.Name)
		}
		if l.Type.HasWeights() && l.WeightBytes == 0 {
			return fmt.Errorf("dnn: model %q layer %d (%s) is weighted but has zero weight bytes", m.Name, i, l.Name)
		}
		if l.Out.Elems() <= 0 {
			return fmt.Errorf("dnn: model %q layer %d (%s) has empty output %v", m.Name, i, l.Name, l.Out)
		}
	}
	for i := 0; i < len(m.Layers)-1; i++ {
		if succ[i] == 0 {
			return fmt.Errorf("dnn: model %q layer %d (%s) output is unused", m.Name, i, m.Layers[i].Name)
		}
	}
	if succ[len(m.Layers)-1] != 0 {
		return fmt.Errorf("dnn: model %q final layer has successors", m.Name)
	}
	return nil
}

// String implements fmt.Stringer with the Table I summary line.
func (m *Model) String() string {
	return fmt.Sprintf("%s: %d layers, %.0f MB, %.2f GFLOPs",
		m.Name, m.NumLayers(), float64(m.TotalWeightBytes())/(1<<20), float64(m.TotalFLOPs())/1e9)
}

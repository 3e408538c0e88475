package dnn

import (
	"slices"
	"testing"
)

func TestLayerSetBasics(t *testing.T) {
	s := NewLayerSet(130)
	if s.Count() != 0 {
		t.Error("new set not empty")
	}
	s.Add(0)
	s.Add(64)
	s.Add(129)
	if !s.Has(0) || !s.Has(64) || !s.Has(129) || s.Has(1) {
		t.Error("membership wrong")
	}
	if s.Count() != 3 {
		t.Errorf("count = %d", s.Count())
	}
	c := s.Clone()
	c.Add(5)
	if s.Has(5) {
		t.Error("clone shares storage")
	}
	s.Clear()
	if s.Count() != 0 {
		t.Error("clear failed")
	}
}

func TestLayerSetBulkOps(t *testing.T) {
	s := NewLayerSet(130)
	s.AddAll([]LayerID{1, 2, 64, 129})
	other := NewLayerSet(130)
	other.AddAll([]LayerID{2, 7, 129})
	s.Union(other)
	if !s.Has(7) || s.Count() != 5 {
		t.Error("union failed")
	}
	s.Subtract(other)
	if s.Has(2) || s.Has(7) || s.Has(129) || !s.Has(1) || !s.Has(64) || s.Count() != 2 {
		t.Error("subtract failed")
	}
	s.AddAll([]LayerID{2, 100})
	s.Intersect(other)
	if !s.Has(2) || s.Count() != 1 {
		t.Error("intersect failed")
	}

	m := &Model{Layers: make([]Layer, 130)}
	for i := range m.Layers {
		m.Layers[i].WeightBytes = int64(i) + 1
	}
	if got := other.WeightBytes(m); got != 3+8+130 {
		t.Errorf("WeightBytes = %d, want %d", got, 3+8+130)
	}
	if got := NewLayerSet(130).WeightBytes(m); got != 0 {
		t.Errorf("empty WeightBytes = %d", got)
	}

	// AppendIDs lists the members in ascending order after what dst holds.
	got := other.AppendIDs([]LayerID{99})
	if want := []LayerID{99, 2, 7, 129}; !slices.Equal(got, want) {
		t.Errorf("AppendIDs = %v, want %v", got, want)
	}
}

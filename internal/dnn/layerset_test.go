package dnn

import "testing"

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
	s := NewLayerSet(100)
	ids := []LayerID{1, 2, 50, 99}
	s.AddAll(ids)
	if !s.ContainsAll(ids) {
		t.Error("ContainsAll false after AddAll")
	}
	if s.ContainsAll([]LayerID{1, 3}) {
		t.Error("ContainsAll true for missing member")
	}
	if !s.ContainsAny([]LayerID{3, 50}) {
		t.Error("ContainsAny false")
	}
	if s.ContainsAny([]LayerID{3, 4}) {
		t.Error("ContainsAny true for disjoint set")
	}
	other := NewLayerSet(100)
	other.Add(7)
	s.Union(other)
	if !s.Has(7) {
		t.Error("union failed")
	}
}

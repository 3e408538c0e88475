package dnn

import "math/bits"

// LayerSet is a fixed-capacity bitset over a model's layer IDs. The
// simulator and the edge daemon keep one per (server, client) pair and the
// live client one per attachment, so compactness matters. Add and Has index
// without bounds checks: IDs that arrive from outside the process must pass
// Model.CheckLayers first.
type LayerSet struct {
	words []uint64
}

// NewLayerSet returns an empty set for a model with n layers.
func NewLayerSet(n int) LayerSet {
	return LayerSet{words: make([]uint64, (n+63)/64)}
}

// Add inserts a layer ID.
func (s LayerSet) Add(id LayerID) {
	s.words[int(id)/64] |= 1 << (uint(id) % 64)
}

// Has reports membership.
func (s LayerSet) Has(id LayerID) bool {
	return s.words[int(id)/64]&(1<<(uint(id)%64)) != 0
}

// Count returns the number of members.
func (s LayerSet) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clear empties the set in place.
func (s LayerSet) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Reset empties the set and (re)sizes it for a model with n layers,
// reusing the existing backing array when it is large enough. The reuse
// matters in the city simulation, which resets every client's layer set on
// every reconnection.
func (s *LayerSet) Reset(n int) {
	words := (n + 63) / 64
	if cap(s.words) < words {
		s.words = make([]uint64, words)
	}
	s.words = s.words[:words]
	for i := range s.words {
		s.words[i] = 0
	}
}

// Clone returns an independent copy.
func (s LayerSet) Clone() LayerSet {
	out := LayerSet{words: make([]uint64, len(s.words))}
	copy(out.words, s.words)
	return out
}

// AddAll inserts every ID in ids.
func (s LayerSet) AddAll(ids []LayerID) {
	for _, id := range ids {
		s.Add(id)
	}
}

// Union merges other into s.
func (s LayerSet) Union(other LayerSet) {
	for i := range s.words {
		s.words[i] |= other.words[i]
	}
}

// Intersect keeps only the members of s that other also holds.
func (s LayerSet) Intersect(other LayerSet) {
	for i := range s.words {
		s.words[i] &= other.words[i]
	}
}

// Subtract removes every member of other from s.
func (s LayerSet) Subtract(other LayerSet) {
	for i := range s.words {
		s.words[i] &^= other.words[i]
	}
}

// AppendIDs appends the set's members to dst in ascending ID order.
func (s LayerSet) AppendIDs(dst []LayerID) []LayerID {
	for i, w := range s.words {
		for ; w != 0; w &= w - 1 {
			dst = append(dst, LayerID(i*64+bits.TrailingZeros64(w)))
		}
	}
	return dst
}

// WeightBytes returns the total weight size of the set's layers in m, the
// model the set was sized for.
func (s LayerSet) WeightBytes(m *Model) int64 {
	var sum int64
	for i, w := range s.words {
		for ; w != 0; w &= w - 1 {
			sum += m.Layers[i*64+bits.TrailingZeros64(w)].WeightBytes
		}
	}
	return sum
}

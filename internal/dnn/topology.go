package dnn

import "sync"

// Topology is the derived, read-only view of a model's DAG that the
// planning hot path consumes: successor lists, last-use positions, and
// cached tensor sizes. Building it walks the whole layer list, and the
// partitioner needs it on every call, so it is computed once per Model and
// shared. A Topology (including every nested slice) must never be mutated;
// it is handed out to concurrent planners.
type Topology struct {
	// Succ[i] lists the layers consuming layer i's output, in increasing
	// ID order. The final layer has no successors.
	Succ [][]LayerID
	// LastUse[i] is the position of layer i's last consumer (i itself for
	// the final layer): its output must cross any frontier p with
	// i < p <= LastUse[i].
	LastUse []int
	// OutBytes[i] caches Layers[i].OutputBytes().
	OutBytes []int64
	// InBytes caches the model input size, Layers[0].InputBytes().
	InBytes int64
	// Cross[p] is the activation bytes that cross frontier p in 0..n: the
	// model input at 0, the final output at n, and in between the output
	// of every layer i < p with a consumer at or after p.
	Cross []int64
}

// computeTopology builds the topology view of m.
func computeTopology(m *Model) *Topology {
	n := len(m.Layers)
	t := &Topology{
		Succ:     make([][]LayerID, n),
		LastUse:  make([]int, n),
		OutBytes: make([]int64, n),
	}
	// Size successor lists exactly (one pass to count, one to fill) and
	// carve them out of a single arena, so the cached topology is one
	// contiguous block with no slack capacity.
	counts := make([]int, n)
	total := 0
	for i := range m.Layers {
		for _, in := range m.Layers[i].Inputs {
			counts[in]++
			total++
		}
	}
	arena := make([]LayerID, total)
	off := 0
	for i, c := range counts {
		t.Succ[i] = arena[off : off : off+c]
		off += c
	}
	for i := range m.Layers {
		for _, in := range m.Layers[i].Inputs {
			t.Succ[in] = append(t.Succ[in], LayerID(i))
		}
	}
	for i := range m.Layers {
		t.LastUse[i] = i
		for _, s := range t.Succ[i] {
			if int(s) > t.LastUse[i] {
				t.LastUse[i] = int(s)
			}
		}
		t.OutBytes[i] = m.Layers[i].OutputBytes()
	}
	if n > 0 {
		t.InBytes = m.Layers[0].InputBytes()
		t.Cross = crossBytes(t, n)
	}
	return t
}

// crossBytes sweeps the frontier once, O(n): layer p-1's output joins the
// crossing set at p, and outputs whose last consumer sits at p-1 leave it.
// The sums are exact int64 arithmetic, so they equal a rescan.
func crossBytes(t *Topology, n int) []int64 {
	cross := make([]int64, n+1)
	// expire[p] collects the output bytes of layers whose last consumer is
	// at position p; the final layer's output never enters the set.
	expire := make([]int64, n)
	for j := range n {
		if t.LastUse[j] > j {
			expire[t.LastUse[j]] += t.OutBytes[j]
		}
	}
	cross[0] = t.InBytes
	var bytes int64
	for p := 1; p < n; p++ {
		if t.LastUse[p-1] >= p {
			bytes += t.OutBytes[p-1]
		}
		bytes -= expire[p-1]
		cross[p] = bytes
	}
	cross[n] = t.OutBytes[n-1]
	return cross
}

// initTopo installs the lazy, concurrency-safe topology cache. The
// package's model constructor (Builder.Build) calls it before the model
// escapes, so planners always hit the cached path.
func (m *Model) initTopo() {
	m.topo = sync.OnceValue(func() *Topology { return computeTopology(m) })
}

// Topo returns the model's cached topology. The result is shared and
// read-only: callers must not modify it or any nested slice. Models built
// outside this package's constructors (struct literals) fall back to
// computing a fresh topology per call, which is correct but allocates.
func (m *Model) Topo() *Topology {
	if m.topo == nil {
		return computeTopology(m)
	}
	return m.topo()
}

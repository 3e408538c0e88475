package mobility

import (
	"sort"

	"perdnn/internal/geo"
	"perdnn/internal/trace"
)

// Markov is the discrete baseline of Table III: client locations are mapped
// to the identifier of the closest edge server and a variable-order Markov
// model — a prediction suffix tree built from sequence frequencies — ranks
// the next server. Given a fresh trajectory, the longest matching context
// is found and, following Jacquet et al.'s universal predictor, only a
// fraction (subseqRatio) of that context is used for the final prediction.
// The suffix tree is as deep as the trajectory length n given to Fit.
type Markov struct {
	pl   *geo.Placement
	n    int
	root *pstNode
}

// subseqRatio is the fraction of the longest matching context used for
// prediction (the paper's a = 0.7).
const subseqRatio = 0.7

var _ Predictor = (*Markov)(nil)

// pstNode is a prediction suffix tree node: children index by the *previous*
// symbol (contexts are stored reversed), counts index by the next symbol.
type pstNode struct {
	children map[geo.ServerID]*pstNode
	counts   map[geo.ServerID]int
}

func newPSTNode() *pstNode {
	return &pstNode{
		children: make(map[geo.ServerID]*pstNode, 4),
		counts:   make(map[geo.ServerID]int, 4),
	}
}

// Name implements Predictor.
func (m *Markov) Name() string { return "Markov" }

// Fit implements Predictor: builds the suffix tree from the discretized
// training trajectories.
func (m *Markov) Fit(train []trace.Trajectory, pl *geo.Placement, n int) error {
	if err := checkFitArgs(train, pl, n); err != nil {
		return err
	}
	m.pl = pl
	m.n = n
	m.root = newPSTNode()

	for _, tr := range train {
		seq := discretize(tr.Points, pl)
		for i := 0; i < len(seq)-1; i++ {
			next := seq[i+1]
			// Insert every context suffix ending at i, up to depth n.
			node := m.root
			node.counts[next]++
			for d := 0; d < n && i-d >= 0; d++ {
				sym := seq[i-d]
				child, ok := node.children[sym]
				if !ok {
					child = newPSTNode()
					node.children[sym] = child
				}
				child.counts[next]++
				node = child
			}
		}
	}
	return nil
}

// Rank implements Predictor.
func (m *Markov) Rank(recent []geo.Point, k int) []geo.ServerID {
	if m.root == nil || len(recent) == 0 || k <= 0 {
		return nil
	}
	seq := discretize(recent, m.pl)

	// Longest matching context, walking backwards from the most recent
	// location.
	depth := 0
	node := m.root
	for d := 0; d < len(seq) && d < m.n; d++ {
		child, ok := node.children[seq[len(seq)-1-d]]
		if !ok {
			break
		}
		node = child
		depth = d + 1
	}
	// Use only subseqRatio of the longest match (Jacquet et al.): re-walk
	// to the truncated depth.
	use := int(float64(depth) * subseqRatio)
	if use < 1 && depth >= 1 {
		use = 1
	}
	node = m.root
	for d := 0; d < use; d++ {
		node = node.children[seq[len(seq)-1-d]]
	}

	type cand struct {
		id geo.ServerID
		c  int
	}
	cands := make([]cand, 0, len(node.counts))
	for id, c := range node.counts {
		cands = append(cands, cand{id: id, c: c})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].c != cands[j].c {
			return cands[i].c > cands[j].c
		}
		return cands[i].id < cands[j].id
	})
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]geo.ServerID, 0, k)
	for _, c := range cands[:k] {
		out = append(out, c.id)
	}
	return out
}

// PredictPoint implements Predictor; the Markov model is not
// coordinate-based ("Markov predictor loses the exact location information
// of clients when mapping ... to a discrete edge server identifier").
func (m *Markov) PredictPoint([]geo.Point) (geo.Point, bool) {
	return geo.Point{}, false
}

// discretize maps each location to the nearest placed server.
func discretize(pts []geo.Point, pl *geo.Placement) []geo.ServerID {
	out := make([]geo.ServerID, 0, len(pts))
	for _, p := range pts {
		id := pl.ServerAt(p)
		if id == geo.NoServer {
			near := pl.Nearest(p, 1)
			if len(near) > 0 {
				id = near[0]
			}
		}
		out = append(out, id)
	}
	return out
}

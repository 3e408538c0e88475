package geo

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// ServerID identifies an edge server within a deployment. IDs are dense
// small integers assigned at placement time; they index directly into the
// simulator's server tables.
type ServerID int

// NoServer is returned by lookups that find no server in range.
const NoServer ServerID = -1

// Placement is an immutable set of edge servers placed at the centers of
// hexagonal grid cells. It answers the three spatial queries PerDNN needs:
//
//   - ServerAt: which server's cell contains a client (its current server),
//   - Nearest: the k servers closest to a predicted location (Table III's
//     top-k evaluation),
//   - Within: every server within r meters of a predicted location (the
//     proactive-migration fan-out of Section III.C.2).
type Placement struct {
	grid    *HexGrid
	centers []Point
	byCell  cellIndex
}

// cellIndex maps each placed cell to its server: an open-addressing table
// with linear probing, keyed by the packed axial pair and hashed by one
// multiplication. It holds at least twice as many slots as servers, so a
// probe run always ends at an empty slot, and its size follows the server
// count, not the area the servers span.
type cellIndex struct {
	slots []cellSlot // power-of-two length
	shift uint       // 64 - log2(len(slots)): keeps a hash's top bits
}

// cellSlot is one table slot; id is NoServer when the slot is empty.
type cellSlot struct {
	key uint64
	id  ServerID
}

// cellHashMul is 2^64 divided by the golden ratio (Fibonacci hashing).
const cellHashMul = 0x9E3779B97F4A7C15

// cellKey packs c's axial pair into one word. ok is false for a cell
// outside the 32-bit range, which no placement holds.
func cellKey(c HexCell) (key uint64, ok bool) {
	if int(int32(c.Q)) != c.Q || int(int32(c.R)) != c.R {
		return 0, false
	}
	return uint64(uint32(c.Q))<<32 | uint64(uint32(c.R)), true
}

func newCellIndex(cells []HexCell) cellIndex {
	size, bits := 2, uint(1)
	for size < 2*len(cells) {
		size, bits = size*2, bits+1
	}
	x := cellIndex{slots: make([]cellSlot, size), shift: 64 - bits}
	for i := range x.slots {
		x.slots[i].id = NoServer
	}
	for id, c := range cells {
		key, ok := cellKey(c)
		if !ok {
			panic(fmt.Sprintf("geo: cell %v out of the placement's 32-bit range", c))
		}
		x.slots[x.probe(key)] = cellSlot{key: key, id: ServerID(id)}
	}
	return x
}

// probe returns the slot holding key, or the empty slot ending its run.
func (x *cellIndex) probe(key uint64) int {
	mask := len(x.slots) - 1
	i := int(key * cellHashMul >> x.shift)
	for x.slots[i].id != NoServer && x.slots[i].key != key {
		i = (i + 1) & mask
	}
	return i
}

// get returns the server placed on c, or NoServer.
func (x *cellIndex) get(c HexCell) ServerID {
	key, ok := cellKey(c)
	if !ok {
		return NoServer
	}
	return x.slots[x.probe(key)].id
}

// NewPlacement allocates one server per distinct grid cell that contains at
// least one of the given visited points, mirroring the paper's "allocate an
// edge server to a cell which had been visited by any user" rule. Server IDs
// are assigned deterministically in row-major cell order.
func NewPlacement(grid *HexGrid, visited []Point) *Placement {
	if grid == nil {
		panic("geo: NewPlacement requires a grid")
	}
	seen := make(map[HexCell]struct{})
	cells := make([]HexCell, 0, 64)
	for _, p := range visited {
		c := grid.CellAt(p)
		if _, ok := seen[c]; ok {
			continue
		}
		seen[c] = struct{}{}
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].R != cells[j].R {
			return cells[i].R < cells[j].R
		}
		return cells[i].Q < cells[j].Q
	})
	pl := &Placement{
		grid:    grid,
		centers: make([]Point, 0, len(cells)),
		byCell:  newCellIndex(cells),
	}
	for _, c := range cells {
		pl.centers = append(pl.centers, grid.Center(c))
	}
	return pl
}

// Len returns the number of placed servers.
func (pl *Placement) Len() int { return len(pl.centers) }

// Center returns the location of server id. It panics on an out-of-range id
// because that always indicates a programming error, never bad input.
func (pl *Placement) Center(id ServerID) Point {
	if id < 0 || int(id) >= len(pl.centers) {
		panic(fmt.Sprintf("geo: server id %d out of range [0,%d)", id, len(pl.centers)))
	}
	return pl.centers[id]
}

// ServerAt returns the server whose cell contains p, or NoServer if the cell
// has no allocated server (the client is outside all service areas).
func (pl *Placement) ServerAt(p Point) ServerID {
	return pl.byCell.get(pl.grid.CellAt(p))
}

type cand struct {
	id ServerID
	d  float64
}

// sortCands orders candidates closest first, ties by server ID. IDs are
// unique, so the order is total.
func sortCands(cands []cand) {
	slices.SortFunc(cands, func(a, b cand) int {
		if c := cmp.Compare(a.d, b.d); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
}

// appendRing walks the cells at exactly hex distance r from center and
// appends every server placed on one whose center lies within radius of p.
func (pl *Placement) appendRing(cands []cand, center HexCell, r int, p Point, radius float64) []cand {
	visit := func(c HexCell) {
		if id := pl.byCell.get(c); id != NoServer {
			if d := p.Dist(pl.centers[id]); d <= radius {
				cands = append(cands, cand{id: id, d: d})
			}
		}
	}
	if r == 0 {
		visit(center)
		return cands
	}
	// Start at center + r steps in direction 4, then walk each side.
	c := HexCell{Q: center.Q + hexDirs[4].Q*r, R: center.R + hexDirs[4].R*r}
	for side := 0; side < 6; side++ {
		for step := 0; step < r; step++ {
			visit(c)
			c = HexCell{Q: c.Q + hexDirs[side].Q, R: c.R + hexDirs[side].R}
		}
	}
	return cands
}

// appendIDs appends the candidates' server IDs to dst, in order.
func appendIDs(dst []ServerID, cands []cand) []ServerID {
	for _, c := range cands {
		dst = append(dst, c.id)
	}
	return dst
}

// Nearest returns the k servers nearest to p, closest first, ties by
// server ID. If fewer than k servers exist, all of them are returned. It
// walks expanding hex rings around p's cell while the rings it has walked
// hold no more cells than the placement has servers; a point the walk
// cannot settle by then (far outside the placement, or not finite) gets a
// scan of every center instead, so the cost stays linear in the placement.
func (pl *Placement) Nearest(p Point, k int) []ServerID {
	if k <= 0 {
		return nil
	}
	n := len(pl.centers)
	if k > n {
		k = n
	}
	center := pl.grid.CellAt(p)
	// Cells at hex distance r have centers at least (1.5r - 1)R from any
	// point inside the center cell, so once the kth-best candidate beats
	// that bound the search can stop. Rings 0..r hold 3r(r+1)+1 cells.
	var buf [32]cand
	cands := buf[:0]
	for r := 0; len(cands) < n; r++ {
		if len(cands) >= k {
			sortCands(cands)
			bound := (1.5*float64(r) - 1) * pl.grid.Radius
			if cands[k-1].d < bound {
				break
			}
		}
		if 3*r*(r+1)+1 > n {
			cands = make([]cand, n)
			for id, c := range pl.centers {
				cands[id] = cand{id: ServerID(id), d: p.Dist(c)}
			}
			break
		}
		cands = pl.appendRing(cands, center, r, p, math.Inf(1))
	}
	sortCands(cands)
	return appendIDs(make([]ServerID, 0, k), cands[:k])
}

// Within appends to dst every server whose center lies within radius
// meters of p, closest first, using a bounded hex-ring search, and returns
// the extended slice. This is the proactive-migration target set: "the
// master server applies the same partitioning algorithm to the edge
// servers within a certain distance (50 m or 100 m) from the predicted
// location". A caller that reuses dst allocates nothing.
func (pl *Placement) Within(dst []ServerID, p Point, radius float64) []ServerID {
	center := pl.grid.CellAt(p)
	// A ring-r center is at least (1.5r - 1)R from any point in the center
	// cell (the bound Nearest stops on), so no ring past this one can hold
	// a server within radius.
	maxRing := int((radius + pl.grid.Radius) / (1.5 * pl.grid.Radius))
	var buf [32]cand
	cands := buf[:0]
	for r := 0; r <= maxRing; r++ {
		cands = pl.appendRing(cands, center, r, p, radius)
	}
	sortCands(cands)
	return appendIDs(dst, cands)
}

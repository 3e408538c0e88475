package geo

import (
	"fmt"
	"math"
	"sort"
)

// ShardMap partitions a Placement's service region into contiguous groups
// of hexagonal super-tiles, one group per shard. Every server — and every
// point of the plane — maps to exactly one shard, deterministically: the
// map is a pure function of (placement, shard count), so two processes
// that build one from the same placement agree on every assignment.
//
// The construction groups cells into rhombic super-tiles of side S (S
// chosen so the placement yields roughly twice as many occupied tiles as
// shards), orders the occupied tiles row-major, and cuts the sequence into
// runs of near-equal server count. Tiles keep neighboring cells together,
// so shards are geographically contiguous regions and a moving client
// crosses a shard boundary only when it genuinely changes region.
type ShardMap struct {
	pl       *Placement
	count    int
	tileSide int
	byServer []int
	byTile   map[HexCell]int // tile coordinate -> shard
}

// NewShardMap partitions the placement into n shards. n is clamped to
// [1, pl.Len()] so no shard can be guaranteed empty by construction;
// callers wanting the realized count read Count. It panics on a nil
// placement with no servers, which can never be sharded meaningfully.
func NewShardMap(pl *Placement, n int) *ShardMap {
	if pl == nil || pl.Len() == 0 {
		panic("geo: NewShardMap requires a non-empty placement")
	}
	total := pl.Len()
	if n < 1 {
		n = 1
	}
	if n > total {
		n = total
	}
	// Aim for ~2n occupied super-tiles: fine enough to balance server
	// counts across shards, coarse enough that each shard is a handful of
	// contiguous tiles rather than a scatter of single cells.
	side := int(math.Sqrt(float64(total) / float64(2*n)))
	if side < 1 {
		side = 1
	}
	m := &ShardMap{
		pl:       pl,
		count:    n,
		tileSide: side,
		byServer: make([]int, total),
		byTile:   make(map[HexCell]int),
	}

	// Collect the occupied tiles with their server counts, row-major.
	counts := make(map[HexCell]int)
	for id := 0; id < total; id++ {
		counts[m.tileOf(pl.grid.CellAt(pl.centers[id]))]++
	}
	tiles := make([]HexCell, 0, len(counts))
	for t := range counts {
		tiles = append(tiles, t)
	}
	sort.Slice(tiles, func(i, j int) bool {
		if tiles[i].R != tiles[j].R {
			return tiles[i].R < tiles[j].R
		}
		return tiles[i].Q < tiles[j].Q
	})

	// Cut the tile sequence into n contiguous runs of near-equal server
	// count. A shard only closes once it owns at least one server, so
	// leading shards are never empty; trailing ones can be only when the
	// placement has fewer occupied tiles than shards.
	shard, cum, owned := 0, 0, 0
	for _, t := range tiles {
		m.byTile[t] = shard
		cum += counts[t]
		owned += counts[t]
		for shard < n-1 && owned > 0 && cum*n >= (shard+1)*total {
			shard++
			owned = 0
		}
	}
	for id := 0; id < total; id++ {
		m.byServer[id] = m.byTile[m.tileOf(pl.grid.CellAt(pl.centers[id]))]
	}
	return m
}

// tileOf maps a grid cell to its super-tile coordinate.
func (m *ShardMap) tileOf(c HexCell) HexCell {
	return HexCell{Q: floorDiv(c.Q, m.tileSide), R: floorDiv(c.R, m.tileSide)}
}

// Count returns the shard count the map was built with (after clamping).
func (m *ShardMap) Count() int { return m.count }

// ShardOf returns the shard owning server id. It panics on an
// out-of-range id, mirroring Placement.Center.
func (m *ShardMap) ShardOf(id ServerID) int {
	if id < 0 || int(id) >= len(m.byServer) {
		panic(fmt.Sprintf("geo: server id %d out of range [0,%d)", id, len(m.byServer)))
	}
	return m.byServer[id]
}

// ShardAt returns the shard owning the region containing p. Points whose
// super-tile holds no server (outside every service area) belong to the
// shard of the nearest placed server, ties by lowest ID, so the whole plane
// is covered.
func (m *ShardMap) ShardAt(p Point) int {
	if s, ok := m.byTile[m.tileOf(m.pl.grid.CellAt(p))]; ok {
		return s
	}
	return m.byServer[m.pl.Nearest(p, 1)[0]]
}

// floorDiv divides rounding toward negative infinity, so tiling is
// translation-consistent across the origin.
func floorDiv(a, s int) int {
	q := a / s
	if a%s != 0 && (a < 0) != (s < 0) {
		q--
	}
	return q
}

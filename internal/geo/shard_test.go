package geo

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// gridPlacement places servers on every cell of a w x h block of the plane.
func gridPlacement(t *testing.T, w, h float64, step float64) *Placement {
	t.Helper()
	grid := NewHexGrid(50)
	var pts []Point
	for x := 0.0; x <= w; x += step {
		for y := 0.0; y <= h; y += step {
			pts = append(pts, Point{X: x, Y: y})
		}
	}
	pl := NewPlacement(grid, pts)
	if pl.Len() < 8 {
		t.Fatalf("placement too small: %d servers", pl.Len())
	}
	return pl
}

func TestShardMapCoversEveryServer(t *testing.T) {
	pl := gridPlacement(t, 2000, 1500, 40)
	for _, n := range []int{1, 2, 3, 4, 8, 16} {
		m := NewShardMap(pl, n)
		if m.Count() != n {
			t.Fatalf("n=%d: Count = %d", n, m.Count())
		}
		seen := make(map[int]int)
		for id := 0; id < pl.Len(); id++ {
			s := m.ShardOf(ServerID(id))
			if s < 0 || s >= n {
				t.Fatalf("n=%d: server %d -> shard %d outside [0,%d)", n, id, s, n)
			}
			seen[s]++
		}
		if len(seen) != n {
			t.Errorf("n=%d: only %d of %d shards own servers", n, len(seen), n)
		}
	}
}

func TestShardMapBalance(t *testing.T) {
	pl := gridPlacement(t, 2000, 1500, 40)
	n := 4
	m := NewShardMap(pl, n)
	counts := make([]int, n)
	for id := 0; id < pl.Len(); id++ {
		counts[m.ShardOf(ServerID(id))]++
	}
	ideal := pl.Len() / n
	for s, c := range counts {
		if c < ideal/2 || c > ideal*2 {
			t.Errorf("shard %d owns %d servers, ideal %d (counts %v)", s, c, ideal, counts)
		}
	}
}

func TestShardMapDeterministic(t *testing.T) {
	pl := gridPlacement(t, 1200, 900, 45)
	a := NewShardMap(pl, 4)
	b := NewShardMap(pl, 4)
	for id := 0; id < pl.Len(); id++ {
		if a.ShardOf(ServerID(id)) != b.ShardOf(ServerID(id)) {
			t.Fatalf("server %d: %d vs %d", id, a.ShardOf(ServerID(id)), b.ShardOf(ServerID(id)))
		}
	}
}

func TestShardAtMatchesServerShard(t *testing.T) {
	pl := gridPlacement(t, 1200, 900, 45)
	m := NewShardMap(pl, 4)
	// A point inside a served cell belongs to the shard of that cell's
	// server; a point in a dead zone still maps to some valid shard.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		p := Point{X: rng.Float64()*1600 - 200, Y: rng.Float64()*1300 - 200}
		s := m.ShardAt(p)
		if s < 0 || s >= m.Count() {
			t.Fatalf("ShardAt(%v) = %d outside [0,%d)", p, s, m.Count())
		}
		if id := pl.ServerAt(p); id != NoServer {
			if got := m.ShardOf(id); got != s {
				// The cell's tile is occupied by construction, so the
				// shard of any server in it must agree with ShardAt.
				t.Errorf("ShardAt(%v) = %d, ShardOf(ServerAt) = %d", p, s, got)
			}
		}
	}
}

// TestShardAtOutsideEveryTile: a point in no occupied super-tile belongs to
// the shard of its nearest server, ties by lowest ID, near the placement
// and 10,000 km from it alike; Nearest answers a point 10,000 km away, and
// both answer a point that is not finite, at once.
func TestShardAtOutsideEveryTile(t *testing.T) {
	pl := gridPlacement(t, 1200, 900, 300)
	m := NewShardMap(pl, 4)
	centers := pl.centers
	nearest := func(p Point) ServerID {
		ids := make([]ServerID, len(centers))
		for i := range ids {
			ids[i] = ServerID(i)
		}
		sort.SliceStable(ids, func(i, j int) bool { return p.Dist(centers[ids[i]]) < p.Dist(centers[ids[j]]) })
		return ids[0]
	}
	rng := rand.New(rand.NewSource(3))
	checked := 0
	for i := 0; i < 400; i++ {
		scale := 3000.0
		if i%2 == 1 {
			scale = 1e7
		}
		p := Point{X: (rng.Float64()*2 - 1) * scale, Y: (rng.Float64()*2 - 1) * scale}
		if _, ok := m.byTile[m.tileOf(pl.grid.CellAt(p))]; ok {
			continue
		}
		checked++
		want := nearest(p)
		if got := m.ShardAt(p); got != m.ShardOf(want) {
			t.Errorf("ShardAt(%v) = %d, nearest server %d is in shard %d", p, got, want, m.ShardOf(want))
		}
		if i%2 == 0 && pl.Nearest(p, 1)[0] != want {
			t.Errorf("Nearest(%v, 1) = %v, brute force %d", p, pl.Nearest(p, 1), want)
		}
	}
	if checked < 200 {
		t.Fatalf("only %d of 400 points fell outside every tile", checked)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		far := Point{X: 1e7, Y: -1e7}
		if got, want := pl.Nearest(far, 1)[0], nearest(far); got != want {
			t.Errorf("Nearest(%v, 1) = %d, brute force %d", far, got, want)
		}
		for _, p := range []Point{{X: math.NaN()}, {Y: math.NaN()}, {X: math.Inf(1)}, {Y: math.Inf(-1)}} {
			if s := m.ShardAt(p); s < 0 || s >= m.Count() {
				t.Errorf("ShardAt(%v) = %d outside [0,%d)", p, s, m.Count())
			}
			if ids := pl.Nearest(p, 3); len(ids) != 3 {
				t.Errorf("Nearest(%v, 3) = %v, want 3 servers", p, ids)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ShardAt or Nearest did not return on a far point or one that is not finite")
	}
}

func TestShardMapClampsCount(t *testing.T) {
	grid := NewHexGrid(50)
	pl := NewPlacement(grid, []Point{{X: 0, Y: 0}, {X: 300, Y: 0}, {X: 600, Y: 0}})
	if got := NewShardMap(pl, 16).Count(); got != 3 {
		t.Errorf("Count = %d, want clamp to 3", got)
	}
	if got := NewShardMap(pl, 0).Count(); got != 1 {
		t.Errorf("Count = %d, want clamp to 1", got)
	}
}

func TestShardMapContiguity(t *testing.T) {
	// Walking a straight line across the region must visit each shard in
	// one contiguous stretch: contiguous tiling means no shard appears,
	// disappears, and reappears along a monotone path.
	pl := gridPlacement(t, 2000, 400, 40)
	m := NewShardMap(pl, 4)
	var order []int
	last := -1
	for x := 0.0; x <= 2000; x += 10 {
		s := m.ShardAt(Point{X: x, Y: 200})
		if s != last {
			order = append(order, s)
			last = s
		}
	}
	seen := make(map[int]bool)
	for i, s := range order {
		if seen[s] {
			t.Fatalf("shard %d revisited along a straight walk (order %v, step %d)", s, order, i)
		}
		if i > 0 {
			seen[order[i-1]] = true
		}
	}
}

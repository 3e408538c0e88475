package geo

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"perdnn/internal/raceguard"
)

func TestPointArithmetic(t *testing.T) {
	p := Point{X: 3, Y: 4}
	q := Point{X: 1, Y: 2}
	if got := p.Add(q); got != (Point{X: 4, Y: 6}) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != (Point{X: 2, Y: 2}) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != (Point{X: 6, Y: 8}) {
		t.Errorf("Scale = %v", got)
	}
	if got := (Point{}).Dist(p); got != 5 {
		t.Errorf("Dist = %v, want 5", got)
	}
}

func TestLerp(t *testing.T) {
	p := Point{X: 0, Y: 0}
	q := Point{X: 10, Y: 20}
	if got := p.Lerp(q, 0); got != p {
		t.Errorf("Lerp(0) = %v, want %v", got, p)
	}
	if got := p.Lerp(q, 1); got != q {
		t.Errorf("Lerp(1) = %v, want %v", got, q)
	}
	if got := p.Lerp(q, 0.5); got != (Point{X: 5, Y: 10}) {
		t.Errorf("Lerp(0.5) = %v", got)
	}
}

func TestRect(t *testing.T) {
	r := NewRect(100, 50)
	if got := r.Clamp(Point{X: 200, Y: -10}); got != (Point{X: 100, Y: 0}) {
		t.Errorf("Clamp = %v", got)
	}
	if r.Width() != 100 || r.Height() != 50 {
		t.Errorf("dims = %v x %v", r.Width(), r.Height())
	}
}

func TestHexGridRoundTrip(t *testing.T) {
	g := NewHexGrid(50)
	// The center of every cell must map back to that cell.
	for q := -10; q <= 10; q++ {
		for r := -10; r <= 10; r++ {
			c := HexCell{Q: q, R: r}
			if got := g.CellAt(g.Center(c)); got != c {
				t.Fatalf("CellAt(Center(%v)) = %v", c, got)
			}
		}
	}
}

func TestHexGridCellAtProperty(t *testing.T) {
	g := NewHexGrid(50)
	// Property: every point maps to the cell whose center is nearest
	// (hex cells are the Voronoi regions of their centers).
	f := func(xRaw, yRaw int16) bool {
		p := Point{X: float64(xRaw) / 10, Y: float64(yRaw) / 10}
		c := g.CellAt(p)
		dc := p.Dist(g.Center(c))
		for _, n := range g.Neighbors(c) {
			if p.Dist(g.Center(n)) < dc-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestHexGridPanicsOnBadRadius(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-positive radius")
		}
	}()
	NewHexGrid(0)
}

func TestNeighborsAreDistanceOne(t *testing.T) {
	c := HexCell{Q: 3, R: -2}
	g := NewHexGrid(50)
	ns := g.Neighbors(c)
	if len(ns) != 6 {
		t.Fatalf("got %d neighbors, want 6", len(ns))
	}
	for _, n := range ns {
		if d := g.Center(c).Dist(g.Center(n)); math.Abs(d-50*math.Sqrt(3)) > 1e-9 {
			t.Errorf("neighbor %v's center %v m away, want one cell step", n, d)
		}
	}
}

func TestPlacementAllocatesPerVisitedCell(t *testing.T) {
	g := NewHexGrid(50)
	// Three points: two in the same cell, one in another.
	c0 := g.Center(HexCell{Q: 0, R: 0})
	c1 := g.Center(HexCell{Q: 3, R: 1})
	pl := NewPlacement(g, []Point{c0, c0.Add(Point{X: 1, Y: 1}), c1})
	if pl.Len() != 2 {
		t.Fatalf("Len = %d, want 2", pl.Len())
	}
	if pl.ServerAt(c0) == NoServer {
		t.Error("no server at first visited cell")
	}
	if pl.ServerAt(c1) == NoServer {
		t.Error("no server at second visited cell")
	}
	far := g.Center(HexCell{Q: 20, R: 20})
	if pl.ServerAt(far) != NoServer {
		t.Error("server allocated in unvisited cell")
	}
}

func TestPlacementDeterministicIDs(t *testing.T) {
	g := NewHexGrid(50)
	pts := []Point{{X: 0, Y: 0}, {X: 500, Y: 500}, {X: 900, Y: 100}}
	a := NewPlacement(g, pts)
	// Same points in a different order must produce the same ID mapping.
	b := NewPlacement(g, []Point{pts[2], pts[0], pts[1]})
	for _, p := range pts {
		if a.ServerAt(p) != b.ServerAt(p) {
			t.Errorf("nondeterministic server ID at %v: %d vs %d", p, a.ServerAt(p), b.ServerAt(p))
		}
	}
}

func TestPlacementNearestOrder(t *testing.T) {
	g := NewHexGrid(50)
	pts := []Point{{X: 0, Y: 0}, {X: 300, Y: 0}, {X: 600, Y: 0}}
	pl := NewPlacement(g, pts)
	near := pl.Nearest(Point{X: 10, Y: 0}, 3)
	if len(near) != 3 {
		t.Fatalf("Nearest returned %d", len(near))
	}
	d0 := pl.Center(near[0]).Dist(Point{X: 10, Y: 0})
	for i := 1; i < len(near); i++ {
		di := pl.Center(near[i]).Dist(Point{X: 10, Y: 0})
		if di < d0 {
			t.Errorf("Nearest not sorted: %v then %v", d0, di)
		}
		d0 = di
	}
	if got := pl.Nearest(Point{}, 0); got != nil {
		t.Errorf("Nearest(k=0) = %v, want nil", got)
	}
	if got := pl.Nearest(Point{}, 99); len(got) != pl.Len() {
		t.Errorf("Nearest(k>n) returned %d, want %d", len(got), pl.Len())
	}
}

func TestPlacementWithin(t *testing.T) {
	g := NewHexGrid(50)
	pts := []Point{{X: 0, Y: 0}, {X: 300, Y: 0}, {X: 2000, Y: 2000}}
	pl := NewPlacement(g, pts)
	in := pl.Within(nil, Point{X: 0, Y: 0}, 400)
	if len(in) != 2 {
		t.Fatalf("Within = %d servers, want 2", len(in))
	}
	for _, id := range in {
		if pl.Center(id).Dist(Point{}) > 400 {
			t.Errorf("server %d outside radius", id)
		}
	}
	if got := pl.Within(nil, Point{X: -5000, Y: -5000}, 10); len(got) != 0 {
		t.Errorf("Within empty region = %v", got)
	}
}

func TestPlacementWithinSubsetOfNearest(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := NewHexGrid(50)
	pts := make([]Point, 0, 200)
	for i := 0; i < 200; i++ {
		pts = append(pts, Point{X: rng.Float64() * 2000, Y: rng.Float64() * 2000})
	}
	pl := NewPlacement(g, pts)
	for trial := 0; trial < 50; trial++ {
		p := Point{X: rng.Float64() * 2000, Y: rng.Float64() * 2000}
		within := pl.Within(nil, p, 150)
		nearest := pl.Nearest(p, len(within))
		// The set of servers within r, ordered by distance, must equal the
		// |within| nearest servers.
		for i := range within {
			if within[i] != nearest[i] {
				t.Fatalf("Within/Nearest disagree at %v: %v vs %v", p, within, nearest)
			}
		}
	}
}

func TestPlacementCenterPanicsOutOfRange(t *testing.T) {
	pl := NewPlacement(NewHexGrid(50), []Point{{}})
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range id")
		}
	}()
	pl.Center(ServerID(5))
}

// bruteWithin is the specification of Within: scan every center, keep those
// within radius, order by (distance, ID).
func bruteWithin(pl *Placement, p Point, radius float64) []ServerID {
	var cands []cand
	for id, c := range pl.centers {
		if d := p.Dist(c); d <= radius {
			cands = append(cands, cand{id: ServerID(id), d: d})
		}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].d != cands[j].d {
			return cands[i].d < cands[j].d
		}
		return cands[i].id < cands[j].id
	})
	out := make([]ServerID, len(cands))
	for i, c := range cands {
		out[i] = c.id
	}
	return out
}

// TestPlacementMatchesBruteForce: the ring search returns exactly what a
// scan of the centers does, in the same order, for Within at the radii the
// evaluation uses and for Nearest at the count Within found.
func TestPlacementMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := make([]Point, 0, 600)
	for i := 0; i < 600; i++ {
		pts = append(pts, Point{X: rng.Float64() * 3000, Y: rng.Float64() * 3000})
	}
	pl := NewPlacement(NewHexGrid(50), pts)
	for trial := 0; trial < 1000; trial++ {
		// Some points fall outside the placed area.
		p := Point{X: rng.Float64()*3400 - 200, Y: rng.Float64()*3400 - 200}
		for _, radius := range []float64{50, 100, 175} {
			want := bruteWithin(pl, p, radius)
			if got := pl.Within(nil, p, radius); !slices.Equal(got, want) {
				t.Fatalf("Within(%v, %v) = %v, brute force %v", p, radius, got, want)
			}
			if got := pl.Nearest(p, len(want)); !slices.Equal(got, want) {
				t.Fatalf("Nearest(%v, %d) = %v, brute force %v", p, len(want), got, want)
			}
		}
	}
}

// TestPlacementSearchAllocs: Within appends into the caller's slice and
// allocates nothing once it has room; Nearest allocates the slice it
// returns and nothing else (rings are walked in place, candidates live on
// the stack at the evaluation's radii).
func TestPlacementSearchAllocs(t *testing.T) {
	if raceguard.Enabled {
		t.Skip("race detector instrumentation allocates; gate runs in non-race builds")
	}
	rng := rand.New(rand.NewSource(3))
	pts := make([]Point, 0, 400)
	for i := 0; i < 400; i++ {
		pts = append(pts, Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000})
	}
	pl := NewPlacement(NewHexGrid(50), pts)
	p := Point{X: 480, Y: 510}
	buf := pl.Within(nil, p, 175)
	if n := testing.AllocsPerRun(100, func() { buf = pl.Within(buf[:0], p, 175) }); n != 0 {
		t.Errorf("Within allocates %.0f times, budget 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { pl.Nearest(p, 8) }); n > 1 {
		t.Errorf("Nearest allocates %.0f times, budget 1", n)
	}
}

// TestWithinMatchesBruteForce holds Within's ring bound to a full scan over
// a Geolife-sized placement (about 3,900 servers on 50 m cells): the same
// IDs in the same order, at radii from zero to past four rings, for random
// points and for points on cell corners, where a point is farthest from
// its own center.
func TestWithinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	grid := NewHexGrid(50)
	pts := make([]Point, 0, 4000)
	for i := 0; i < 4000; i++ {
		pts = append(pts, Point{X: rng.Float64() * 8000, Y: rng.Float64() * 8000})
	}
	pl := NewPlacement(grid, pts)
	probes := make([]Point, 0, 900)
	for i := 0; i < 300; i++ {
		probes = append(probes, Point{X: rng.Float64()*8400 - 200, Y: rng.Float64()*8400 - 200})
		c := grid.Center(grid.CellAt(pts[rng.Intn(len(pts))]))
		a := math.Pi/6 + float64(rng.Intn(6))*math.Pi/3
		probes = append(probes, c, Point{X: c.X + grid.Radius*math.Cos(a), Y: c.Y + grid.Radius*math.Sin(a)})
	}
	for _, p := range probes {
		for _, radius := range []float64{0, 25, 50, 75, 100, 150, 217} {
			if got, want := pl.Within(nil, p, radius), bruteWithin(pl, p, radius); !slices.Equal(got, want) {
				t.Fatalf("Within(%v, %v) = %v, full scan %v", p, radius, got, want)
			}
		}
	}
}

// TestServerAtMatchesCellScan holds ServerAt's cell table to its
// definition: CellAt, then a scan of the centers for the server whose center
// lies in that cell, or NoServer. The placement is the Geolife-sized one of
// TestWithinMatchesBruteForce. Probes fall inside the served area, outside
// it (including far beyond any table key's 32-bit range), and on every
// corner of a sample of served cells, where rounding picks the cell.
func TestServerAtMatchesCellScan(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	grid := NewHexGrid(50)
	pts := make([]Point, 0, 4000)
	for i := 0; i < 4000; i++ {
		pts = append(pts, Point{X: rng.Float64() * 8000, Y: rng.Float64() * 8000})
	}
	pl := NewPlacement(grid, pts)
	centers := pl.centers
	centerCells := make([]HexCell, len(centers))
	for id, ctr := range centers {
		centerCells[id] = grid.CellAt(ctr)
	}
	scan := func(p Point) ServerID {
		c := grid.CellAt(p)
		for id, cc := range centerCells {
			if cc == c {
				return ServerID(id)
			}
		}
		return NoServer
	}
	probes := make([]Point, 0, 12000)
	for i := 0; i < 2000; i++ {
		// Inside: a visited point, jittered within a cell radius.
		v := pts[rng.Intn(len(pts))]
		probes = append(probes, Point{X: v.X + (rng.Float64()-0.5)*grid.Radius, Y: v.Y + (rng.Float64()-0.5)*grid.Radius})
		// Around and outside: a box past the served area on every side.
		probes = append(probes, Point{X: rng.Float64()*12000 - 2000, Y: rng.Float64()*12000 - 2000})
	}
	for i := 0; i < 500; i++ {
		c := centers[rng.Intn(len(centers))]
		for k := 0; k < 6; k++ {
			a := math.Pi/6 + float64(k)*math.Pi/3
			probes = append(probes, Point{X: c.X + grid.Radius*math.Cos(a), Y: c.Y + grid.Radius*math.Sin(a)})
		}
	}
	probes = append(probes, Point{X: -1e6, Y: 3e6}, Point{X: 1e12, Y: 1e12}, Point{X: -4e11, Y: 7e11})
	inside := 0
	for _, p := range probes {
		got, want := pl.ServerAt(p), scan(p)
		if got != want {
			t.Fatalf("ServerAt(%v) = %d, cell scan %d", p, got, want)
		}
		if got != NoServer {
			inside++
		}
	}
	if inside == 0 || inside == len(probes) {
		t.Fatalf("%d of %d probes served: the probes miss one side", inside, len(probes))
	}
}

// Package geo provides the planar geometry primitives used throughout
// PerDNN: 2-D points in a local metric coordinate system (meters), axial
// hexagonal grids used to place edge servers, and nearest/within-radius
// queries against a set of placed servers.
//
// The paper (Section IV.B.1) divides the evaluation region into a hexagonal
// grid whose cells have a radius of 50 m (the service range of a typical
// Wi-Fi AP) and allocates one edge server per cell that any user trajectory
// has visited. This package implements exactly that construction.
package geo

import (
	"fmt"
	"math"
)

// CellRadius is the radius in meters of the hexagonal service cells, one
// edge server per visited cell (Section IV.B.1: the service range of a
// typical Wi-Fi AP).
const CellRadius = 50

// Point is a position in a local planar coordinate system. Units are meters.
// Trajectory datasets are projected into this system before use so that
// Euclidean distance is meaningful.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{X: p.X + q.X, Y: p.Y + q.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Point { return Point{X: p.X - q.X, Y: p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{X: p.X * s, Y: p.Y * s} }

// Dist returns the Euclidean distance between p and q in meters.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Hypot(dx, dy)
}

// Finite reports whether every coordinate of pts is a finite number.
func Finite(pts []Point) bool {
	for _, p := range pts {
		if math.IsNaN(p.X) || math.IsInf(p.X, 0) || math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
			return false
		}
	}
	return true
}

// Lerp returns the point a fraction t of the way from p to q.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{X: p.X + (q.X-p.X)*t, Y: p.Y + (q.Y-p.Y)*t}
}

// Rect is an axis-aligned rectangle used to clip datasets to the evaluation
// region (e.g. the 7.2 km x 5.6 km Beijing rectangle, or the 1.5 km x 2 km
// KAIST campus rectangle).
type Rect struct {
	Min Point `json:"min"`
	Max Point `json:"max"`
}

// NewRect returns the rectangle spanning (0,0)..(w,h).
func NewRect(w, h float64) Rect {
	return Rect{Min: Point{}, Max: Point{X: w, Y: h}}
}

// Clamp returns p constrained to lie inside r.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Max(r.Min.X, math.Min(r.Max.X, p.X)),
		Y: math.Max(r.Min.Y, math.Min(r.Max.Y, p.Y)),
	}
}

// Width returns the horizontal extent of r in meters.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of r in meters.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// HexCell identifies a cell of a hexagonal grid in axial coordinates.
type HexCell struct {
	Q int `json:"q"`
	R int `json:"r"`
}

// String implements fmt.Stringer.
func (c HexCell) String() string { return fmt.Sprintf("hex(%d,%d)", c.Q, c.R) }

// HexGrid is a pointy-top hexagonal tiling of the plane. Radius is the
// circumradius of each cell in meters (50 m in the paper: the service range
// of a typical Wi-Fi AP).
type HexGrid struct {
	// Radius is the cell circumradius in meters.
	Radius float64
}

// NewHexGrid returns a hexagonal grid with the given cell radius. It panics
// if radius is not positive, because every downstream computation divides by
// it.
func NewHexGrid(radius float64) *HexGrid {
	if radius <= 0 {
		panic(fmt.Sprintf("geo: hex grid radius must be positive, got %v", radius))
	}
	return &HexGrid{Radius: radius}
}

// CellAt returns the cell containing p.
func (g *HexGrid) CellAt(p Point) HexCell {
	// Convert to fractional axial coordinates (pointy-top orientation).
	q := (math.Sqrt(3)/3*p.X - 1.0/3*p.Y) / g.Radius
	r := (2.0 / 3 * p.Y) / g.Radius
	return roundHex(q, r)
}

// Center returns the center point of cell c.
func (g *HexGrid) Center(c HexCell) Point {
	x := g.Radius * math.Sqrt(3) * (float64(c.Q) + float64(c.R)/2)
	y := g.Radius * 1.5 * float64(c.R)
	return Point{X: x, Y: y}
}

// hexDirs are the six axial neighbor offsets, in ring-walk order.
var hexDirs = [6]HexCell{
	{Q: 1, R: 0}, {Q: 1, R: -1}, {Q: 0, R: -1},
	{Q: -1, R: 0}, {Q: -1, R: 1}, {Q: 0, R: 1},
}

// Neighbors returns the six cells adjacent to c.
func (g *HexGrid) Neighbors(c HexCell) []HexCell {
	out := make([]HexCell, 0, len(hexDirs))
	for _, d := range hexDirs {
		out = append(out, HexCell{Q: c.Q + d.Q, R: c.R + d.R})
	}
	return out
}

// roundHex rounds fractional axial coordinates to the nearest cell using
// cube-coordinate rounding.
func roundHex(q, r float64) HexCell {
	s := -q - r
	rq, rr, rs := math.Round(q), math.Round(r), math.Round(s)
	dq, dr, ds := math.Abs(rq-q), math.Abs(rr-r), math.Abs(rs-s)
	switch {
	case dq > dr && dq > ds:
		rq = -rr - rs
	case dr > ds:
		rr = -rq - rs
	}
	return HexCell{Q: int(rq), R: int(rr)}
}

package mobility

import (
	"math/rand"
	"testing"

	"perdnn/internal/geo"
	"perdnn/internal/raceguard"
)

// randomSVR returns an SVR over n-point histories with random weights and
// normalizer, as Fit would leave it.
func randomSVR(rng *rand.Rand, n int) *SVR {
	s := &SVR{n: n, norm: &Normalizer{
		Mean: geo.Point{X: rng.Float64() * 5000, Y: rng.Float64() * 5000},
		Std:  geo.Point{X: 100 + rng.Float64()*2000, Y: 100 + rng.Float64()*2000},
	}}
	s.wx = make([]float64, 2*n+1)
	s.wy = make([]float64, 2*n+1)
	for j := range s.wx {
		s.wx[j], s.wy[j] = rng.NormFloat64(), rng.NormFloat64()
	}
	return s
}

// features is the SVR's feature vector as it was once built on every
// prediction: the standardized recent locations, the oldest repeated to pad
// a short history, then the bias feature 1.
func features(s *SVR, recent []geo.Point) []float64 {
	f := make([]float64, 0, 2*s.n+1)
	for i := 0; i < s.n; i++ {
		j := i - (s.n - len(recent))
		if j < 0 {
			j = 0
		}
		p := s.norm.ToStd(recent[j])
		f = append(f, p.X, p.Y)
	}
	return append(f, 1)
}

// TestPredictPointMatchesFeatures: PredictPoint sums its dot products
// straight from the points, and must equal the weights dotted with the
// feature vector, bit for bit — on short histories the oldest point pads,
// on long ones only the last n count.
func TestPredictPointMatchesFeatures(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(8)
		s := randomSVR(rng, n)
		recent := make([]geo.Point, 1+rng.Intn(n+3))
		for i := range recent {
			recent[i] = geo.Point{X: rng.Float64() * 7200, Y: rng.Float64() * 5600}
		}
		f := features(s, recent)
		want := s.norm.FromStd(geo.Point{X: dot(s.wx, f), Y: dot(s.wy, f)})
		got, ok := s.PredictPoint(recent)
		if !ok || got != want {
			t.Fatalf("trial %d (n %d, %d points): PredictPoint = %v, %v; features path %v", trial, n, len(recent), got, ok, want)
		}
	}
}

// TestPredictPointAllocs: the city round and the master predict once per
// client per step, so a prediction allocates nothing.
func TestPredictPointAllocs(t *testing.T) {
	if raceguard.Enabled {
		t.Skip("race detector instrumentation allocates; gate runs in non-race builds")
	}
	s := randomSVR(rand.New(rand.NewSource(2)), HistoryLen)
	recent := make([]geo.Point, HistoryLen)
	for i := range recent {
		recent[i] = geo.Point{X: float64(i) * 30, Y: float64(i) * 20}
	}
	if n := testing.AllocsPerRun(100, func() { s.PredictPoint(recent) }); n != 0 {
		t.Errorf("PredictPoint allocates %.0f times, want 0", n)
	}
}

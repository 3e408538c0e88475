// Package trace generates synthetic mobility datasets standing in for the
// paper's two GPS corpora: the KAIST campus traces (CRAWDAD
// ncsu/mobilitymodels: students walking between buildings, ~0.5 m/s,
// clipped to a 1.5 km x 2 km rectangle, 31 played-back users) and Geolife
// (Beijing, mixed transport modes averaging ~3.9 m/s, clipped to a 7.2 km x
// 5.6 km rectangle, 138 played-back users).
//
// The originals are not redistributable here; what the paper's experiments
// consume is their statistics — speed distributions, dwell behaviour,
// routine revisits that make short-horizon trajectory prediction learnable,
// and the set of visited cells that determines edge-server placement. The
// generator reproduces those: each user has a personal set of favourite
// points of interest visited via a per-user Markov routine, walks or rides
// between them with mode-dependent speeds and heading noise, and dwells at
// each stop. All randomness is seeded; generation is deterministic.
package trace

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"perdnn/internal/geo"
)

// Trajectory is one user's position track sampled at a fixed interval.
type Trajectory struct {
	// User is the user's index within its dataset split.
	User int
	// Interval is the sampling period between consecutive points.
	Interval time.Duration
	// Points are the sampled positions, oldest first.
	Points []geo.Point
}

// Len returns the number of samples.
func (tr Trajectory) Len() int { return len(tr.Points) }

// Duration returns the covered time span.
func (tr Trajectory) Duration() time.Duration {
	if len(tr.Points) == 0 {
		return 0
	}
	return time.Duration(len(tr.Points)-1) * tr.Interval
}

// Resample returns the trajectory sampled every `interval` instead. The new
// interval must be a positive multiple of the current one; this mirrors the
// paper's construction of datasets "with different time intervals by
// sampling the trajectory data in a different rate".
func (tr Trajectory) Resample(interval time.Duration) (Trajectory, error) {
	if interval <= 0 || interval%tr.Interval != 0 {
		return Trajectory{}, fmt.Errorf("trace: interval %v is not a multiple of %v", interval, tr.Interval)
	}
	step := int(interval / tr.Interval)
	pts := make([]geo.Point, 0, len(tr.Points)/step+1)
	for i := 0; i < len(tr.Points); i += step {
		pts = append(pts, tr.Points[i])
	}
	return Trajectory{User: tr.User, Interval: interval, Points: pts}, nil
}

// MeanSpeed returns the user's average speed in m/s over the trajectory.
func (tr Trajectory) MeanSpeed() float64 {
	if len(tr.Points) < 2 {
		return 0
	}
	var dist float64
	for i := 1; i < len(tr.Points); i++ {
		dist += tr.Points[i].Dist(tr.Points[i-1])
	}
	return dist / tr.Duration().Seconds()
}

// Dataset is a generated mobility corpus with a train/test user split: the
// predictors are fit on Train and the simulation plays back Test, as in
// Section IV.B.1.
type Dataset struct {
	Name     string
	Area     geo.Rect
	Interval time.Duration
	Train    []Trajectory
	Test     []Trajectory
}

// Resample returns the dataset sampled at the given interval.
func (d *Dataset) Resample(interval time.Duration) (*Dataset, error) {
	out := &Dataset{
		Name:     d.Name,
		Area:     d.Area,
		Interval: interval,
		Train:    make([]Trajectory, 0, len(d.Train)),
		Test:     make([]Trajectory, 0, len(d.Test)),
	}
	for _, tr := range d.Train {
		r, err := tr.Resample(interval)
		if err != nil {
			return nil, err
		}
		out.Train = append(out.Train, r)
	}
	for _, tr := range d.Test {
		r, err := tr.Resample(interval)
		if err != nil {
			return nil, err
		}
		out.Test = append(out.Test, r)
	}
	return out, nil
}

// AllPoints returns every sampled position across both splits — the visited
// set that drives edge-server placement ("we allocated an edge server to a
// cell which had been visited by any user").
func (d *Dataset) AllPoints() []geo.Point {
	n := 0
	for _, tr := range d.Train {
		n += len(tr.Points)
	}
	for _, tr := range d.Test {
		n += len(tr.Points)
	}
	out := make([]geo.Point, 0, n)
	for _, tr := range d.Train {
		out = append(out, tr.Points...)
	}
	for _, tr := range d.Test {
		out = append(out, tr.Points...)
	}
	return out
}

// MeanSpeed returns the average user speed across the test split in m/s.
func (d *Dataset) MeanSpeed() float64 {
	if len(d.Test) == 0 {
		return 0
	}
	var sum float64
	for _, tr := range d.Test {
		sum += tr.MeanSpeed()
	}
	return sum / float64(len(d.Test))
}

// mode is a transport mode with a speed distribution.
type mode struct {
	meanSpeed float64 // m/s
	sdSpeed   float64
	weight    float64 // selection probability weight per trip
}

// Config parameterizes dataset generation.
type Config struct {
	// Name labels the dataset ("kaist", "geolife").
	Name string
	// Area is the evaluation rectangle in meters.
	Area geo.Rect
	// TrainUsers and TestUsers size the two splits.
	TrainUsers int
	TestUsers  int
	// Duration is the time span generated per user.
	Duration time.Duration
	// BaseInterval is the native sampling period (the originals sample
	// every 1-5 s for Geolife, 30 s for KAIST; we use a common fine base
	// so experiments can resample to any multiple).
	BaseInterval time.Duration
	// NumPOIs is the number of shared points of interest in the area.
	NumPOIs int
	// POIsPerUser is the size of each user's personal routine set.
	POIsPerUser int
	// DwellMean is the mean pause at a POI.
	DwellMean time.Duration
	// Manhattan routes trips along axis-aligned street segments (urban
	// grid) instead of straight lines (campus paths).
	Manhattan bool
	// StreetSpacing snaps POIs and route corners to a street grid of this
	// spacing (meters) when Manhattan is set, concentrating coverage along
	// shared streets as real urban GPS data does. Zero disables snapping.
	StreetSpacing float64
	// GPSNoise is the stationary standard deviation (meters) of the
	// autocorrelated positioning error added to every emitted sample.
	GPSNoise float64
	// SpeedJitter is the per-step lognormal sigma of instantaneous speed,
	// modelling bursty human movement; zero means perfectly steady travel.
	SpeedJitter float64
	// Modes are the available transport modes.
	Modes []mode
	// Seed makes generation deterministic.
	Seed int64
}

// KAISTConfig returns the generator configuration matching the KAIST
// dataset statistics: walking students on a 1.5 km x 2 km campus, ~0.5 m/s
// average including dwells, 31 test users.
func KAISTConfig() Config {
	return Config{
		Name:         "kaist",
		Area:         geo.NewRect(1500, 2000),
		TrainUsers:   60,
		TestUsers:    31,
		Duration:     4 * time.Hour,
		BaseInterval: 5 * time.Second,
		NumPOIs:      30,
		POIsPerUser:  6,
		DwellMean:    22 * time.Minute,
		Manhattan:    false,
		GPSNoise:     10,
		SpeedJitter:  0.65,
		Modes: []mode{
			{meanSpeed: 1.25, sdSpeed: 0.2, weight: 1}, // walking
		},
		Seed: 1,
	}
}

// GeolifeConfig returns the generator configuration matching the Geolife
// subset statistics: a 7.2 km x 5.6 km Beijing rectangle, mixed transport
// modes averaging ~3.9 m/s, 138 test users.
func GeolifeConfig() Config {
	return Config{
		Name:          "geolife",
		Area:          geo.NewRect(7200, 5600),
		TrainUsers:    100,
		TestUsers:     138,
		Duration:      4 * time.Hour,
		BaseInterval:  5 * time.Second,
		NumPOIs:       80,
		POIsPerUser:   7,
		DwellMean:     4 * time.Minute,
		Manhattan:     true,
		StreetSpacing: 250,
		GPSNoise:      4,
		SpeedJitter:   0.25,
		Modes: []mode{
			{meanSpeed: 1.4, sdSpeed: 0.2, weight: 0.15}, // walk
			{meanSpeed: 4.5, sdSpeed: 0.8, weight: 0.2},  // bike
			{meanSpeed: 8.5, sdSpeed: 1.5, weight: 0.35}, // bus/car
			{meanSpeed: 12, sdSpeed: 2, weight: 0.3},     // subway/taxi
		},
		Seed: 2,
	}
}

// Generate produces a dataset from the configuration.
func Generate(cfg Config) (*Dataset, error) {
	if cfg.TrainUsers <= 0 || cfg.TestUsers <= 0 {
		return nil, fmt.Errorf("trace: need positive user counts, got %d/%d", cfg.TrainUsers, cfg.TestUsers)
	}
	if cfg.BaseInterval <= 0 || cfg.Duration < cfg.BaseInterval {
		return nil, fmt.Errorf("trace: bad sampling config: interval %v duration %v", cfg.BaseInterval, cfg.Duration)
	}
	if len(cfg.Modes) == 0 {
		return nil, fmt.Errorf("trace: dataset %q has no transport modes", cfg.Name)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	pois := make([]geo.Point, 0, cfg.NumPOIs)
	for i := 0; i < cfg.NumPOIs; i++ {
		p := geo.Point{
			X: cfg.Area.Min.X + rng.Float64()*cfg.Area.Width(),
			Y: cfg.Area.Min.Y + rng.Float64()*cfg.Area.Height(),
		}
		if cfg.Manhattan && cfg.StreetSpacing > 0 {
			p = snapToGrid(p, cfg.StreetSpacing)
			p = cfg.Area.Clamp(p)
		}
		pois = append(pois, p)
	}

	d := &Dataset{
		Name:     cfg.Name,
		Area:     cfg.Area,
		Interval: cfg.BaseInterval,
		Train:    make([]Trajectory, 0, cfg.TrainUsers),
		Test:     make([]Trajectory, 0, cfg.TestUsers),
	}
	for u := 0; u < cfg.TrainUsers; u++ {
		d.Train = append(d.Train, genUser(cfg, pois, u, rng))
	}
	for u := 0; u < cfg.TestUsers; u++ {
		d.Test = append(d.Test, genUser(cfg, pois, u, rng))
	}
	return d, nil
}

// genUser simulates one user: a Markov routine over a personal POI subset,
// trips at a per-trip transport mode, dwells at each stop.
func genUser(cfg Config, pois []geo.Point, user int, rng *rand.Rand) Trajectory {
	nSamples := int(cfg.Duration/cfg.BaseInterval) + 1
	pts := make([]geo.Point, 0, nSamples)

	// Personal POI routine: a favourite subset with a bias toward the
	// first two ("home" and "work"), making revisits frequent.
	perm := rng.Perm(len(pois))
	k := cfg.POIsPerUser
	if k > len(perm) {
		k = len(perm)
	}
	personal := perm[:k]

	pickNext := func(cur int) int {
		for {
			var idx int
			if rng.Float64() < 0.5 {
				idx = personal[rng.Intn(2)] // favourite pair
			} else {
				idx = personal[rng.Intn(len(personal))]
			}
			if idx != cur {
				return idx
			}
		}
	}

	cur := personal[rng.Intn(len(personal))]
	pos := pois[cur]
	dt := cfg.BaseInterval.Seconds()

	// AR(1) positioning error: stationary sigma cfg.GPSNoise, correlation
	// rho per base step (real GPS error drifts rather than jumping).
	const rho = 0.97
	innov := cfg.GPSNoise * math.Sqrt(1-rho*rho)
	var gpsErr geo.Point

	emit := func() {
		gpsErr = geo.Point{
			X: rho*gpsErr.X + rng.NormFloat64()*innov,
			Y: rho*gpsErr.Y + rng.NormFloat64()*innov,
		}
		pts = append(pts, cfg.Area.Clamp(pos.Add(gpsErr)))
	}

	// State machine: dwell at POI, then travel to the next one.
	dwellLeft := cfg.DwellMean.Seconds() * rng.ExpFloat64()
	var route []geo.Point // remaining waypoints of the active trip
	speed := 0.0

	for len(pts) < nSamples {
		emit()
		if dwellLeft > 0 {
			dwellLeft -= dt
			continue
		}
		if len(route) == 0 {
			// Start a new trip.
			next := pickNext(cur)
			route = planRoute(pos, pois[next], cfg, rng)
			cur = next
			m := pickMode(cfg.Modes, rng)
			speed = math.Max(0.3, m.meanSpeed+rng.NormFloat64()*m.sdSpeed)
		}
		// Advance along the route with bursty instantaneous speed.
		eff := speed
		if cfg.SpeedJitter > 0 {
			eff *= math.Exp(rng.NormFloat64() * cfg.SpeedJitter)
			if eff > 2.5*speed {
				eff = 2.5 * speed
			}
		}
		step := eff * dt
		for step > 0 && len(route) > 0 {
			d := pos.Dist(route[0])
			if d <= step {
				step -= d
				pos = route[0]
				route = route[1:]
			} else {
				pos = pos.Lerp(route[0], step/d)
				step = 0
			}
		}
		if len(route) == 0 {
			dwellLeft = cfg.DwellMean.Seconds() * rng.ExpFloat64()
		}
	}
	return Trajectory{User: user, Interval: cfg.BaseInterval, Points: pts}
}

// snapToGrid moves p to the nearest street-grid intersection.
func snapToGrid(p geo.Point, spacing float64) geo.Point {
	return geo.Point{
		X: math.Round(p.X/spacing) * spacing,
		Y: math.Round(p.Y/spacing) * spacing,
	}
}

// planRoute returns the waypoints of a trip. Urban datasets route along an
// L-shaped street path (snapped to the street grid when configured);
// campus datasets go straight with a slight detour.
func planRoute(from, to geo.Point, cfg Config, rng *rand.Rand) []geo.Point {
	if cfg.Manhattan {
		corner := geo.Point{X: to.X, Y: from.Y}
		if rng.Float64() < 0.5 {
			corner = geo.Point{X: from.X, Y: to.Y}
		}
		if cfg.StreetSpacing > 0 {
			corner = snapToGrid(corner, cfg.StreetSpacing)
		}
		return []geo.Point{corner, to}
	}
	// Curved path: two intermediate waypoints offset from the direct line
	// (campus walkways bend around buildings).
	d := from.Dist(to)
	w1 := from.Lerp(to, 0.33).Add(geo.Point{X: rng.NormFloat64(), Y: rng.NormFloat64()}.Scale(d * 0.12))
	w2 := from.Lerp(to, 0.66).Add(geo.Point{X: rng.NormFloat64(), Y: rng.NormFloat64()}.Scale(d * 0.12))
	return []geo.Point{w1, w2, to}
}

func pickMode(modes []mode, rng *rand.Rand) mode {
	var total float64
	for _, m := range modes {
		total += m.weight
	}
	r := rng.Float64() * total
	for _, m := range modes {
		if r < m.weight {
			return m
		}
		r -= m.weight
	}
	return modes[len(modes)-1]
}

// Package gpusim simulates a shared edge-server GPU under multi-client DNN
// inference load. It plays the role of the paper's real Titan Xp + nvml
// stack: it produces (a) ground-truth layer execution times that degrade
// nonlinearly with concurrent clients and thermal state, and (b) nvml-style
// GPU statistics (kernel/memory utilization, memory usage, temperature)
// that partially observe the hidden contention state.
//
// The estimators of package estimator are trained on profiling data
// generated here and never see the hidden constants — exactly as the
// paper's random forests are trained on measurements without knowledge of
// "hardware details or GPU scheduling policies" (Section III.C.1). The
// shape that matters for Fig 4 is: execution time is a nonlinear function
// of contention; contention is only partially predictable from the client
// count alone but well captured by the GPU counters; so hyperparameter-only
// models degrade with load while GPU-aware models do not.
//
// A GPU is driven by one goroutine at a time and takes no lock: the city
// simulator's hot path calls it per event, and the live edge daemon
// (package edged) serializes its connection goroutines' calls itself.
package gpusim

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"perdnn/internal/dnn"
	"perdnn/internal/profile"
)

// Stats is one nvml-style sample of GPU state, the "GPU statistics" the
// master server pings an edge server for before partitioning.
type Stats struct {
	// ActiveClients is the number of clients with in-flight inference work.
	ActiveClients int `json:"activeClients"`
	// KernelUtil is the fraction of the past sample period spent executing
	// kernels, in [0,1].
	KernelUtil float64 `json:"kernelUtil"`
	// MemUtil is the fraction of the past sample period spent on memory
	// operations, in [0,1].
	MemUtil float64 `json:"memUtil"`
	// MemUsedMB is the resident GPU memory in MiB.
	MemUsedMB float64 `json:"memUsedMB"`
	// TempC is the GPU core temperature in Celsius.
	TempC float64 `json:"tempC"`
}

// Params holds the hidden ground-truth interference constants, unexported:
// DefaultParams is the only GPU there is, and no estimator can read them.
type Params struct {
	// linearSlow and quadSlow shape slowdown(c) = 1 + linearSlow*c +
	// quadSlow*c^2, where c is the effective contention (other clients
	// weighted by their instantaneous GPU activity).
	linearSlow float64
	quadSlow   float64
	// memSlow adds contention sensitivity proportional to a layer's memory
	// intensity: memory-bound kernels suffer more from bandwidth sharing.
	// This layer-by-load interaction is what separates the random forest
	// from additive (log-)linear models in Fig 4.
	memSlow float64
	// activityMin..1 is the range of each competing client's instantaneous
	// GPU activity; the random draw is what hyperparameter-only estimators
	// cannot see.
	activityMin float64
	// idleTempC is the temperature at zero load; tempPerClient the rise per
	// active client; throttleAtC the throttling knee; throttlePerC the
	// fractional slowdown per degree above the knee.
	idleTempC     float64
	tempPerClient float64
	throttleAtC   float64
	throttlePerC  float64
	// measureNoise is the relative sigma of run-to-run timing noise.
	measureNoise float64
	// baseMemMB and memPerClientMB shape resident memory.
	baseMemMB      float64
	memPerClientMB float64
}

// DefaultParams returns the constants used throughout the evaluation,
// calibrated so that the estimator MAE curves reproduce the Fig 4 regime
// (sub-millisecond per-layer MAE, widening gap between hyperparameter-only
// and GPU-aware models as clients increase).
func DefaultParams() Params {
	return Params{
		linearSlow:     0.22,
		quadSlow:       0.065,
		memSlow:        0.55,
		activityMin:    0.25,
		idleTempC:      31,
		tempPerClient:  5.5,
		throttleAtC:    74,
		throttlePerC:   0.012,
		measureNoise:   0.03,
		baseMemMB:      450,
		memPerClientMB: 780,
	}
}

// GPU is a simulated shared GPU. It is not safe for concurrent use: the
// city simulator calls each GPU from one goroutine at a time (its shard's
// window, or the serial tick), and edged serializes its connection
// goroutines' calls. A GPU must not be copied after its first draw: its
// stream wraps its own source.
type GPU struct {
	hw *hardware

	// rng wraps src from the first draw on (stream), once drawn is set.
	// src is math/rand's stream for the GPU's seed, but computes its
	// words as draws ask for them: most of a city run's GPUs draw a
	// handful of numbers, and a new src costs one struct, not a seeded
	// register.
	rng      rand.Rand
	drawn    bool
	src      source
	inflight int
	// activity[i] is the instantaneous GPU activity of in-flight client i;
	// resampled as clients come and go. Nil until the first Begin.
	activity []float64
	temp     float64
	lastAt   time.Duration
}

// hardware is what a GPU reads and never writes: its contention-free
// device profile and its interference constants.
type hardware struct {
	dev    profile.Device
	params Params
}

// titanXp is the hardware of every GPU built on profile.ServerTitanXp and
// DefaultParams, all of a city run's thousands among them: they share it
// rather than each carrying a copy.
var titanXp = hardware{profile.ServerTitanXp(), DefaultParams()}

// New returns a GPU backed by the given contention-free device profile.
// The seed makes all stochastic behaviour reproducible.
func New(dev profile.Device, params Params, seed int64) *GPU {
	g := Make(dev, params, seed)
	return &g
}

// Make returns a GPU as New does, by value, for a caller that keeps many
// GPUs in one array. It allocates nothing on the default hardware.
func Make(dev profile.Device, params Params, seed int64) GPU {
	hw := &titanXp
	if dev != hw.dev || params != hw.params {
		hw = &hardware{dev, params}
	}
	g := GPU{hw: hw, temp: params.idleTempC}
	g.src.Seed(seed)
	return g
}

// stream returns the GPU's random stream, the one
// rand.New(rand.NewSource(seed)) would return.
func (g *GPU) stream() *rand.Rand {
	if !g.drawn {
		g.rng, g.drawn = *rand.New(&g.src), true
	}
	return &g.rng
}

// Device returns the underlying contention-free device profile.
func (g *GPU) Device() profile.Device { return g.hw.dev }

// advance moves the thermal state to virtual time now. Temperature
// follows a first-order filter toward the load-determined target with a
// 45-second time constant.
func (g *GPU) advance(now time.Duration) {
	if now <= g.lastAt {
		// No time has passed (ExecTime at Begin's instant; the filter's
		// step would be 1 - exp(0) = 0), or out-of-order sampling (e.g.
		// live clients whose clock reads raced their turn): keep state.
		return
	}
	// At its target the filter's step is zero whatever alpha is, so the
	// exponential is skipped. A GPU advanced only while idle (Begin
	// advances before it counts its client) stays at idleTempC: most of a
	// city run's advances.
	if target := g.hw.params.idleTempC + g.hw.params.tempPerClient*float64(g.inflight); target != g.temp {
		dt := (now - g.lastAt).Seconds()
		alpha := 1 - math.Exp(-dt/45)
		g.temp += (target - g.temp) * alpha
	}
	g.lastAt = now
}

// Begin registers one client's in-flight inference and returns the load
// (including the new client). Pair with End.
func (g *GPU) Begin(now time.Duration) int {
	g.advance(now)
	g.inflight++
	if g.activity == nil {
		g.activity = make([]float64, 0, 8)
	}
	g.activity = append(g.activity, g.hw.params.activityMin+(1-g.hw.params.activityMin)*g.stream().Float64())
	return g.inflight
}

// End unregisters one in-flight inference. It panics if no inference is in
// flight, which always indicates an unbalanced Begin/End bug.
func (g *GPU) End() {
	if g.inflight == 0 {
		panic("gpusim: End without Begin")
	}
	g.inflight--
	g.activity = g.activity[:len(g.activity)-1]
}

// Churn resamples the instantaneous activity of every in-flight stream.
// The profiling harness calls it between measurement rounds: competing
// clients' GPU activity at the moment a request arrives is independent
// across requests, and this is the variation the GPU counters observe.
func (g *GPU) Churn() {
	for i := range g.activity {
		g.activity[i] = g.hw.params.activityMin + (1-g.hw.params.activityMin)*g.stream().Float64()
	}
}

// contention returns the effective contention seen by one client:
// the activity-weighted count of the *other* in-flight clients.
func (g *GPU) contention() float64 {
	if g.inflight <= 1 {
		return 0
	}
	var c float64
	for _, a := range g.activity {
		c += a
	}
	// Subtract the mean own contribution so c reflects competitors only.
	c -= c / float64(g.inflight)
	return c
}

// slowdown returns the ground-truth multiplicative slowdown at the
// current contention and thermal state for work of the given memory
// intensity (see Intensity).
func (g *GPU) slowdown(intensity float64) float64 {
	c := g.contention()
	lin := g.hw.params.linearSlow + g.hw.params.memSlow*intensity
	s := 1 + lin*c + g.hw.params.quadSlow*c*c
	if g.temp > g.hw.params.throttleAtC {
		s *= 1 + (g.temp-g.hw.params.throttleAtC)*g.hw.params.throttlePerC
	}
	return s
}

// Intensity returns a layer's memory intensity in [0,1]: the share of its
// cost attributable to memory traffic rather than arithmetic. Elementwise
// layers approach 1; large dense convolutions approach 0.
func Intensity(l *dnn.Layer) float64 {
	bytes := float64(l.In.Bytes() + l.Out.Bytes() + l.WeightBytes)
	flops := float64(l.FLOPs)
	return bytes / (bytes + flops/8)
}

// LayerTime returns the ground-truth execution time of one layer under the
// current load, including measurement noise. now advances the thermal model.
func (g *GPU) LayerTime(l *dnn.Layer, now time.Duration) time.Duration {
	g.advance(now)
	base := g.hw.dev.LayerTime(l).Seconds()
	t := base * g.slowdown(Intensity(l)) * (1 + g.stream().NormFloat64()*g.hw.params.measureNoise)
	if t < 0 {
		t = base
	}
	return time.Duration(t * float64(time.Second))
}

// ExecTime returns the ground-truth time to execute a set of layers (given
// by their contention-free base times and aggregate memory intensity) under
// the current load. The simulator uses this to price a whole server-side
// partition in one call.
func (g *GPU) ExecTime(baseTotal time.Duration, intensity float64, now time.Duration) time.Duration {
	g.advance(now)
	t := baseTotal.Seconds() * g.slowdown(intensity) * (1 + g.stream().NormFloat64()*g.hw.params.measureNoise)
	if t < 0 {
		t = baseTotal.Seconds()
	}
	return time.Duration(t * float64(time.Second))
}

// MeanSlowdown returns the expected slowdown at the current load without
// noise for work of the given memory intensity — used by the simulator's
// "optimal" oracle and by tests.
func (g *GPU) MeanSlowdown(intensity float64, now time.Duration) float64 {
	g.advance(now)
	return g.slowdown(intensity)
}

// Sample returns an nvml-style statistics sample at virtual time now. The
// counters observe the hidden activity state with small measurement noise,
// which is what makes GPU-aware estimation work.
func (g *GPU) Sample(now time.Duration) Stats {
	g.advance(now)
	rng := g.stream()
	var act float64
	for _, a := range g.activity {
		act += a
	}
	kutil := clamp01(0.05 + 0.058*act + rng.NormFloat64()*0.012)
	mutil := clamp01(0.55*kutil + 0.02 + rng.NormFloat64()*0.01)
	mem := g.hw.params.baseMemMB + g.hw.params.memPerClientMB*float64(g.inflight) +
		rng.NormFloat64()*25
	return Stats{
		ActiveClients: g.inflight,
		KernelUtil:    kutil,
		MemUtil:       mutil,
		MemUsedMB:     math.Max(0, mem),
		TempC:         g.temp + rng.NormFloat64()*0.4,
	}
}

func clamp01(v float64) float64 {
	return math.Max(0, math.Min(1, v))
}

// String implements fmt.Stringer.
func (s Stats) String() string {
	return fmt.Sprintf("clients=%d kutil=%.2f mutil=%.2f mem=%.0fMB temp=%.1fC",
		s.ActiveClients, s.KernelUtil, s.MemUtil, s.MemUsedMB, s.TempC)
}

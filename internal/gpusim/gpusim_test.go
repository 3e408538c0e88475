package gpusim

import (
	"math"
	"strings"
	"testing"
	"time"

	"perdnn/internal/dnn"
	"perdnn/internal/profile"
)

func testLayer(t *testing.T) *dnn.Layer {
	t.Helper()
	b := dnn.NewBuilder("m", dnn.Shape{C: 64, H: 56, W: 56})
	b.Conv("c", 128, 3, 1, 1)
	return b.Build().Layer(0)
}

func newGPU(seed int64) *GPU {
	return New(profile.ServerTitanXp(), DefaultParams(), seed)
}

func TestNoContentionNearBase(t *testing.T) {
	g := newGPU(1)
	l := testLayer(t)
	base := profile.ServerTitanXp().LayerTime(l)
	g.Begin(0)
	defer g.End()
	var sum time.Duration
	const n = 200
	for i := 0; i < n; i++ {
		sum += g.LayerTime(l, time.Duration(i)*time.Second)
	}
	mean := sum / n
	if ratio := float64(mean) / float64(base); ratio < 0.95 || ratio > 1.1 {
		t.Errorf("single-client mean %v vs base %v (ratio %.2f)", mean, base, ratio)
	}
}

func TestContentionSlowsExecution(t *testing.T) {
	l := testLayer(t)
	meanAt := func(clients int) time.Duration {
		g := newGPU(2)
		for i := 0; i < clients; i++ {
			g.Begin(0)
		}
		var sum time.Duration
		const n = 100
		for i := 0; i < n; i++ {
			g.Churn()
			sum += g.LayerTime(l, 200*time.Second+time.Duration(i)*time.Second)
		}
		return sum / n
	}
	t1, t4, t12 := meanAt(1), meanAt(4), meanAt(12)
	if t4 < time.Duration(float64(t1)*1.3) {
		t.Errorf("4-client time %v not >1.3x single %v", t4, t1)
	}
	if t12 < time.Duration(float64(t4)*2) {
		t.Errorf("12-client time %v not superlinear vs 4-client %v (nonlinearity required)", t12, t4)
	}
}

func TestThermalRampAndThrottle(t *testing.T) {
	g := newGPU(3)
	for i := 0; i < 12; i++ {
		g.Begin(0)
	}
	cold := g.Sample(0).TempC
	hot := g.Sample(10 * time.Minute).TempC
	if hot <= cold+20 {
		t.Errorf("temp did not ramp under load: %v -> %v", cold, hot)
	}
	p := DefaultParams()
	target := p.idleTempC + p.tempPerClient*12
	if hot < target-5 || hot > target+5 {
		t.Errorf("steady temp %v, want near %v", hot, target)
	}
	// After load drops, temperature must decay back toward idle.
	for i := 0; i < 12; i++ {
		g.End()
	}
	cooled := g.Sample(30 * time.Minute).TempC
	if cooled > p.idleTempC+5 {
		t.Errorf("temp did not cool: %v", cooled)
	}
}

// TestExecTimeAtBeginInstantKeepsThermalState: an ExecTime at the instant
// of the Begin before it leaves the thermal filter bit for bit where Begin
// left it.
func TestExecTimeAtBeginInstantKeepsThermalState(t *testing.T) {
	g := newGPU(3)
	for i := 0; i < 4; i++ {
		g.Begin(0)
	}
	const at = 7 * time.Second
	g.Begin(at)
	temp, lastAt := g.temp, g.lastAt
	g.ExecTime(10*time.Millisecond, 0.5, at)
	if math.Float64bits(g.temp) != math.Float64bits(temp) || g.lastAt != lastAt {
		t.Errorf("ExecTime at Begin's instant moved the thermal state: temp %v -> %v, lastAt %v -> %v", temp, g.temp, lastAt, g.lastAt)
	}
}

func TestEndWithoutBeginPanics(t *testing.T) {
	g := newGPU(4)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	g.End()
}

func TestStatsReflectLoad(t *testing.T) {
	gLow, gHigh := newGPU(5), newGPU(5)
	gLow.Begin(0)
	for i := 0; i < 10; i++ {
		gHigh.Begin(0)
	}
	low := gLow.Sample(100 * time.Second)
	high := gHigh.Sample(100 * time.Second)
	if high.KernelUtil <= low.KernelUtil {
		t.Errorf("kernel util: low=%v high=%v", low.KernelUtil, high.KernelUtil)
	}
	if high.MemUsedMB <= low.MemUsedMB {
		t.Errorf("mem used: low=%v high=%v", low.MemUsedMB, high.MemUsedMB)
	}
	if high.ActiveClients != 10 || low.ActiveClients != 1 {
		t.Errorf("active clients: low=%d high=%d", low.ActiveClients, high.ActiveClients)
	}
	if high.KernelUtil < 0 || high.KernelUtil > 1 || high.MemUtil < 0 || high.MemUtil > 1 {
		t.Errorf("utilization out of range: %v", high)
	}
	if !strings.Contains(high.String(), "clients=10") {
		t.Errorf("String = %q", high.String())
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	l := testLayer(t)
	run := func() []time.Duration {
		g := newGPU(42)
		g.Begin(0)
		g.Begin(0)
		out := make([]time.Duration, 0, 20)
		for i := 0; i < 20; i++ {
			out = append(out, g.LayerTime(l, time.Duration(i)*time.Second))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestExecTimeScalesWithBase(t *testing.T) {
	g := newGPU(7)
	g.Begin(0)
	short := g.ExecTime(10*time.Millisecond, 0.3, time.Second)
	g2 := newGPU(7)
	g2.Begin(0)
	long := g2.ExecTime(100*time.Millisecond, 0.3, time.Second)
	if long < 5*short {
		t.Errorf("ExecTime not roughly linear in base: %v vs %v", short, long)
	}
}

func TestMeanSlowdownMonotonic(t *testing.T) {
	prev := 0.0
	for _, k := range []int{1, 2, 4, 8, 16} {
		g := newGPU(9)
		for i := 0; i < k; i++ {
			g.Begin(0)
		}
		s := g.MeanSlowdown(0.3, 5*time.Minute)
		if s < prev {
			t.Errorf("slowdown not monotonic at k=%d: %v < %v", k, s, prev)
		}
		prev = s
	}
	if prev < 3 {
		t.Errorf("16-client slowdown %v, want substantial contention", prev)
	}
}

func TestProfilingRunShape(t *testing.T) {
	layers := ConvLayerCorpus(1, 5)
	cfg := ProfilingConfig{MaxClients: 3, SamplesPerLevel: 4, DwellPerSample: time.Second, Seed: 1}
	samples := ProfilingRun(profile.ServerTitanXp(), DefaultParams(), layers, cfg)
	if want := 3 * 4 * 5; len(samples) != want {
		t.Fatalf("got %d samples, want %d", len(samples), want)
	}
	seenLevels := map[int]bool{}
	for _, s := range samples {
		if s.Time <= 0 {
			t.Fatalf("non-positive time %v", s.Time)
		}
		seenLevels[s.Stats.ActiveClients] = true
	}
	for _, k := range []int{1, 2, 3} {
		if !seenLevels[k] {
			t.Errorf("no samples at concurrency %d", k)
		}
	}
}

func TestProfilingRunDeterministic(t *testing.T) {
	layers := ConvLayerCorpus(2, 3)
	cfg := ProfilingConfig{MaxClients: 2, SamplesPerLevel: 3, DwellPerSample: time.Second, Seed: 5}
	a := ProfilingRun(profile.ServerTitanXp(), DefaultParams(), layers, cfg)
	b := ProfilingRun(profile.ServerTitanXp(), DefaultParams(), layers, cfg)
	for i := range a {
		if a[i].Time != b[i].Time || a[i].Stats != b[i].Stats {
			t.Fatalf("sample %d differs", i)
		}
	}
}

func TestConvLayerCorpus(t *testing.T) {
	layers := ConvLayerCorpus(3, 50)
	if len(layers) != 50 {
		t.Fatalf("got %d layers", len(layers))
	}
	distinct := map[int64]bool{}
	for _, l := range layers {
		if l.Type != dnn.Conv {
			t.Fatalf("corpus layer type %v", l.Type)
		}
		if l.FLOPs <= 0 {
			t.Fatal("corpus layer without FLOPs")
		}
		distinct[l.FLOPs] = true
	}
	if len(distinct) < 20 {
		t.Errorf("corpus has only %d distinct FLOP counts, want variety", len(distinct))
	}
}

package gpusim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"perdnn/internal/profile"
	"perdnn/internal/raceguard"
)

// streamScript drives one GPU through every method that draws from its
// random stream — Begin, Sample, ExecTime, Churn, LayerTime — in a fixed
// order and returns what they produced.
func streamScript(t *testing.T, seed int64) []string {
	l := testLayer(t)
	g := newGPU(seed)
	var out []string
	stats := func(at time.Duration) {
		s := g.Sample(at)
		out = append(out, fmt.Sprintf("%d %.9g %.9g %.9g %.9g", s.ActiveClients, s.KernelUtil, s.MemUtil, s.MemUsedMB, s.TempC))
	}
	stats(0) // a Sample is the first draw of a migration target's GPU
	g.Begin(time.Second)
	g.Begin(2 * time.Second)
	out = append(out, g.ExecTime(40*time.Millisecond, 0.3, 3*time.Second).String())
	stats(4 * time.Second)
	g.Begin(5 * time.Second)
	g.Churn()
	out = append(out, g.LayerTime(l, 6*time.Second).String())
	g.End()
	out = append(out, g.ExecTime(15*time.Millisecond, 0.7, 50*time.Second).String())
	stats(90 * time.Second)
	return out
}

// TestGPUStreamGolden pins the random stream of a GPU that draws. The
// values were captured on the commit before the source became lazy
// (rand.New(rand.NewSource(seed)) in New); they pass on both, which is the
// proof that seeding at the first draw yields the same stream.
func TestGPUStreamGolden(t *testing.T) {
	golden := map[int64][]string{
		1: {
			"0 0.0351949019 0.0380937209 436.975136 31.9142876", "51.922699ms",
			"2 0.134429342 0.0955242156 2034.73005 31.3012903", "424.07µs", "20.339489ms",
			"2 0.0965159605 0.0800849873 2020.78827 40.8792998",
		},
		7: {
			"0 0.0471210312 0.0550384279 473.152174 30.7564338", "53.472252ms",
			"2 0.129719339 0.0924122167 1964.20817 32.6073174", "421.72µs", "20.251127ms",
			"2 0.11630255 0.0809664869 2016.70564 40.4158768",
		},
	}
	for _, seed := range []int64{1, 7} {
		got := streamScript(t, seed)
		want := golden[seed]
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d values, golden has %d:\n%q", seed, len(got), len(want), got)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("seed %d value %d = %q, golden %q", seed, i, got[i], want[i])
			}
		}
	}
}

// TestNewSeedsNothing holds New to the GPU itself and Make to nothing: a
// city run builds thousands of GPUs in one array, shares one device
// profile and Params among them, and draws from about half of them.
func TestNewSeedsNothing(t *testing.T) {
	if raceguard.Enabled {
		t.Skip("race detector instrumentation allocates; gate runs in non-race builds")
	}
	dev, params := profile.ServerTitanXp(), DefaultParams()
	if n := testing.AllocsPerRun(100, func() { sinkGPU = New(dev, params, 1) }); n > 1 {
		t.Errorf("New allocates %.0f times, budget 1", n)
	}
	gpus := make([]GPU, 1)
	if n := testing.AllocsPerRun(100, func() { gpus[0] = Make(dev, params, 1) }); n != 0 {
		t.Errorf("Make allocates %.0f times, want 0", n)
	}
}

var sinkGPU *GPU

// TestSourceMatchesMathRand holds source to rand.NewSource's stream, draw
// for draw, through the rngTap draws it computes from two seed words, the
// materialization, and well past it. The seeds cover the reduction modulo
// 2³¹−1: zero, negative, the modulus itself (which reduces to zero) and
// values above it.
func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, -5, 3863, 1<<31 - 1, 1 << 31, 1 << 40} {
		var src source
		src.Seed(seed)
		got, want := rand.New(&src), rand.New(rand.NewSource(seed))
		for i := 0; i < 2400; i++ {
			var g, w any
			switch i % 4 {
			case 0:
				g, w = got.Float64(), want.Float64()
			case 1:
				g, w = got.NormFloat64(), want.NormFloat64()
			case 2:
				g, w = got.Int63n(1000003), want.Int63n(1000003)
			case 3:
				g, w = got.Uint64(), want.Uint64()
			}
			if g != w {
				t.Fatalf("seed %d draw %d: source %v, math/rand %v", seed, i, g, w)
			}
		}
	}
}

// TestFirstSampleAllocs holds a new GPU's first draw to the rand.Rand that
// wraps its source: the stream itself is computed, not seeded.
func TestFirstSampleAllocs(t *testing.T) {
	if raceguard.Enabled {
		t.Skip("race detector instrumentation allocates; gate runs in non-race builds")
	}
	dev, params := profile.ServerTitanXp(), DefaultParams()
	gpus := make([]*GPU, 101)
	for i := range gpus {
		gpus[i] = New(dev, params, int64(i))
	}
	i := 0
	n := testing.AllocsPerRun(100, func() {
		sinkStats = gpus[i].Sample(time.Second)
		i++
	})
	if n > 1 {
		t.Errorf("a new GPU's first Sample allocates %.0f times, budget 1", n)
	}
}

var sinkStats Stats

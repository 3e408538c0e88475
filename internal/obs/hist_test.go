package obs

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.P50() != 0 {
		t.Errorf("empty hist: count=%d p50=%v", h.Count(), h.P50())
	}
}

// TestHistogramResolvesOneSample: a histogram holding one duration, from
// 1 µs to 80 s, reports it within one bucket (1.8 %) — the live daemons'
// plan latencies of tens of microseconds included.
func TestHistogramResolvesOneSample(t *testing.T) {
	for f := float64(time.Microsecond); f <= float64(80*time.Second); f *= 1.07 {
		d := int64(f)
		var h Histogram
		h.Observe(d)
		if r := float64(h.P50()) / float64(d); r < 1/1.018 || r > 1.018 {
			t.Errorf("one sample of %v: p50 %v (ratio %.4f)", time.Duration(d), time.Duration(h.P50()), r)
		}
	}
}

func TestHistogramQuantilesApproximate(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(1))
	samples := make([]time.Duration, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Log-uniform latencies between 1 ms and 3 s.
		d := time.Duration(float64(time.Millisecond) * math.Pow(3000, rng.Float64()))
		samples = append(samples, d)
		h.ObserveDuration(d)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.5, 0.95, 0.99} {
		want := samples[int(q*float64(len(samples)-1))]
		got := time.Duration(h.Quantile(q))
		ratio := float64(got) / float64(want)
		if ratio < 0.95 || ratio > 1.05 {
			t.Errorf("q=%.2f: got %v want %v (ratio %.3f)", q, got, want, ratio)
		}
	}
	if h.Count() != 20000 {
		t.Errorf("count = %d", h.Count())
	}
}

func TestHistogramBounds(t *testing.T) {
	var h Histogram
	h.ObserveDuration(time.Nanosecond)  // below min -> first bucket
	h.ObserveDuration(10 * time.Minute) // above max -> last bucket
	if h.Quantile(-1) <= 0 {
		t.Error("clamped low quantile invalid")
	}
	if h.Quantile(2) <= 0 {
		t.Error("clamped high quantile invalid")
	}
	if h.Quantile(0) > int64(2*latHistFloor) {
		t.Errorf("tiny sample mapped to %v", time.Duration(h.Quantile(0)))
	}
}

func TestHistogramMonotoneQuantiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.ObserveDuration(time.Duration(i) * time.Millisecond)
	}
	prev := int64(0)
	for q := 0.0; q <= 1.0; q += 0.1 {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantiles not monotone at %.1f: %v < %v", q, v, prev)
		}
		prev = v
	}
}

// TestLatBucketMatchesLog holds Observe's table lookup to latBucket, the
// logarithm that defines the buckets: at every bucket's lower bound and one
// nanosecond either side, and on a sweep from 0 to 100 s whose odd step
// lands at every offset inside the buckets.
func TestLatBucketMatchesLog(t *testing.T) {
	check := func(d time.Duration) {
		if got, want := bucketOf(d), latBucket(d); got != want {
			t.Fatalf("bucketOf(%d ns) = %d, latBucket = %d", int64(d), got, want)
		}
	}
	for b := 1; b < latHistBuckets; b++ {
		if latLower[b] <= latLower[b-1] {
			t.Fatalf("bucket bounds not increasing at %d: %v <= %v", b, latLower[b], latLower[b-1])
		}
		if got := latBucket(latLower[b]); got != b {
			t.Fatalf("latBucket(latLower[%d]) = %d", b, got)
		}
		if got := latBucket(latLower[b] - 1); got != b-1 {
			t.Fatalf("latBucket(latLower[%d] - 1) = %d, want %d", b, got, b-1)
		}
		for _, d := range []time.Duration{latLower[b] - 1, latLower[b], latLower[b] + 1} {
			check(d)
		}
	}
	for d := time.Duration(0); d <= 100*time.Second; d += 7919 {
		check(d)
	}
	for _, d := range []time.Duration{-time.Second, 0, 1, latHistMin, latHistMin + 1, time.Hour, math.MaxInt64} {
		check(d)
	}
}

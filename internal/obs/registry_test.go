package obs

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestCounterGaugeBasics: counters only go up, gauges go both ways.
func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	var g Gauge
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Errorf("gauge = %d, want 4", got)
	}
}

// TestHistogramBuckets: samples land in the log-spaced bucket that
// contains them, samples up to 1 µs in bucket 0.
func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v      time.Duration
		bucket int
	}{
		{-5, 0}, {0, 0}, {1, 0}, {time.Microsecond, 0}, {10 * time.Microsecond, 129},
		{100 * time.Microsecond, 259}, {time.Millisecond, 388}, {time.Second, 775},
		{math.MaxInt64, 1026},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.bucket)
		}
	}
	var h Histogram
	h.Observe(3)
	h.Observe(3)
	h.Observe(-1)
	if got := h.Count(); got != 3 {
		t.Errorf("count = %d, want 3", got)
	}
	if got := h.Sum(); got != 6 {
		t.Errorf("sum = %d, want 6 (non-positive samples excluded)", got)
	}
}

// TestHistogramQuantiles: percentiles track the sample distribution at
// bucket resolution.
func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %d, want 0", got)
	}
	// 90 samples around 1ms, 10 around 1s: p50 stays near 1ms, p95+ reaches
	// the outliers' bucket.
	for i := 0; i < 90; i++ {
		h.ObserveDuration(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.ObserveDuration(time.Second)
	}
	p50 := time.Duration(h.P50())
	if p50 < 500*time.Microsecond || p50 > 2*time.Millisecond {
		t.Errorf("p50 = %v, want ~1ms", p50)
	}
	p95 := time.Duration(h.P95())
	if p95 < 500*time.Millisecond {
		t.Errorf("p95 = %v, want the ~1s outliers' bucket", p95)
	}
	if h.P95() > h.P99() {
		t.Errorf("p95 %d > p99 %d", h.P95(), h.P99())
	}
}

// TestHistogramMergeDeterministic: merging histograms is commutative and
// equals observing the union of samples directly, regardless of how samples
// were split across sources or in what order merges happen.
func TestHistogramMergeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	samples := make([]int64, 5000)
	for i := range samples {
		samples[i] = rng.Int63n(1 << 40)
	}

	var direct Histogram
	for _, v := range samples {
		direct.Observe(v)
	}

	// Split the samples over four shards, merge in two different orders.
	build := func(order []int) *Histogram {
		shards := make([]*Histogram, 4)
		for i := range shards {
			shards[i] = &Histogram{}
		}
		for i, v := range samples {
			shards[i%4].Observe(v)
		}
		var merged Histogram
		for _, i := range order {
			merged.Merge(shards[i])
		}
		return &merged
	}
	a := build([]int{0, 1, 2, 3})
	b := build([]int{3, 1, 0, 2})

	for _, h := range []*Histogram{a, b} {
		if !reflect.DeepEqual(h.snapshot(), direct.snapshot()) {
			t.Fatal("merged histogram diverged from direct observation")
		}
	}
	var nilSafe Histogram
	nilSafe.Merge(nil) // must not panic
	if nilSafe.Count() != 0 {
		t.Error("merging nil changed the histogram")
	}
}

// TestRegistryConcurrent: concurrent get-or-create and updates on shared
// names are safe (run under -race in CI) and sum correctly.
func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				reg.Counter("requests").Inc()
				reg.Gauge("depth").Add(1)
				reg.Histogram("latency").Observe(int64(w*perWorker + i + 1))
			}
		}(w)
	}
	wg.Wait()
	if got := reg.Counter("requests").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := reg.Gauge("depth").Value(); got != workers*perWorker {
		t.Errorf("gauge = %d, want %d", got, workers*perWorker)
	}
	if got := reg.Histogram("latency").Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

// TestSnapshotDeterministicJSON: two registries fed the same data serialize
// to byte-identical JSON, and snapshots DeepEqual each other.
func TestSnapshotDeterministicJSON(t *testing.T) {
	fill := func() *Registry {
		reg := NewRegistry()
		reg.Counter("b_counter").Add(2)
		reg.Counter("a_counter").Add(1)
		reg.Gauge("depth").Set(-3)
		h := reg.Histogram("lat")
		for i := int64(1); i <= 100; i++ {
			h.Observe(i * 1000)
		}
		return reg
	}
	r1, r2 := fill(), fill()
	if !reflect.DeepEqual(r1.Snapshot(), r2.Snapshot()) {
		t.Fatal("identical registries produced different snapshots")
	}
	var b1, b2 bytes.Buffer
	if err := r1.WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r2.WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("identical registries serialized differently")
	}
	if got, want := r1.CounterNames(), []string{"a_counter", "b_counter"}; !reflect.DeepEqual(got, want) {
		t.Errorf("CounterNames = %v, want %v", got, want)
	}
}

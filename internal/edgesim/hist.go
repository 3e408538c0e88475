package edgesim

import (
	"math"
	"time"
)

// LatencyHist is a compact log-bucketed latency histogram: the city
// simulation completes millions of queries, so per-query samples are
// aggregated into ~1% resolution buckets instead of being stored.
type LatencyHist struct {
	counts []int64
	total  int64
}

// latHistBuckets spans 100 µs .. ~100 s with ~1.8% resolution.
const (
	latHistMin     = 100 * time.Microsecond
	latHistBuckets = 768
	latHistGrowth  = 1.018
)

// logLatHistGrowth is math.Log(latHistGrowth), taken once: latBucket runs
// per completed query and divides by it.
var logLatHistGrowth = math.Log(latHistGrowth)

// NewLatencyHist returns an empty histogram.
func NewLatencyHist() *LatencyHist {
	return &LatencyHist{counts: make([]int64, latHistBuckets)}
}

func latBucket(d time.Duration) int {
	if d <= latHistMin {
		return 0
	}
	b := int(math.Log(float64(d)/float64(latHistMin)) / logLatHistGrowth)
	if b >= latHistBuckets {
		return latHistBuckets - 1
	}
	return b
}

// Add records one latency sample.
func (h *LatencyHist) Add(d time.Duration) {
	h.counts[latBucket(d)]++
	h.total++
}

// Count returns the number of recorded samples.
func (h *LatencyHist) Count() int64 { return h.total }

// Merge folds another histogram into h. Buckets are fixed, so merging
// per-shard histograms yields exactly the histogram a single-threaded run
// would have accumulated.
func (h *LatencyHist) Merge(o *LatencyHist) {
	if o == nil {
		return
	}
	for b, c := range o.counts {
		h.counts[b] += c
	}
	h.total += o.total
}

// Quantile returns the latency at quantile q in [0,1]. It returns 0 for an
// empty histogram.
func (h *LatencyHist) Quantile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(q * float64(h.total-1))
	var seen int64
	for b, c := range h.counts {
		seen += c
		if seen > target {
			return time.Duration(float64(latHistMin) * math.Pow(latHistGrowth, float64(b)+0.5))
		}
	}
	return time.Duration(float64(latHistMin) * math.Pow(latHistGrowth, latHistBuckets))
}

// P50, P95 and P99 are convenience accessors.
func (h *LatencyHist) P50() time.Duration { return h.Quantile(0.50) }

// P95 returns the 95th percentile latency.
func (h *LatencyHist) P95() time.Duration { return h.Quantile(0.95) }

// P99 returns the 99th percentile latency.
func (h *LatencyHist) P99() time.Duration { return h.Quantile(0.99) }

package edgesim

import (
	"math"
	"math/bits"
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

// logLatHistGrowth is math.Log(latHistGrowth), taken once.
var logLatHistGrowth = math.Log(latHistGrowth)

// latLower[b] is the least duration latBucket puts in bucket b (latLower[0]
// is unused: bucket 0 takes everything below latLower[1]). latJump[l] is
// the bucket of latHistMin<<(l-1), the least duration whose quotient by
// latHistMin has bit length l; the table ends at the first l that reaches
// the last bucket. latBucket is monotone, so a duration d with quotient
// bit length l lies in a bucket between latJump[l] and latJump[l+1], and
// Add finds it by binary search over latLower in that range: at most six
// comparisons (log base latHistGrowth of 2 is under 39), no logarithm.
var latLower, latJump = latTables()

func latTables() (lower [latHistBuckets]time.Duration, jump []int) {
	for b := 1; b < latHistBuckets; b++ {
		lo, hi := lower[b-1], time.Duration(math.MaxInt64)
		for lo < hi { // least d in [lo, hi] with latBucket(d) >= b
			mid := lo + (hi-lo)/2
			if latBucket(mid) >= b {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		lower[b] = lo
	}
	jump = []int{0}
	for l := 1; jump[len(jump)-1] < latHistBuckets-1; l++ {
		jump = append(jump, latBucket(latHistMin<<(l-1)))
	}
	return lower, jump
}

// NewLatencyHist returns an empty histogram.
func NewLatencyHist() *LatencyHist {
	return &LatencyHist{counts: make([]int64, latHistBuckets)}
}

// latBucket defines the bucket of d: floor(log_growth(d / latHistMin)),
// clamped to the histogram's range. Add computes the same bucket from the
// tables above.
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

// bucketOf returns latBucket(d) without a logarithm.
func bucketOf(d time.Duration) int {
	if d <= latHistMin {
		return 0
	}
	l := bits.Len64(uint64(d / latHistMin))
	if l >= len(latJump)-1 {
		return latHistBuckets - 1
	}
	lo, hi := latJump[l], latJump[l+1]
	for lo < hi { // the greatest b in [lo, hi] with latLower[b] <= d
		mid := int(uint(lo+hi+1) >> 1)
		if latLower[mid] <= d {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// Add records one latency sample.
func (h *LatencyHist) Add(d time.Duration) {
	h.counts[bucketOf(d)]++
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

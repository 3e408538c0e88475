package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// The histogram's buckets are log-spaced at ratio latHistGrowth (≈ 1.8 %
// wide) and anchored at latHistMin: bucket latHistBelow+e holds
// [latHistMin·latHistGrowth^e, latHistMin·latHistGrowth^(e+1)). The
// latHistAbove buckets from the anchor reach ≈ 87 s, and the last takes
// everything above; the latHistBelow buckets under it reach down to the
// one holding latHistFloor = 1 µs, and bucket 0 takes everything below,
// zero and negative samples included.
const (
	latHistMin     = 100 * time.Microsecond
	latHistGrowth  = 1.018
	latHistAbove   = 768
	latHistBelow   = 259 // -floor(log_latHistGrowth(latHistFloor / latHistMin))
	latHistBuckets = latHistBelow + latHistAbove
	latHistFloor   = time.Microsecond
)

// logLatHistGrowth is math.Log(latHistGrowth), taken once.
var logLatHistGrowth = math.Log(latHistGrowth)

// latLower[b] is the least duration latBucket puts in bucket b (latLower[0]
// is unused: bucket 0 takes everything below latLower[1]). latJump[l] is
// the bucket of latHistFloor<<(l-1), the least duration whose quotient by
// latHistFloor has bit length l; the table ends at the first l that reaches
// the last bucket. latBucket is monotone, so a duration d with quotient
// bit length l lies in a bucket between latJump[l] and latJump[l+1], and
// Observe finds it by binary search over latLower in that range: at most
// six comparisons (log base latHistGrowth of 2 is under 39), no logarithm.
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
		jump = append(jump, latBucket(latHistFloor<<(l-1)))
	}
	return lower, jump
}

// latBucket defines the bucket of d: latHistBelow plus
// floor(log_growth(d / latHistMin)), clamped to the histogram's range.
// Observe computes the same bucket from the tables above.
func latBucket(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	e := math.Floor(math.Log(float64(d)/float64(latHistMin)) / logLatHistGrowth)
	return min(max(latHistBelow+int(e), 0), latHistBuckets-1)
}

// bucketOf returns latBucket(d) without a logarithm.
func bucketOf(d time.Duration) int {
	if d < latHistFloor {
		return 0
	}
	l := bits.Len64(uint64(d / latHistFloor))
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

// latMid is the value Quantile reports for bucket b: its geometric
// midpoint.
func latMid(b int) int64 {
	return int64(float64(latHistMin) * math.Pow(latHistGrowth, float64(b-latHistBelow)+0.5))
}

// latLe is bucket b's inclusive upper bound.
func latLe(b int) int64 {
	if b >= latHistBuckets-1 {
		return math.MaxInt64
	}
	return int64(latLower[b+1] - 1)
}

// Histogram is a fixed-bucket log-spaced histogram over int64 samples,
// latency nanoseconds: about 1.8 % resolution from 1 µs to 87 s. Buckets
// are determined by the sample value alone, so two histograms fed the same
// multiset of samples are identical regardless of arrival order, and Merge
// is a commutative bucketwise addition — the determinism contract the
// sharded simulator and the parallel sweep rely on. The zero value is
// ready to use; all methods are safe for concurrent use.
type Histogram struct {
	counts [latHistBuckets]atomic.Int64
	sum    atomic.Int64
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	h.counts[bucketOf(time.Duration(v))].Add(1)
	if v > 0 {
		h.sum.Add(v)
	}
}

// ObserveDuration records a duration sample in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Count returns the number of recorded samples, the sum of the buckets:
// Observe takes one atomic add fewer than with a count of its own.
func (h *Histogram) Count() int64 {
	var n int64
	for b := range h.counts {
		n += h.counts[b].Load()
	}
	return n
}

// Merge adds every bucket of o into h. Addition commutes, so merging a set
// of histograms yields the same result in any order.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil {
		return
	}
	for b := range o.counts {
		if n := o.counts[b].Load(); n > 0 {
			h.counts[b].Add(n)
		}
	}
	h.sum.Add(o.sum.Load())
}

// Quantile returns the midpoint of the bucket holding quantile q in [0,1],
// or 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	q = min(max(q, 0), 1)
	target := int64(q * float64(total-1))
	var seen int64
	for b := range h.counts {
		seen += h.counts[b].Load()
		if seen > target {
			return latMid(b)
		}
	}
	return int64(float64(latHistMin) * math.Pow(latHistGrowth, latHistAbove))
}

// P50 returns the median sample value.
func (h *Histogram) P50() int64 { return h.Quantile(0.50) }

// P95 returns the 95th-percentile sample value.
func (h *Histogram) P95() int64 { return h.Quantile(0.95) }

// P99 returns the 99th-percentile sample value.
func (h *Histogram) P99() int64 { return h.Quantile(0.99) }

// snapshot freezes one histogram.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.Count(),
		Sum:   h.sum.Load(),
		P50:   h.P50(),
		P95:   h.P95(),
		P99:   h.P99(),
	}
	for b := range h.counts {
		if n := h.counts[b].Load(); n > 0 {
			s.Buckets = append(s.Buckets, BucketCount{Bucket: b, Le: latLe(b), Count: n})
		}
	}
	return s
}

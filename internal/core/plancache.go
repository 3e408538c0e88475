package core

import (
	"sync"
	"sync/atomic"

	"perdnn/internal/partition"
)

// planKey identifies one cached plan computation: the profile identity (a
// caller-chosen string naming the model and the devices it was profiled
// on), the client-server link, and the quantized slowdown bucket. Two
// planners that agree on all three fields must have byte-identical
// partitioning inputs, so their plans are interchangeable. Chain plans
// (Planner.PlanChain) leave bucket zero and spell the rest of their inputs
// — objective, hop budget, ordered candidate IDs and slowdown buckets — in
// chain, which is empty for single-split plans.
type planKey struct {
	profile string
	link    partition.Link
	bucket  int
	chain   string
}

// maxChainPlans caps the cached chain plans. Single-split keys are bounded
// by the estimator's slowdown range; chain keys are a vector of buckets per
// candidate list and are not, so a full cache drops its chain plans and
// starts over (requests already waiting on a dropped flight still settle
// on it).
const maxChainPlans = 512

// planFlight is one singleflight cache slot: the first caller runs the
// computation under the Once, every concurrent caller for the same key
// blocks on it and then reads the settled result. settled flips to true
// once the result is in, distinguishing cache hits from coalesced waits in
// the statistics.
type planFlight struct {
	once    sync.Once
	settled atomic.Bool
	entry   *PlanEntry
	chain   *partition.ChainPlan // chain keys only
	err     error
}

// PlanCache is a concurrency-safe partitioning-plan cache with per-key
// singleflight: for each (profile, link, slowdown-bucket) key the expensive
// partition.Partition + partition.UploadSchedule pass runs exactly once,
// no matter how many goroutines request it at the same time. A failed
// computation is cached too — planning failures are deterministic functions
// of the inputs, so retrying cannot succeed.
//
// Every Planner owns a private PlanCache by default; concurrent simulation
// runs of the same model share the process-wide cache (SharedPlans) so a
// sweep recomputes each distinct plan once per process rather than once
// per run.
type PlanCache struct {
	mu      sync.Mutex
	flights map[planKey]*planFlight
	chains  int // keys in flights with a non-empty chain

	// Request-outcome statistics (see Stats).
	hits      atomic.Int64
	misses    atomic.Int64 // computations run
	coalesced atomic.Int64
}

// NewPlanCache returns an empty plan cache.
func NewPlanCache() *PlanCache {
	return &PlanCache{flights: make(map[planKey]*planFlight, 16)}
}

// sharedPlans is the process-wide cache used by all simulation runs.
var sharedPlans = NewPlanCache()

// SharedPlans returns the process-wide plan cache. Planners keyed into it
// (Planner.ShareCache) deduplicate plan computations across concurrent and
// successive runs of the same model over the same link.
func SharedPlans() *PlanCache { return sharedPlans }

// flight returns the singleflight slot for k and whether this call created
// it.
func (c *PlanCache) flight(k planKey) (f *planFlight, created bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.flights[k]
	if !ok {
		if k.chain != "" {
			if c.chains >= maxChainPlans {
				for old := range c.flights {
					if old.chain != "" {
						delete(c.flights, old)
					}
				}
				c.chains = 0
			}
			c.chains++
		}
		f = &planFlight{}
		c.flights[k] = f
	}
	return f, !ok
}

// settle returns the settled flight for k, running compute (which fills
// the flight's result) exactly once per key across all goroutines. Each
// request is classified for Stats before it joins the flight: creating the
// slot is a miss, finding a settled slot is a hit, and finding an in-flight
// slot is a coalesced wait.
func (c *PlanCache) settle(k planKey, compute func(f *planFlight)) *planFlight {
	f, created := c.flight(k)
	switch {
	case created:
		// The miss is counted when the computation actually runs.
	case f.settled.Load():
		c.hits.Add(1)
	default:
		c.coalesced.Add(1)
	}
	f.once.Do(func() {
		c.misses.Add(1)
		compute(f)
		f.settled.Store(true)
	})
	return f
}

// CacheStats summarizes how plan requests were served. Every settle call
// lands in exactly one bucket, so Hits + Misses + Coalesced equals the
// total number of plan requests.
type CacheStats struct {
	// Hits served an already-settled entry without blocking.
	Hits int64
	// Misses ran the partition + schedule computation.
	Misses int64
	// Coalesced arrived while the computation was in flight and blocked on
	// it instead of recomputing — the singleflight savings.
	Coalesced int64
}

// Requests returns the total number of plan requests the cache served.
func (s CacheStats) Requests() int64 { return s.Hits + s.Misses + s.Coalesced }

// HitRatio returns the fraction of requests served without computing
// (hits plus coalesced waits), or 0 with no requests.
func (s CacheStats) HitRatio() float64 {
	total := s.Requests()
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Coalesced) / float64(total)
}

// Stats returns the cache's request-outcome counters. A request racing the
// settling of its flight may count as coalesced rather than hit; the sum
// across buckets is always exact.
func (c *PlanCache) Stats() CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
	}
}

// Package core is PerDNN's master-server control plane (Section III.B): it
// combines the GPU-aware execution-time estimator, the partitioning
// algorithm, the mobility predictor, and the proactive-migration policy into
// the decisions the master makes for every client — which server to offload
// to, how to split the model, in what order to move layers, and where to
// push layers ahead of the client's movement. Both the discrete-event
// simulator (internal/edgesim) and the live networked master
// (internal/master) drive this package.
package core

import (
	"fmt"
	"math"
	"strconv"
	"sync/atomic"

	"perdnn/internal/dnn"
	"perdnn/internal/estimator"
	"perdnn/internal/gpusim"
	"perdnn/internal/partition"
	"perdnn/internal/profile"
)

// PlanEntry is a partitioning plan bundled with its upload schedule.
// Entries are immutable once built and are shared freely across goroutines
// and across simulation runs (via PlanCache); consumers must not modify
// any of its fields in place.
type PlanEntry struct {
	Plan     *partition.Plan
	Schedule []partition.UploadUnit
	// Layers is the plan's server-side layers as a set: every layer the
	// schedule uploads, so "what does a server lack" is a few word ops.
	Layers dnn.LayerSet
	// Splits is partition.ScheduleSplits of the schedule: row k prices a
	// server holding the first k units, the last row the whole plan.
	Splits []partition.Split
}

// Planner produces partitioning plans for one client model against servers
// whose contention state is described by GPU statistics. Plans are cached
// by quantized slowdown: the plan space is insensitive to tiny slowdown
// changes, and the simulator requests plans constantly. The cache is
// singleflight — concurrent requests for the same uncached bucket run the
// partition + schedule pass exactly once — and a planner can opt into a
// shared process-wide cache (ShareCache) so concurrent runs of the same
// model stop recomputing identical plans.
//
// A Planner is safe for concurrent use after construction.
type Planner struct {
	prof *profile.ModelProfile
	est  *estimator.ServerEstimator
	link partition.Link

	cache *PlanCache
	key   string // profile identity within cache ("" for a private cache)
	// settled holds the entry the cache settled for each slowdown bucket
	// below settledBuckets once this planner has asked for it: a repeated
	// bucket costs an atomic load and the cache's hit count instead of the
	// cache's lock and key hash. Higher buckets take the cache's path.
	settled [settledBuckets]atomic.Pointer[PlanEntry]
}

// settledBuckets bounds the buckets a Planner keeps settled entries for:
// slowdowns up to 16.
const settledBuckets = 64

// NewPlanner builds a planner for the given model profile, estimator and
// client-server link. The plan cache is private to the planner; use
// ShareCache to deduplicate work across planners for the same profile.
func NewPlanner(prof *profile.ModelProfile, est *estimator.ServerEstimator, link partition.Link) (*Planner, error) {
	if prof == nil || est == nil {
		return nil, fmt.Errorf("core: planner needs a profile and an estimator")
	}
	return &Planner{
		prof:  prof,
		est:   est,
		link:  link,
		cache: NewPlanCache(),
	}, nil
}

// ShareCache points the planner at a shared plan cache under the given
// profile key. The key must uniquely identify the planning inputs other
// than the link and slowdown — the model and the devices it was profiled
// on — because entries are served to every planner presenting the same
// (key, link) pair. Callers with ad-hoc profiles should keep the default
// private cache instead.
func (p *Planner) ShareCache(c *PlanCache, key string) error {
	if c == nil {
		return fmt.Errorf("core: nil plan cache")
	}
	if key == "" {
		return fmt.Errorf("core: shared plan cache needs a non-empty profile key")
	}
	p.cache = c
	p.key = key
	for i := range p.settled {
		p.settled[i].Store(nil)
	}
	return nil
}

// Profile returns the model profile the planner was built for.
func (p *Planner) Profile() *profile.ModelProfile { return p.prof }

// Slowdown returns the estimated contention slowdown for a server at the
// given GPU state.
func (p *Planner) Slowdown(st gpusim.Stats) float64 {
	return p.est.EstimateSlowdown(st)
}

// slowdownBucket quantizes a slowdown for plan caching (0.25-wide buckets).
func slowdownBucket(s float64) int {
	return int(math.Round(s * 4))
}

// bucketSlowdown is the slowdown plans of a bucket are computed at.
func bucketSlowdown(bucket int) float64 {
	return max(float64(bucket)/4, 1)
}

// PlanFor returns the minimum-latency plan and its efficiency-ordered
// upload schedule for a server at the given GPU state.
func (p *Planner) PlanFor(st gpusim.Stats) (*PlanEntry, error) {
	return p.planAt(p.Slowdown(st))
}

func (p *Planner) planAt(slowdown float64) (*PlanEntry, error) {
	bucket := slowdownBucket(slowdown)
	known := bucket >= 0 && bucket < settledBuckets
	if known {
		if e := p.settled[bucket].Load(); e != nil {
			p.cache.hits.Add(1)
			return e, nil
		}
	}
	key := planKey{profile: p.key, link: p.link, bucket: bucket}
	f := p.cache.settle(key, func(f *planFlight) {
		req := partition.Request{
			Profile:  p.prof,
			Slowdown: bucketSlowdown(bucket),
			Link:     p.link,
		}
		plan, sched, err := partition.PlanAndSchedule(req)
		if err != nil {
			f.err = fmt.Errorf("core: planning at slowdown %.2f: %w", slowdown, err)
			return
		}
		f.entry = &PlanEntry{
			Plan:     plan,
			Schedule: sched,
			Layers:   partition.ScheduleSet(sched, plan.Model.NumLayers()),
			Splits:   partition.ScheduleSplits(p.prof, sched),
		}
	})
	if known && f.err == nil {
		p.settled[bucket].Store(f.entry)
	}
	return f.entry, f.err
}

// ChainCandidate is one edge server offered to PlanChain: its identity and
// wire address, both carried through to the plan, and its estimated
// contention slowdown (Slowdown of a live stats sample).
type ChainCandidate struct {
	ID       int
	Addr     string
	Slowdown float64
}

// PlanChain returns the multi-hop plan over the ordered candidates (see
// partition.ChainRequest.Servers), cached like single-split plans: every
// candidate's slowdown is rounded to its bucket, the key is the objective,
// the hop budget and the ordered (ID, bucket) pairs, and the DP runs once
// per key on the rounded slowdowns. Addresses are not part of the key, so
// planners sharing a cache must agree on each ID's address. The returned
// plan is shared; callers must not modify it.
func (p *Planner) PlanChain(cands []ChainCandidate, maxHops int, obj partition.Objective) (*partition.ChainPlan, error) {
	chain := make([]byte, 0, 8+8*len(cands))
	chain = strconv.AppendInt(chain, int64(obj), 10)
	chain = append(chain, '/')
	chain = strconv.AppendInt(chain, int64(maxHops), 10)
	for _, c := range cands {
		chain = append(chain, ' ')
		chain = strconv.AppendInt(chain, int64(c.ID), 10)
		chain = append(chain, ':')
		chain = strconv.AppendInt(chain, int64(slowdownBucket(c.Slowdown)), 10)
	}
	key := planKey{profile: p.key, link: p.link, chain: string(chain)}
	f := p.cache.settle(key, func(f *planFlight) {
		servers := make([]partition.ServerSpec, len(cands))
		for i, c := range cands {
			servers[i] = partition.ServerSpec{ID: c.ID, Addr: c.Addr, Slowdown: bucketSlowdown(slowdownBucket(c.Slowdown))}
		}
		f.chain, f.err = partition.PlanChain(partition.ChainRequest{
			Profile:   p.prof,
			Link:      p.link,
			Servers:   servers,
			MaxHops:   maxHops,
			Objective: obj,
		})
	})
	return f.chain, f.err
}

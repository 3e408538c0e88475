package core

import (
	"reflect"
	"sync"
	"testing"

	"perdnn/internal/dnn"
	"perdnn/internal/partition"
	"perdnn/internal/profile"
)

// freshPlanner builds a planner with a private, empty cache (the shared
// testPlanner memoizes across tests, which would hide compute counts).
func freshPlanner(t *testing.T) *Planner {
	t.Helper()
	shared := testPlanner(t) // reuse its trained estimator
	p, err := NewPlanner(shared.Profile(), shared.est, shared.link)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPlanSingleflight: concurrent requests for one uncached slowdown
// bucket must run the partition + schedule pass exactly once and hand every
// caller the same immutable entry.
func TestPlanSingleflight(t *testing.T) {
	p := freshPlanner(t)
	const n = 16
	entries := make([]*PlanEntry, n)
	errs := make([]error, n)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := 0; i < n; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait() // maximize overlap on the same bucket
			entries[i], errs[i] = p.planAt(2.3)
		}(i)
	}
	start.Done()
	done.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if entries[i] != entries[0] {
			t.Fatalf("caller %d got a different entry", i)
		}
	}
	if got := p.cache.Stats().Misses; got != 1 {
		t.Errorf("bucket computed %d times, want 1", got)
	}
	if got := len(p.cache.flights); got != 1 {
		t.Errorf("cache holds %d keys, want 1", got)
	}
	// Every request lands in exactly one stats bucket: one miss ran the
	// computation, the other n-1 callers either coalesced onto the flight
	// or hit the settled entry.
	st := p.cache.Stats()
	if st.Misses != 1 {
		t.Errorf("stats misses = %d, want 1", st.Misses)
	}
	if st.Requests() != n {
		t.Errorf("stats requests = %d (hits %d + misses %d + coalesced %d), want %d",
			st.Requests(), st.Hits, st.Misses, st.Coalesced, n)
	}

	// A later request for the settled bucket is a plain hit.
	if _, err := p.planAt(2.3); err != nil {
		t.Fatal(err)
	}
	after := p.cache.Stats()
	if after.Hits != st.Hits+1 || after.Misses != 1 {
		t.Errorf("post-settle request: stats went %+v -> %+v, want one more hit", st, after)
	}
	if got := after.HitRatio(); got <= 0 || got >= 1 {
		t.Errorf("hit ratio = %v, want in (0,1)", got)
	}
}

// TestSharedPlanCacheAcrossPlanners: two planners for the same profile key
// and link share entries through one PlanCache; a different key does not.
func TestSharedPlanCacheAcrossPlanners(t *testing.T) {
	cache := NewPlanCache()
	a, b := freshPlanner(t), freshPlanner(t)
	if err := a.ShareCache(cache, "mobilenet|ODROID|TitanXp"); err != nil {
		t.Fatal(err)
	}
	if err := b.ShareCache(cache, "mobilenet|ODROID|TitanXp"); err != nil {
		t.Fatal(err)
	}
	ea, err := a.planAt(3)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := b.planAt(3.1) // same 0.25-wide bucket
	if err != nil {
		t.Fatal(err)
	}
	if ea != eb {
		t.Error("planners with one key did not share the cached plan")
	}
	if got := cache.Stats().Misses; got != 1 {
		t.Errorf("shared bucket computed %d times, want 1", got)
	}
	// Sequential requests resolve exactly: a's was the miss, b's a hit.
	if st := cache.Stats(); st.Misses != 1 || st.Hits != 1 || st.Coalesced != 0 {
		t.Errorf("stats after two sequential requests = %+v, want 1 miss / 1 hit", st)
	}

	// A planner under a different key must not see those entries. Build it
	// on a different model so distinct plans are actually expected.
	m := dnn.ResNet50()
	prof := profile.NewModelProfile(m, profile.ClientODROID(), profile.ServerTitanXp())
	c, err := NewPlanner(prof, a.est, a.link)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ShareCache(cache, "resnet|ODROID|TitanXp"); err != nil {
		t.Fatal(err)
	}
	ec, err := c.planAt(3)
	if err != nil {
		t.Fatal(err)
	}
	if ec == ea {
		t.Error("distinct keys shared a cache entry")
	}
	if got := cache.Stats().Misses; got != 2 {
		t.Errorf("cache computes = %d, want 2", got)
	}
	if st := cache.Stats(); st.Misses != 2 || st.Requests() != 3 {
		t.Errorf("stats after three requests over two keys = %+v, want 2 misses of 3", st)
	}
}

// TestShareCacheValidation: bad arguments are rejected.
func TestShareCacheValidation(t *testing.T) {
	p := freshPlanner(t)
	if err := p.ShareCache(nil, "key"); err == nil {
		t.Error("nil cache accepted")
	}
	if err := p.ShareCache(NewPlanCache(), ""); err == nil {
		t.Error("empty key accepted")
	}
}

// TestSharedPlansProcessWide: the process-wide cache exists and planners
// keyed into it under different links stay separate.
func TestSharedPlansProcessWide(t *testing.T) {
	if SharedPlans() == nil {
		t.Fatal("no process-wide plan cache")
	}
	a, b := freshPlanner(t), freshPlanner(t)
	cache := NewPlanCache()
	if err := a.ShareCache(cache, "k"); err != nil {
		t.Fatal(err)
	}
	// Same key, different link: must not collide.
	slow := partition.Link{UpBps: 1e6, DownBps: 1e6, RTT: b.link.RTT}
	b2, err := NewPlanner(b.Profile(), b.est, slow)
	if err != nil {
		t.Fatal(err)
	}
	if err := b2.ShareCache(cache, "k"); err != nil {
		t.Fatal(err)
	}
	ea, err := a.planAt(1)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := b2.planAt(1)
	if err != nil {
		t.Fatal(err)
	}
	if ea == eb {
		t.Error("different links shared a plan entry")
	}
}

// TestPlanChainMatchesPartitioner: for every zoo model and both objectives
// the cached chain plan is exactly what partition.PlanChain returns for
// the bucket-rounded slowdown vector — the cache adds rounding, nothing
// else.
func TestPlanChainMatchesPartitioner(t *testing.T) {
	shared := testPlanner(t) // reuse its trained estimator
	raw := []float64{1.07, 2.6, 0.4, 1.9}
	rounded := []float64{1, 2.5, 1, 2}
	for _, name := range dnn.ZooNames() {
		m, err := dnn.ZooModel(name)
		if err != nil {
			t.Fatal(err)
		}
		prof := profile.NewModelProfile(m, profile.ClientODROID(), profile.ServerTitanXp())
		p, err := NewPlanner(prof, shared.est, partition.LabWiFi())
		if err != nil {
			t.Fatal(err)
		}
		for _, obj := range []partition.Objective{partition.ObjectiveLatency, partition.ObjectiveThroughput} {
			cands := make([]ChainCandidate, len(raw))
			servers := make([]partition.ServerSpec, len(raw))
			for i := range raw {
				addr := string(rune('a' + i))
				cands[i] = ChainCandidate{ID: 10 + i, Addr: addr, Slowdown: raw[i]}
				servers[i] = partition.ServerSpec{ID: 10 + i, Addr: addr, Slowdown: rounded[i]}
			}
			got, err := p.PlanChain(cands, 3, obj)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, obj, err)
			}
			want, err := partition.PlanChain(partition.ChainRequest{
				Profile: prof, Link: p.link, Servers: servers, MaxHops: 3, Objective: obj,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, obj, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: cached chain plan %v differs from partition.PlanChain %v", name, obj, got, want)
			}
			if again, _ := p.PlanChain(cands, 3, obj); again != got {
				t.Errorf("%s/%s: second request did not hit the cache", name, obj)
			}
		}
		// Objective and hop budget are part of the key.
		if got := len(p.cache.flights); got != 2 {
			t.Errorf("%s: cache holds %d keys, want 2", name, got)
		}
	}
}

// TestPlanChainSingleflight: concurrent chain requests for one key run the
// DP once.
func TestPlanChainSingleflight(t *testing.T) {
	p := freshPlanner(t)
	cands := []ChainCandidate{{ID: 1, Slowdown: 1.1}, {ID: 2, Slowdown: 1.6}, {ID: 3, Slowdown: 1}}
	const n = 32
	plans := make([]*partition.ChainPlan, n)
	errs := make([]error, n)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := 0; i < n; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait()
			plans[i], errs[i] = p.PlanChain(cands, 3, partition.ObjectiveThroughput)
		}(i)
	}
	start.Done()
	done.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if plans[i] != plans[0] {
			t.Fatalf("caller %d got a different plan", i)
		}
	}
	if got := p.cache.Stats().Misses; got != 1 {
		t.Errorf("chain DP ran %d times, want 1", got)
	}
	if st := p.cache.Stats(); st.Requests() != n {
		t.Errorf("stats requests = %d, want %d", st.Requests(), n)
	}
}

// TestPlanChainCacheBounded: distinct slowdown vectors cannot grow the
// cache past its cap, and single-split entries survive the chain resets.
func TestPlanChainCacheBounded(t *testing.T) {
	m, err := dnn.ZooModel(dnn.ModelMobileNet) // the cheapest DP
	if err != nil {
		t.Fatal(err)
	}
	prof := profile.NewModelProfile(m, profile.ClientODROID(), profile.ServerTitanXp())
	p, err := NewPlanner(prof, testPlanner(t).est, partition.LabWiFi())
	if err != nil {
		t.Fatal(err)
	}
	single, err := p.planAt(1.5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10_000; i++ {
		cands := []ChainCandidate{
			{ID: 1, Slowdown: 1 + 0.25*float64(i%100)},
			{ID: 2, Slowdown: 1 + 0.25*float64(i/100)},
		}
		if _, err := p.PlanChain(cands, 2, partition.ObjectiveLatency); err != nil {
			t.Fatal(err)
		}
		if got := len(p.cache.flights); got > maxChainPlans+1 {
			t.Fatalf("after %d vectors the cache holds %d keys, cap %d", i+1, got, maxChainPlans)
		}
	}
	if got := p.cache.Stats().Misses; got != 10_001 {
		t.Errorf("computes = %d, want one per distinct key (10001)", got)
	}
	if again, _ := p.planAt(1.5); again != single {
		t.Error("single-split entry was dropped with the chain plans")
	}
}

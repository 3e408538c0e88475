package core

import (
	"math/rand"
	"testing"
	"time"

	"perdnn/internal/dnn"
)

func TestLayerCacheTTL(t *testing.T) {
	c := NewLayerCache(10, 10*time.Second)
	c.Claim(0, 1).AddAll([]dnn.LayerID{1, 2})
	if set, ok := c.Get(5*time.Second, 1); !ok || !set.Has(1) {
		t.Error("layers missing before expiry")
	}
	if _, ok := c.Get(11*time.Second, 1); ok {
		t.Error("layers survived TTL")
	}
	// Re-adding after expiry starts fresh.
	c.Claim(20*time.Second, 1).AddAll([]dnn.LayerID{3})
	set, ok := c.Get(21*time.Second, 1)
	if !ok || set.Has(1) || !set.Has(3) {
		t.Error("expired layers resurrected")
	}
}

func TestLayerCacheTouch(t *testing.T) {
	c := NewLayerCache(10, 10*time.Second)
	c.Claim(0, 1).AddAll([]dnn.LayerID{1})
	c.Touch(8*time.Second, 1)
	if _, ok := c.Get(15*time.Second, 1); !ok {
		t.Error("touch did not extend TTL")
	}
	// Touching an expired or absent entry is a no-op.
	c.Touch(60*time.Second, 1)
	if _, ok := c.Get(61*time.Second, 1); ok {
		t.Error("touch resurrected expired entry")
	}
	c.Touch(0, 99)
}

// TestLayerCacheSweepsChurnedClients: clients claimed once and never again
// must not accumulate. On virtual time the arrival rate is exact, so the
// bound carries no slack: one client a second under a 100 s TTL keeps 101
// live, and the cache never holds more than twice that or the sweep floor.
func TestLayerCacheSweepsChurnedClients(t *testing.T) {
	const ttl = 100 * time.Second
	c := NewLayerCache(10, ttl)
	peak := 0
	for id := 0; id < 10_000; id++ {
		now := time.Duration(id) * time.Second
		c.Claim(now, id)
		live := min(id+1, int(ttl/time.Second)+1)
		if bound := max(2*live, minSweep); c.Len() > bound {
			t.Fatalf("client %d: cache holds %d entries, %d live, want <= %d", id, c.Len(), live, bound)
		}
		peak = max(peak, c.Len())
	}
	if peak != 2*(int(ttl/time.Second)) {
		t.Errorf("cache peaked at %d entries, want exactly the sweep trigger %d", peak, 2*int(ttl/time.Second))
	}
}

// TestLayerCacheSweepChangesNoAnswer drives a sweeping cache and a map that
// never forgets through the same random operations: every Get must agree,
// since a sweep removes only entries all methods treat as absent.
func TestLayerCacheSweepChangesNoAnswer(t *testing.T) {
	const ttl = 5 * time.Second
	rng := rand.New(rand.NewSource(1))
	c := NewLayerCache(8, ttl)
	type refEntry struct {
		set    dnn.LayerSet
		expiry time.Duration
	}
	ref := map[int]*refEntry{}
	var now time.Duration
	for i := 0; i < 50_000; i++ {
		now += time.Duration(rng.Intn(200)) * time.Millisecond
		client := rng.Intn(500)
		e, ok := ref[client]
		live := ok && now <= e.expiry
		switch rng.Intn(3) {
		case 0:
			id := dnn.LayerID(rng.Intn(8))
			c.Claim(now, client).Add(id)
			if !live {
				e = &refEntry{set: dnn.NewLayerSet(8)}
				ref[client] = e
			}
			e.set.Add(id)
			e.expiry = now + ttl
		case 1:
			c.Touch(now, client)
			if live {
				e.expiry = now + ttl
			}
		default:
			got, gotOK := c.Get(now, client)
			if gotOK != live || (live && got.Count() != e.set.Count()) {
				t.Fatalf("op %d: Get(%v, %d) = %v/%v, reference %v", i, now, client, got.Count(), gotOK, live)
			}
		}
	}
}

// TestLayerCacheGetOnlyReads: Get on an expired entry removes nothing, so
// readers on several goroutines may share a cache, and it changes no later
// answer: the entry stays absent to Get and Touch, and a Claim starts it
// afresh.
func TestLayerCacheGetOnlyReads(t *testing.T) {
	const ttl = 10 * time.Second
	c := NewLayerCache(10, ttl)
	c.Claim(0, 1).Add(1)
	c.Claim(0, 2).Add(2)
	c.Claim(8*time.Second, 2).Add(3)
	c.Touch(15*time.Second, 2)
	now := 2 * ttl
	if _, ok := c.Get(now, 1); ok {
		t.Fatal("an expired entry is live")
	}
	if c.Len() != 2 {
		t.Errorf("Get on an expired entry left %d entries, want 2", c.Len())
	}
	c.Touch(now, 1)
	if _, ok := c.Get(now, 1); ok {
		t.Error("Touch revived the expired entry")
	}
	if set, ok := c.Get(now, 2); !ok || !set.Has(2) || !set.Has(3) {
		t.Error("the live entry changed")
	}
	if set := c.Claim(now, 1); set.Has(1) {
		t.Error("Claim after Get kept the expired entry's layers")
	}
	if c.Len() != 2 {
		t.Errorf("%d entries after the re-claim, want 2", c.Len())
	}
}

// TestLayerCacheClaimAllocs gates what a new client costs once the map has
// room: entries live in the map by value, so a Claim allocates only its
// set's words.
func TestLayerCacheClaimAllocs(t *testing.T) {
	const ttl = time.Second
	c := NewLayerCache(64, ttl)
	const grown = 4096
	for id := 0; id < grown; id++ {
		c.Claim(0, id)
	}
	// The first Claim, AllocsPerRun's warm-up, sweeps every expired entry:
	// the map keeps its room.
	next := grown
	allocs := testing.AllocsPerRun(100, func() {
		c.Claim(2*ttl, next)
		next++
	})
	if allocs != 1 {
		t.Errorf("a new client's Claim allocates %v objects, want 1 (its set's words)", allocs)
	}
}

package core

import (
	"time"

	"perdnn/internal/dnn"
)

// LayerCache is an edge server's per-client DNN layer cache with TTL
// expiry: "edge servers keep the layers for a certain duration (TTL) and
// discard them after TTL. TTL is reset when another server attempts to send
// the DNN layers of the same client" (Section III.B.2). The simulator keeps
// one per simulated server on virtual time, the edge daemon one on its
// daemon clock; both pass the time in, so the cache reads no clock.
//
// An entry is live until its expiry and absent after it. Expired entries
// of clients that never return go in a sweep whenever a new client has
// doubled the cache since the last one, so they cost amortized constant
// work and the cache holds at most twice its live set (or minSweep). A
// sweep removes only entries every method already treats as absent, so it
// changes no answer. Not safe for concurrent use.
type LayerCache struct {
	numLayers int
	ttl       time.Duration
	entries   map[int]*cacheEntry // keyed by client ID; nil until the first Claim
	sweepAt   int                 // size at which a new client triggers a sweep
}

type cacheEntry struct {
	set    dnn.LayerSet
	expiry time.Duration
}

// minSweep is the smallest cache size at which expired entries are swept.
const minSweep = 64

// NewLayerCache returns an empty cache for a model with numLayers layers
// whose entries live for ttl after their last Claim or Touch.
func NewLayerCache(numLayers int, ttl time.Duration) *LayerCache {
	c := MakeLayerCache(numLayers, ttl)
	return &c
}

// MakeLayerCache returns a cache as NewLayerCache does, by value, for a
// caller that keeps many caches in one array. It allocates nothing.
func MakeLayerCache(numLayers int, ttl time.Duration) LayerCache {
	return LayerCache{numLayers: numLayers, ttl: ttl, sweepAt: minSweep}
}

// Reset empties the cache, as if it had just been made: a crashed server
// loses every cached layer.
func (c *LayerCache) Reset() { *c = MakeLayerCache(c.numLayers, c.ttl) }

// Get returns the client's cached layer set, evicting it first if expired.
// The returned set is live — mutate only through Claim.
func (c *LayerCache) Get(now time.Duration, client int) (dnn.LayerSet, bool) {
	e, ok := c.entries[client]
	if !ok {
		return dnn.LayerSet{}, false
	}
	if now > e.expiry {
		delete(c.entries, client)
		return dnn.LayerSet{}, false
	}
	return e.set, true
}

// Claim refreshes the TTL of the client's cached layers, starting an empty
// entry if none is live, and returns the set for the caller to add to.
func (c *LayerCache) Claim(now time.Duration, client int) dnn.LayerSet {
	if c.entries == nil {
		c.entries = make(map[int]*cacheEntry, 4)
	}
	e, ok := c.entries[client]
	if !ok || now > e.expiry {
		if !ok && len(c.entries) >= c.sweepAt {
			for id, old := range c.entries {
				if now > old.expiry {
					delete(c.entries, id)
				}
			}
			c.sweepAt = max(2*len(c.entries), minSweep)
		}
		e = &cacheEntry{set: dnn.NewLayerSet(c.numLayers)}
		c.entries[client] = e
	}
	e.expiry = now + c.ttl
	return e.set
}

// Touch refreshes the TTL of a client's cached layers without adding any.
func (c *LayerCache) Touch(now time.Duration, client int) {
	if e, ok := c.entries[client]; ok && now <= e.expiry {
		e.expiry = now + c.ttl
	}
}

// Len returns the number of entries held, expired ones not yet evicted
// included.
func (c *LayerCache) Len() int { return len(c.entries) }

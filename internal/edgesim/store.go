package edgesim

import (
	"time"

	"perdnn/internal/dnn"
)

// layerStore is an edge server's per-client DNN layer cache with TTL
// eviction: "edge servers keep the layers for a certain duration (TTL) and
// discard them after TTL. TTL is reset when another server attempts to send
// the DNN layers of the same client" (Section III.B.2).
type layerStore struct {
	numLayers int
	entries   map[int]*storeEntry // keyed by client ID
}

type storeEntry struct {
	set    dnn.LayerSet
	expiry time.Duration
}

func newLayerStore(numLayers int) *layerStore {
	return &layerStore{numLayers: numLayers, entries: make(map[int]*storeEntry, 4)}
}

// get returns the client's cached layer set, evicting it first if expired.
// The returned set is live — mutate only through the store methods.
func (s *layerStore) get(now time.Duration, client int) (dnn.LayerSet, bool) {
	e, ok := s.entries[client]
	if !ok {
		return dnn.LayerSet{}, false
	}
	if now > e.expiry {
		delete(s.entries, client)
		return dnn.LayerSet{}, false
	}
	return e.set, true
}

// add inserts layers for a client and refreshes the TTL.
func (s *layerStore) add(now time.Duration, client int, ids []dnn.LayerID, ttl time.Duration) {
	e, ok := s.entries[client]
	if !ok || now > e.expiry {
		e = &storeEntry{set: dnn.NewLayerSet(s.numLayers)}
		s.entries[client] = e
	}
	e.set.AddAll(ids)
	e.expiry = now + ttl
}

// touch refreshes the TTL of a client's cached layers without adding any.
func (s *layerStore) touch(now time.Duration, client int, ttl time.Duration) {
	if e, ok := s.entries[client]; ok && now <= e.expiry {
		e.expiry = now + ttl
	}
}

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

// missingFrom returns the IDs in ids not cached for the client.
func (s *layerStore) missingFrom(now time.Duration, client int, ids []dnn.LayerID) []dnn.LayerID {
	set, ok := s.get(now, client)
	if !ok {
		out := make([]dnn.LayerID, len(ids))
		copy(out, ids)
		return out
	}
	out := make([]dnn.LayerID, 0, len(ids))
	for _, id := range ids {
		if !set.Has(id) {
			out = append(out, id)
		}
	}
	return out
}

// residentBytes returns the total cached weight bytes on this store for
// the given model (TTL-expired entries excluded).
func (s *layerStore) residentBytes(now time.Duration, m *dnn.Model) int64 {
	var sum int64
	for client, e := range s.entries {
		if now > e.expiry {
			delete(s.entries, client)
			continue
		}
		for i := 0; i < m.NumLayers(); i++ {
			if e.set.Has(dnn.LayerID(i)) {
				sum += m.Layers[i].WeightBytes
			}
		}
	}
	return sum
}

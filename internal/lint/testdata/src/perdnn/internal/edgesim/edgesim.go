// Package edgesim is the simdeterminism fixture: it occupies a simulation
// package's import path so the analyzer applies, and declares the Env type
// the envmutate fixtures write through.
package edgesim

import (
	"math/rand"
	"sort"
	"time"

	"perdnn/internal/obs"
)

// Env mirrors the real Env's immutability contract for envmutate fixtures.
type Env struct {
	Seed int64
	Name string
}

type world struct {
	events []obs.Event
	now    time.Duration
}

// event is a journal-emission helper, recognized by name convention.
func (w *world) event(t obs.EventType, server, target int) {
	w.events = append(w.events, obs.NewEvent(w.now, t, 0, server, target, 0, 0))
}

func wallClock() time.Duration {
	start := time.Now() // want "wall-clock time.Now"
	defer func() {
		_ = time.Since(start) // want "wall-clock time.Since"
	}()
	time.Sleep(time.Millisecond) // want "wall-clock time.Sleep"
	return 0
}

func globalRand(n int) int {
	return rand.Intn(n) // want "package-level rand.Intn"
}

func globalShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want "package-level rand.Shuffle"
}

func seededRand(seed int64, n int) int {
	rng := rand.New(rand.NewSource(seed)) // ok: run-scoped generator
	return rng.Intn(n)
}

func emitUnsorted(w *world, caches map[int]int64) {
	for id, b := range caches { // want "map iteration order reaches the journal"
		w.events = append(w.events, obs.NewEvent(w.now, "migration_ordered", 0, id, -1, 0, b))
	}
}

func emitViaHelper(w *world, caches map[int]int64) {
	for id := range caches { // want "map iteration order reaches the journal"
		w.event("handoff", id, -1)
	}
}

func accumulateEvents(caches map[int]int64, now time.Duration) []obs.Event {
	var out []obs.Event
	for id, b := range caches { // want "map iteration order reaches the journal"
		out = append(out, obs.NewEvent(now, "cold_start", 0, id, -1, 0, b))
	}
	return out
}

func emitSorted(w *world, caches map[int]int64) {
	ids := make([]int, 0, len(caches))
	for id := range caches { // ok: feeds only the sorted slice below
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids { // ok: slice iteration is ordered
		w.event("handoff", id, -1)
	}
}

func countOnly(caches map[int]int64) int {
	n := 0
	for range caches { // ok: no loop variables, order cannot leak
		n++
	}
	return n
}

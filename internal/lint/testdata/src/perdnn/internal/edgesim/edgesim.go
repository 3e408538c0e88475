// Package edgesim is the simdeterminism fixture: it occupies a simulation
// package's import path so the analyzer applies, and declares the Env type
// the envmutate fixtures write through.
package edgesim

import (
	"math/rand"
	"sort"
	"time"

	"perdnn/internal/obs/tracing"
)

// Env mirrors the real Env's immutability contract for envmutate fixtures.
type Env struct {
	Seed int64
	Name string
}

type world struct {
	decisions *tracing.Tracer
	spans     []tracing.Span
	now       time.Duration
}

// recordDecision is a journal-recording helper, recognized by name
// convention.
func (w *world) recordDecision(stage tracing.Stage, server, target int) {
	w.decisions.RecordAttrs(w.decisions.NewTrace(), 0, stage, "", w.now, w.now, tracing.NewAttrs(0, server, target, 0, 0))
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

func recordUnsorted(w *world, caches map[int]int64) {
	for id, b := range caches { // want "map iteration order reaches the journal"
		w.decisions.RecordAttrs(1, 0, "migration_ordered", "", w.now, w.now, tracing.NewAttrs(0, id, -1, 0, b))
	}
}

func recordViaHelper(w *world, caches map[int]int64) {
	for id := range caches { // want "map iteration order reaches the journal"
		w.recordDecision("handoff", id, -1)
	}
}

func accumulateSpans(w *world, caches map[int]int64) {
	for _, s := range w.spans { // ok: slice iteration is ordered
		w.spans = append(w.spans, s)
	}
	for range caches { // ok: no loop variables, order cannot leak
		w.spans = append(w.spans, w.spans[0])
	}
	for id := range caches { // want "map iteration order reaches the journal"
		w.spans = append(w.spans, w.spans[id].WithRun("r"))
	}
}

func recordSorted(w *world, caches map[int]int64) {
	ids := make([]int, 0, len(caches))
	for id := range caches { // ok: feeds only the sorted slice below
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids { // ok: slice iteration is ordered
		w.recordDecision("handoff", id, -1)
	}
}

func countOnly(caches map[int]int64) int {
	n := 0
	for range caches { // ok: no loop variables, order cannot leak
		n++
	}
	return n
}

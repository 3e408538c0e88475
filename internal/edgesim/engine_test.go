package edgesim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"perdnn/internal/dnn"
	"perdnn/internal/raceguard"
)

// engineAllocsPerEvent is what the event loop costs per executed event:
// nothing. Events are values in the engine's heap slice, and the loop
// itself (Run, RunBefore, and simShard.step, which picks one of them per
// barrier) adds nothing either.
const engineAllocsPerEvent = 0

// TestEngineAllocsPerEvent drives a self-rescheduling callback — the
// benchmark's edgesim.engine_allocs_per_event probe — through each of the
// four loop entry points.
func TestEngineAllocsPerEvent(t *testing.T) {
	if raceguard.Enabled {
		t.Skip("race detector instrumentation allocates; gate runs in non-race builds")
	}
	const events = 100
	sh := newSimShard(nil, 0)
	for _, tc := range []struct {
		name    string
		eng     *Engine
		advance func(e *Engine, until time.Duration)
	}{
		{"Engine.Run", NewEngine(), (*Engine).Run},
		{"Engine.RunBefore", NewEngine(), (*Engine).RunBefore},
		{"simShard.step/window", sh.eng, func(_ *Engine, until time.Duration) { sh.step(shardStep{until: until}) }},
		{"simShard.step/drain", sh.eng, func(_ *Engine, until time.Duration) { sh.step(shardStep{until: until, inclusive: true}) }},
	} {
		eng, fired := tc.eng, 0
		var next func()
		next = func() {
			if fired++; fired < events {
				eng.After(time.Millisecond, next)
			}
		}
		n := testing.AllocsPerRun(20, func() {
			fired = 0
			eng.After(time.Millisecond, next)
			tc.advance(eng, eng.Now()+(events+1)*time.Millisecond)
			if fired != events {
				t.Fatalf("%s: fired %d of %d events", tc.name, fired, events)
			}
		})
		if n > events*engineAllocsPerEvent {
			t.Errorf("%s: %.2f allocs/event, budget %d", tc.name, n/events, engineAllocsPerEvent)
		}
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(3*time.Second, func() { order = append(order, 3) })
	e.At(time.Second, func() { order = append(order, 1) })
	e.At(2*time.Second, func() { order = append(order, 2) })
	e.Run(10 * time.Second)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if e.Now() != 10*time.Second {
		t.Errorf("Now = %v", e.Now())
	}
}

// TestEngineHeapOrder: 10k events at few distinct times, a third of them
// scheduled from inside running callbacks, pop in (at, seq) order — seq
// being the order At was called in — and every popped slot is zeroed.
func TestEngineHeapOrder(t *testing.T) {
	type key struct {
		at  time.Duration
		seq int
	}
	const events = 10000
	e := NewEngine()
	rng := rand.New(rand.NewSource(5))
	var scheduled, popped []key
	var schedule func(nested bool)
	schedule = func(nested bool) {
		k := key{at: e.Now() + time.Duration(rng.Intn(7))*time.Millisecond, seq: len(scheduled)}
		scheduled = append(scheduled, k)
		e.At(k.at, func() {
			popped = append(popped, k)
			if nested && len(scheduled) < events {
				schedule(rng.Intn(2) == 0)
				schedule(rng.Intn(2) == 0)
			}
		})
	}
	for len(scheduled) < events/3 {
		schedule(true)
	}
	for e.Pending() > 0 {
		e.Run(e.Now() + time.Millisecond)
	}
	if len(popped) != len(scheduled) || len(scheduled) < events {
		t.Fatalf("popped %d of %d scheduled events (want >= %d)", len(popped), len(scheduled), events)
	}
	want := slices.Clone(scheduled)
	sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
	if !slices.Equal(popped, want) {
		t.Error("events did not pop in (at, seq) order")
	}
	for i, ev := range e.pq[:cap(e.pq)] {
		if ev.fn != nil {
			t.Fatalf("heap slot %d still holds its callback after the queue drained", i)
		}
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.At(time.Second, func() { order = append(order, i) })
	}
	e.Run(time.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	hits := 0
	var chain func()
	chain = func() {
		hits++
		if hits < 5 {
			e.After(time.Second, chain)
		}
	}
	e.After(0, chain)
	e.Run(10 * time.Second)
	if hits != 5 {
		t.Errorf("hits = %d", hits)
	}
	if e.Pending() != 0 {
		t.Errorf("pending = %d", e.Pending())
	}
}

func TestEngineRunStopsAtLimit(t *testing.T) {
	e := NewEngine()
	ran := false
	e.At(5*time.Second, func() { ran = true })
	e.Run(2 * time.Second)
	if ran {
		t.Error("future event ran early")
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d", e.Pending())
	}
	e.Run(5 * time.Second)
	if !ran {
		t.Error("event never ran")
	}
}

func TestEnginePanicsOnPastEvent(t *testing.T) {
	e := NewEngine()
	e.At(time.Second, func() {})
	e.Run(time.Second)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	e.At(500*time.Millisecond, func() {})
}

func TestEngineAfterNegativeClamped(t *testing.T) {
	e := NewEngine()
	ran := false
	e.After(-time.Second, func() { ran = true })
	e.Run(0)
	if !ran {
		t.Error("negative After did not clamp to now")
	}
}

func TestLayerStoreTTL(t *testing.T) {
	s := newLayerStore(10)
	s.add(0, 1, []dnn.LayerID{1, 2}, 10*time.Second)
	if set, ok := s.get(5*time.Second, 1); !ok || !set.Has(1) {
		t.Error("layers missing before expiry")
	}
	if _, ok := s.get(11*time.Second, 1); ok {
		t.Error("layers survived TTL")
	}
	// Re-adding after expiry starts fresh.
	s.add(20*time.Second, 1, []dnn.LayerID{3}, 10*time.Second)
	set, ok := s.get(21*time.Second, 1)
	if !ok || set.Has(1) || !set.Has(3) {
		t.Error("expired layers resurrected")
	}
}

func TestLayerStoreTouch(t *testing.T) {
	s := newLayerStore(10)
	s.add(0, 1, []dnn.LayerID{1}, 10*time.Second)
	s.touch(8*time.Second, 1, 10*time.Second)
	if _, ok := s.get(15*time.Second, 1); !ok {
		t.Error("touch did not extend TTL")
	}
	// Touching an expired or absent entry is a no-op.
	s.touch(60*time.Second, 1, 10*time.Second)
	if _, ok := s.get(61*time.Second, 1); ok {
		t.Error("touch resurrected expired entry")
	}
	s.touch(0, 99, 10*time.Second)
}

package edgesim

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"perdnn/internal/raceguard"
)

// engineAllocsPerEvent is what the event loop costs per executed event:
// nothing. Events are values in pooled calendar nodes or in the far heap's
// slice, and the loop itself (Run, RunBefore, and simShard.step, which
// picks one of them per barrier) adds nothing either.
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

// pending counts the queued events.
func pending(e *Engine) int { return e.near + len(e.far) }

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

// TestEngineHeapOrder: events pop in (at, seq) order — seq being the
// order At was called in — and leave no callback behind in a node or far
// slot. The schedule mixes few distinct times (equal times in one slot),
// times on and 1 ns either side of slot boundaries, times at, 1 ns before
// (the ring's last slot) and up to two horizons past the calendar's
// horizon (the far heap), and recent events' times again. It runs twice on one engine: dense, 10k events of
// which a third are scheduled up front and the rest by callbacks that each
// schedule two; then sparse, three chains whose callbacks each schedule
// one, so the calendar often holds a single event. Each round is drained
// by Run and RunBefore limits on slot boundaries, and wraps the ring more
// than once.
func TestEngineHeapOrder(t *testing.T) {
	type key struct {
		at  time.Duration
		seq int
	}
	const (
		slot    = time.Duration(1) << slotShift
		horizon = slotCount * slot
	)
	e := NewEngine()
	rng := rand.New(rand.NewSource(5))
	for _, round := range []struct {
		name            string
		initial, events int
		fanout          int
	}{
		{"dense", 10000 / 3, 10000, 2},
		{"sparse", 3, 3000, 1},
	} {
		var scheduled, popped []key
		var limit time.Duration
		start := e.Now()
		inclusive, boundaryHits, farMax, wrappingDrains := false, 0, 0, 0
		var schedule func(nested bool)
		schedule = func(nested bool) {
			now := e.Now()
			var at time.Duration
			switch rng.Intn(5) {
			case 0, 1: // few distinct times: several equal times in one slot
				at = now + time.Duration(rng.Intn(7))*time.Millisecond
			case 2: // on a slot boundary a few slots ahead, or 1 ns either side
				at = (now/slot+1+time.Duration(rng.Intn(4)))*slot + time.Duration(rng.Intn(3)-1)
			case 3: // 1 ns before the horizon, at it, or past it
				at = (now/slot + slotCount) * slot
				if rng.Intn(2) == 0 {
					at += time.Duration(rng.Intn(3) - 1)
				} else {
					at += time.Duration(rng.Int63n(int64(2 * horizon)))
				}
			case 4: // a recent event's time, unless past: once within the
				// horizon, the far heap's event and the calendar's tie on at
				j := len(scheduled) - 1 - rng.Intn(min(16, len(scheduled)))
				at = max(now, scheduled[j].at)
			}
			k := key{at: at, seq: len(scheduled)}
			scheduled = append(scheduled, k)
			e.At(k.at, func() {
				if k.at > limit || (!inclusive && k.at == limit) {
					t.Errorf("%s: event at %v ran under limit %v (inclusive %v)", round.name, k.at, limit, inclusive)
				}
				if k.at == limit {
					boundaryHits++
				}
				popped = append(popped, k)
				if nested {
					for i := 0; i < round.fanout && len(scheduled) < round.events; i++ {
						schedule(round.fanout == 1 || rng.Intn(2) == 0)
					}
				}
				farMax = max(farMax, len(e.far))
			})
		}
		for len(scheduled) < round.initial {
			schedule(true)
		}
		for pending(e) > 0 {
			// Mostly the next slot boundary, so most boundaries are a
			// limit; rarely one up to two horizons on, so one drain wraps
			// the ring.
			step := time.Duration(1)
			if rng.Intn(512) == 0 {
				step += time.Duration(rng.Intn(2 * slotCount))
			}
			limit = (e.Now()/slot + step) * slot
			if limit-e.Now() > horizon {
				wrappingDrains++
			}
			if inclusive = rng.Intn(2) == 0; inclusive {
				e.Run(limit)
			} else {
				e.RunBefore(limit)
			}
			if e.Now() != limit {
				t.Fatalf("%s: Now = %v after a drain to %v", round.name, e.Now(), limit)
			}
		}
		if len(popped) != len(scheduled) || len(scheduled) < round.events {
			t.Fatalf("%s: popped %d of %d scheduled events (want >= %d)", round.name, len(popped), len(scheduled), round.events)
		}
		if boundaryHits == 0 || farMax == 0 || wrappingDrains == 0 || e.Now()-start < 2*horizon {
			t.Fatalf("%s: schedule missed a case: %d events on a Run limit, far heap peaked at %d, %d drains past a horizon, drained %v (< 2 horizons?)",
				round.name, boundaryHits, farMax, wrappingDrains, e.Now()-start)
		}
		want := slices.Clone(scheduled)
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		if !slices.Equal(popped, want) {
			t.Errorf("%s: events did not pop in (at, seq) order", round.name)
		}
		for i, n := range e.nodes {
			if n.ev.fn != nil {
				t.Fatalf("%s: node %d still holds its callback after the queue drained", round.name, i)
			}
		}
		for i, ev := range e.far[:cap(e.far)] {
			if ev.fn != nil {
				t.Fatalf("%s: far slot %d still holds its callback after the queue drained", round.name, i)
			}
		}
		if e.occ != [occWords]uint64{} {
			t.Errorf("%s: the slot bitmap still marks a slot after the queue drained", round.name)
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
	if pending(e) != 0 {
		t.Errorf("pending = %d", pending(e))
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
	if pending(e) != 1 {
		t.Errorf("pending = %d", pending(e))
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

// BenchmarkEngineCityDepth drives the engine at a city round's queue
// depth: 200 query chains, each always one event pending, whose delays mix
// a city query's sub-30 ms stages with the 0.5 s gap to the next issue
// (one in three), so about 200 events are queued at every pop. One op is
// one executed event.
func BenchmarkEngineCityDepth(b *testing.B) {
	const chains = 200
	rng := rand.New(rand.NewSource(1))
	delays := make([]time.Duration, 1<<12)
	for i := range delays {
		delays[i] = time.Duration(rng.Int63n(int64(30 * time.Millisecond)))
		if i%3 == 2 {
			delays[i] += 500 * time.Millisecond
		}
	}
	e := NewEngine()
	fired, k := 0, 0
	var step func()
	step = func() {
		// Reschedule while the events fired and queued fall short of b.N.
		if fired++; fired+pending(e) < b.N {
			k = (k + 1) & (len(delays) - 1)
			e.After(delays[k], step)
		}
	}
	for i := 0; i < min(chains, b.N); i++ {
		e.After(delays[i], step)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(time.Duration(math.MaxInt64))
	if fired != b.N {
		b.Fatalf("fired %d of %d events", fired, b.N)
	}
}

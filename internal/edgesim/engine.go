// Package edgesim is the discrete-event simulator behind the paper's
// evaluation: mobile clients play back trajectories over a hexagonal grid
// of GPU edge servers, offload DNN queries according to partitioning plans,
// incrementally upload layers, and — under PerDNN — receive proactively
// migrated layers at the servers they are predicted to visit. It reproduces
// the single-client experiments (Fig 1, Fig 7, Table II) and the
// large-scale city simulation (Fig 9, backhaul traffic, Fig 10).
package edgesim

import (
	"fmt"
	"time"
)

// event is one scheduled callback.
type event struct {
	at  time.Duration
	seq int64 // tie-break: FIFO among simultaneous events
	fn  func()
}

// before is the heap order: (at, seq) ascending. seq is unique per engine,
// so the order is total and every correct heap pops the same sequence.
func (a *event) before(b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Engine is a single-threaded virtual-time event loop. Its queue is a
// binary min-heap of event values: scheduling allocates nothing once the
// slice has grown to the run's high-water mark.
type Engine struct {
	now time.Duration
	seq int64
	pq  []event
}

// NewEngine returns an engine at virtual time zero.
func NewEngine() *Engine {
	return &Engine{pq: make([]event, 0, 1024)}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// At schedules fn at virtual time t. Scheduling in the past panics: it is
// always a simulation bug.
func (e *Engine) At(t time.Duration, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("edgesim: scheduling at %v before now %v", t, e.now))
	}
	e.seq++
	ev := event{at: t, seq: e.seq, fn: fn}
	// Sift up: move later parents down into the hole, then drop ev in.
	e.pq = append(e.pq, ev)
	i := len(e.pq) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&e.pq[parent]) {
			break
		}
		e.pq[i] = e.pq[parent]
		i = parent
	}
	e.pq[i] = ev
}

// pop removes and returns the earliest event. The vacated tail slot is
// zeroed so its callback is collectable.
func (e *Engine) pop() event {
	top := e.pq[0]
	n := len(e.pq) - 1
	last := e.pq[n]
	e.pq[n] = event{}
	e.pq = e.pq[:n]
	if n == 0 {
		return top
	}
	// Sift down: move the earlier child up into the hole, then drop the
	// old tail in.
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && e.pq[r].before(&e.pq[child]) {
			child = r
		}
		if !e.pq[child].before(&last) {
			break
		}
		e.pq[i] = e.pq[child]
		i = child
	}
	e.pq[i] = last
	return top
}

// After schedules fn d from now.
func (e *Engine) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.At(e.now+d, fn)
}

// Run executes events until the queue is empty or the next event is past
// `until`; virtual time ends at the last executed event (or `until` if that
// is later).
func (e *Engine) Run(until time.Duration) {
	for len(e.pq) > 0 && e.pq[0].at <= until {
		ev := e.pop()
		e.now = ev.at
		ev.fn()
	}
	if e.now < until {
		e.now = until
	}
}

// RunBefore executes every event strictly earlier than t, then advances
// virtual time to exactly t with events at t still queued. This is the
// sharded runner's window phase: each shard drains its region's events up
// to — but not including — the next movement tick, so the serial tick
// callback runs before any same-timestamp window event, exactly as the
// single-engine Run orders them (the pre-scheduled ticks carry the lowest
// sequence numbers at their timestamps).
func (e *Engine) RunBefore(t time.Duration) {
	for len(e.pq) > 0 && e.pq[0].at < t {
		ev := e.pop()
		e.now = ev.at
		ev.fn()
	}
	if e.now < t {
		e.now = t
	}
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.pq) }

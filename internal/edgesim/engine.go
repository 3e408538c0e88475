// Package edgesim is the discrete-event simulator behind the paper's
// evaluation: mobile clients play back trajectories over a hexagonal grid
// of GPU edge servers, offload DNN queries according to partitioning plans,
// incrementally upload layers, and — under PerDNN — receive proactively
// migrated layers at the servers they are predicted to visit. It reproduces
// the single-client experiments (Fig 1, Fig 7, Table II) and the
// large-scale city simulation (Fig 9, backhaul traffic, Fig 10).
package edgesim

import (
	"container/heap"
	"fmt"
	"time"
)

// event is one scheduled callback.
type event struct {
	at  time.Duration
	seq int64 // tie-break: FIFO among simultaneous events
	fn  func()
}

// eventHeap is a min-heap on (at, seq).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Engine is a single-threaded virtual-time event loop.
type Engine struct {
	now time.Duration
	seq int64
	pq  eventHeap
}

// NewEngine returns an engine at virtual time zero.
func NewEngine() *Engine {
	return &Engine{pq: make(eventHeap, 0, 1024)}
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
	heap.Push(&e.pq, &event{at: t, seq: e.seq, fn: fn})
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
		ev := heap.Pop(&e.pq).(*event)
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
		ev := heap.Pop(&e.pq).(*event)
		e.now = ev.at
		ev.fn()
	}
	if e.now < t {
		e.now = t
	}
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.pq) }

// Stop drops every queued event, so Run returns after the currently
// executing callback. Used to abort a run on context cancellation.
func (e *Engine) Stop() {
	for i := range e.pq {
		e.pq[i] = nil
	}
	e.pq = e.pq[:0]
}

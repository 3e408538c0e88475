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
	"math/bits"
	"time"
)

// event is one scheduled callback.
type event struct {
	at  time.Duration
	seq int64 // tie-break: FIFO among simultaneous events
	fn  func()
}

// before is the queue's order: (at, seq) ascending. seq is unique per
// engine, so the order is total and any correct queue pops the same
// sequence.
func (a *event) before(b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// The calendar: slotCount slots of 2^slotShift ns (≈ 1.05 ms) each, a
// horizon of ≈ 1.07 s that covers a city query's 0.5 s gap. An event's slot
// is its time's bucket, at>>slotShift, modulo slotCount.
const (
	slotShift = 20
	slotCount = 1024
	slotMask  = slotCount - 1
	occWords  = slotCount / 64
)

// node is one calendar entry: an event and the index of the next node in
// its slot's list, 0 ending it (nodes[0] is never used).
type node struct {
	ev   event
	next int32
}

// Engine is a single-threaded virtual-time event loop. Its queue is a
// calendar (Brown, CACM 1988): every event less than a horizon past the
// current slot sits in its slot's (at, seq)-sorted list of pooled nodes,
// kept with its tail because most events are the latest in their slot,
// and a bitmap of the non-empty slots finds the next one in a few words.
// Events at or past the horizon wait in far, a binary min-heap of event
// values, and the earlier of the two heads pops first. Scheduling
// allocates nothing once the node pool and far have grown to the run's
// high-water mark.
//
// Every queued event is at or after now (At refuses the past, and Run and
// RunBefore advance now no further than the earliest event left), so the
// calendar's buckets lie within [now's bucket, now's bucket + slotCount)
// and a scan of the slots from now's wraps into bucket order.
type Engine struct {
	now   time.Duration
	seq   int64
	head  [slotCount]int32 // first node of each slot's list, 0 when empty
	tail  [slotCount]int32 // last node of each slot's list
	occ   [occWords]uint64 // bit s set: slot s is non-empty
	near  int              // events in the calendar
	nodes []node
	free  int32 // head of the free-node list, 0 when empty
	far   farHeap
}

// NewEngine returns an engine at virtual time zero.
func NewEngine() *Engine {
	return &Engine{nodes: make([]node, 1, 1024)}
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
	if uint64(t>>slotShift-e.now>>slotShift) >= slotCount {
		e.far.push(event{at: t, seq: e.seq, fn: fn})
		return
	}
	i := e.free
	if i != 0 {
		e.free = e.nodes[i].next
	} else {
		i = int32(len(e.nodes))
		e.nodes = append(e.nodes, node{})
	}
	e.nodes[i] = node{ev: event{at: t, seq: e.seq, fn: fn}}
	e.near++
	// Link in after every node at or before t: its seq is the largest yet,
	// so that is its (at, seq) place. Most events land at a slot's tail.
	s := int(t>>slotShift) & slotMask
	tail := e.tail[s]
	switch {
	case tail == 0:
		e.head[s], e.tail[s] = i, i
		e.occ[s>>6] |= 1 << (s & 63)
	case e.nodes[tail].ev.at <= t:
		e.nodes[tail].next, e.tail[s] = i, i
	default:
		p := &e.head[s]
		for e.nodes[*p].ev.at <= t {
			p = &e.nodes[*p].next
		}
		e.nodes[i].next, *p = *p, i
	}
}

// After schedules fn d from now.
func (e *Engine) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.At(e.now+d, fn)
}

// Queue heads for next and take: a calendar slot, or one of these.
const (
	farHead = -1
	noHead  = -2
)

// next returns the earliest queued event's time and where it sits: its
// calendar slot, farHead, or noHead when the queue is empty.
func (e *Engine) next() (time.Duration, int) {
	slot := noHead
	var head *event
	if e.near > 0 {
		slot = e.firstSlot()
		head = &e.nodes[e.head[slot]].ev
	}
	if len(e.far) > 0 && (head == nil || e.far[0].before(head)) {
		return e.far[0].at, farHead
	}
	if head == nil {
		return 0, noHead
	}
	return head.at, slot
}

// firstSlot returns the first non-empty calendar slot from now's on,
// wrapping around the ring. The calendar must hold an event.
func (e *Engine) firstSlot() int {
	s := int(e.now>>slotShift) & slotMask
	w := s >> 6
	if m := e.occ[w] >> (s & 63); m != 0 {
		return s + bits.TrailingZeros64(m)
	}
	// The last pass revisits word w whole: its bits below s are the
	// ring's latest buckets.
	for i := 1; i <= occWords; i++ {
		ww := (w + i) & (occWords - 1)
		if m := e.occ[ww]; m != 0 {
			return ww<<6 + bits.TrailingZeros64(m)
		}
	}
	panic("edgesim: calendar count and bitmap disagree")
}

// take removes the event at the head next returned and returns its
// callback. The freed node or far slot is zeroed so the callback is
// collectable.
func (e *Engine) take(slot int) func() {
	if slot == farHead {
		return e.far.pop().fn
	}
	i := e.head[slot]
	n := &e.nodes[i]
	fn := n.ev.fn
	e.head[slot] = n.next
	if n.next == 0 {
		e.tail[slot] = 0
		e.occ[slot>>6] &^= 1 << (slot & 63)
	}
	*n = node{next: e.free}
	e.free = i
	e.near--
	return fn
}

// Run executes events until the queue is empty or the next event is past
// `until`; virtual time ends at the last executed event (or `until` if that
// is later).
func (e *Engine) Run(until time.Duration) {
	for {
		at, slot := e.next()
		if slot == noHead || at > until {
			break
		}
		fn := e.take(slot)
		e.now = at
		fn()
	}
	if e.now < until {
		e.now = until
	}
}

// RunBefore executes every event strictly earlier than t, then advances
// virtual time to exactly t with events at t still queued. This is the
// sharded runner's window phase: each shard drains its region's events up
// to — but not including — the next movement tick, so the tick runs
// before any same-timestamp window event, exactly as the single-engine Run
// orders them (the pre-scheduled ticks carry the lowest sequence numbers
// at their timestamps).
func (e *Engine) RunBefore(t time.Duration) {
	for {
		at, slot := e.next()
		if slot == noHead || at >= t {
			break
		}
		fn := e.take(slot)
		e.now = at
		fn()
	}
	if e.now < t {
		e.now = t
	}
}

// farHeap is a binary min-heap of event values on (at, seq), with
// hand-written sifts: container/heap would move each event through an
// interface.
type farHeap []event

func (h *farHeap) push(ev event) {
	// Sift up: move later parents down into the hole, then drop ev in.
	*h = append(*h, ev)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
}

// pop removes and returns the earliest event. The vacated tail slot is
// zeroed so its callback is collectable.
func (h *farHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{}
	q = q[:n]
	*h = q
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
		if r := child + 1; r < n && q[r].before(&q[child]) {
			child = r
		}
		if !q[child].before(&last) {
			break
		}
		q[i] = q[child]
		i = child
	}
	q[i] = last
	return top
}

// Package obsuser exercises the fixed-shape journal-event analyzer.
package obsuser

import (
	"time"

	"perdnn/internal/obs"
)

func emitLiteral(events []obs.Event, now time.Duration) []obs.Event {
	return append(events, obs.Event{T: now, Type: "handoff"}) // want "ad-hoc obs.Event literal"
}

func buildLiteral(now time.Duration) obs.Event {
	return obs.Event{ // want "ad-hoc obs.Event literal"
		T:      now,
		Type:   "cold_start",
		Server: 3,
	}
}

func emitConstructed(events []obs.Event, now time.Duration) []obs.Event {
	return append(events, obs.NewEvent(now, "handoff", 1, 0, -1, 0, 0)) // ok: constructor states every field
}

func labelRun(e obs.Event) obs.Event {
	return e.WithRun("fig9/resnet") // ok: combinator preserves shape
}

// Package obs stubs perdnn/internal/obs for analyzer fixtures: same import
// path, same event surface, none of the real machinery.
package obs

import "time"

type EventType string

type Event struct {
	T      time.Duration
	Type   EventType
	Run    string
	Client int
	Server int
	Target int
	Layers int
	Bytes  int64
}

func NewEvent(t time.Duration, typ EventType, client, server, target, layers int, bytes int64) Event {
	return Event{T: t, Type: typ, Client: client, Server: server, Target: target, Layers: layers, Bytes: bytes}
}

func (e Event) WithRun(run string) Event {
	e.Run = run
	return e
}

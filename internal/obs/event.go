package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// EventType names one kind of journal event.
type EventType string

// The journal vocabulary: the simulator's and master's state transitions
// worth replaying after a run.
const (
	// EventHandoff: a client changed edge servers (Server = old, Target =
	// new; Server is -1 on the first attachment).
	EventHandoff EventType = "handoff"
	// EventColdStart: a handoff found none of the plan's server-side layers
	// cached (the paper's miss; Layers = layers that must be uploaded).
	EventColdStart EventType = "cold_start"
	// EventPartialHit: a handoff found some but not all plan layers cached
	// (Layers = layers already present).
	EventPartialHit EventType = "partial_hit"
	// EventPlanCacheMiss: the run requested a partitioning plan it had not
	// used before (run-local novelty, so the journal stays deterministic
	// while runs share the process-wide plan cache).
	EventPlanCacheMiss EventType = "plan_cache_miss"
	// EventMigrationOrdered: proactive migration scheduled Bytes of Layers
	// from Server toward Target.
	EventMigrationOrdered EventType = "migration_ordered"
	// EventMigrationCompleted: the ordered transfer finished and the layers
	// are cached at Target.
	EventMigrationCompleted EventType = "migration_completed"
	// EventFractionTruncated: the fractional-migration cap dropped Layers
	// layers from a transfer to Target (Bytes = the cap).
	EventFractionTruncated EventType = "fraction_truncated"
	// EventServerDown: an injected fault took edge server Server offline
	// (its layer cache is lost).
	EventServerDown EventType = "server_down"
	// EventServerUp: edge server Server recovered from an injected fault.
	EventServerUp EventType = "server_up"
	// EventFailover: a client's server (Server) was down, so it
	// re-partitioned to a live neighbor (Target).
	EventFailover EventType = "failover"
	// EventLocalFallback: no live edge server (or no reachable master)
	// could serve the client, which degraded to client-local execution
	// (Server = the server it failed to use, -1 if none).
	EventLocalFallback EventType = "local_fallback"
)

// Event is one journal entry. Server and Target are edge-server IDs with -1
// meaning "none" (they always serialize, since 0 is a valid server);
// Client, Layers and Bytes are omitted when zero. Run labels the sweep cell
// that produced the event when journals from several runs are concatenated.
type Event struct {
	// T is the virtual (simulation) time of the event in nanoseconds.
	T time.Duration `json:"t_ns"`
	// Type is the event kind.
	Type EventType `json:"type"`
	// Run labels the originating run in multi-run exports.
	Run string `json:"run,omitempty"`
	// Client is the client ID, if the event concerns one.
	Client int `json:"client,omitempty"`
	// Server is the primary server (current/source), -1 if none.
	Server int `json:"server"`
	// Target is the secondary server (new/destination), -1 if none.
	Target int `json:"target"`
	// Layers counts the DNN layers involved.
	Layers int `json:"layers,omitempty"`
	// Bytes counts the bytes involved.
	Bytes int64 `json:"bytes,omitempty"`
}

// Constructors for journal events.
//
// Journal lines must be byte-identical across emission sites and worker
// counts, and Server/Target use -1 for "none" because 0 is a valid server
// ID — so an Event must never be assembled from an ad-hoc literal that
// can silently zero-fill those fields. These constructors take every
// identity field positionally, in the struct's serialization order; the
// obsjournal analyzer in internal/lint rejects obs.Event composite
// literals outside this package.

// NewEvent builds one journal event with every field explicit, in the
// fixed serialization order: virtual time, type, client, server, target,
// layers, bytes. Pass NoID (-1) for server or target when the event has
// none; pass 0 for client, layers, or bytes when they do not apply (they
// are omitted from the JSONL line).
func NewEvent(t time.Duration, typ EventType, client, server, target, layers int, bytes int64) Event {
	return Event{
		T:      t,
		Type:   typ,
		Client: client,
		Server: server,
		Target: target,
		Layers: layers,
		Bytes:  bytes,
	}
}

// NoID is the explicit "no server" value for NewEvent's server and target
// fields.
const NoID = -1

// WithRun returns a copy of the event labeled with the originating run,
// for multi-run exports that concatenate per-run journals.
func (e Event) WithRun(run string) Event {
	e.Run = run
	return e
}

// WriteJSONL writes events as JSONL: one compact JSON object per line, in
// slice order. Field order is fixed by the Event struct, so identical event
// slices produce byte-identical output.
func WriteJSONL(w io.Writer, events []Event) error {
	enc := json.NewEncoder(w)
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			return fmt.Errorf("obs: encoding event %d: %w", i, err)
		}
	}
	return nil
}

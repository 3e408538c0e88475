package edgesim

import (
	"context"
	"testing"
	"time"

	"perdnn/internal/dnn"
	"perdnn/internal/geo"
	"perdnn/internal/raceguard"
)

// cityAllocsPerQuery is the whole-run allocation budget of a short PerDNN
// city, per simulated query: world construction, handoffs, uploads and
// migration orders amortized over the queries they serve. The query loop
// itself — three events through the engine's calendar of pooled nodes,
// stepped by the generation's queryChain — allocates nothing; the closure
// tower it replaced cost ≈ 10. A migration check allocates nothing either,
// and an order one set of a few words. The run measures 0.36; the budget
// leaves a quarter of that as margin.
const cityAllocsPerQuery = 0.45

func TestCityQueryAllocBudget(t *testing.T) {
	if raceguard.Enabled {
		t.Skip("race detector instrumentation allocates; gate runs in non-race builds")
	}
	env := smallEnv(t)
	cfg := DefaultCityConfig(dnn.ModelMobileNet, ModePerDNN, 100)
	cfg.MaxSteps = 8
	queries := 0
	n := testing.AllocsPerRun(3, func() {
		res, err := RunCity(env, cfg)
		if err != nil {
			t.Fatal(err)
		}
		queries = res.TotalQueries
	})
	if queries == 0 {
		t.Fatal("the run completed no query")
	}
	if per := n / float64(queries); per > cityAllocsPerQuery {
		t.Errorf("%.0f allocations for %d queries = %.2f per query, budget %.2f", n, queries, per, cityAllocsPerQuery)
	} else {
		t.Logf("%.0f allocations for %d queries = %.2f per query", n, queries, per)
	}
}

// worldAllocsPerServerCount bounds how many more objects newWorld may
// allocate for one placement than for another of the same clients: a
// run's servers are one array, and a server allocates nothing until it
// is used, so only the shard map's tile maps, which resize a few more
// times for a placement of more tiles, move the count (by 6 when the
// servers double).
const worldAllocsPerServerCount = 8

func TestNewWorldAllocs(t *testing.T) {
	if raceguard.Enabled {
		t.Skip("race detector instrumentation allocates; gate runs in non-race builds")
	}
	small := smallEnv(t)
	// The same clients over a placement with servers on a second, shifted
	// copy of every visited point as well.
	pts := small.Dataset.AllPoints()
	for _, p := range pts {
		pts = append(pts, p.Add(geo.Point{X: 5000, Y: 5000}))
	}
	big := *small
	big.Placement = geo.NewPlacement(geo.NewHexGrid(geo.CellRadius), pts)
	if 2*big.Placement.Len() < 3*small.Placement.Len() {
		t.Fatalf("%d servers against %d: the second placement did not grow", big.Placement.Len(), small.Placement.Len())
	}
	cfg := DefaultCityConfig(dnn.ModelMobileNet, ModePerDNN, 100)
	allocs := func(env *Env) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, _, err := newWorld(env, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	a, b := allocs(small), allocs(&big)
	if b-a > worldAllocsPerServerCount || a-b > worldAllocsPerServerCount {
		t.Errorf("newWorld: %.0f allocations for %d servers, %.0f for %d, want within %d",
			a, small.Placement.Len(), b, big.Placement.Len(), worldAllocsPerServerCount)
	} else {
		t.Logf("newWorld: %.0f allocations for %d servers, %.0f for %d", a, small.Placement.Len(), b, big.Placement.Len())
	}
}

// TestQueryCostsThreeEvents counts what a query costs the engine. Under
// ModeOptimal nothing uploads or migrates, so every scheduled event belongs
// to a query chain: three per offloaded query and one per local one, plus
// at most one expired gap per handoff and a query's worth per chain still
// in flight at the run's end. A fourth event per query would overrun the
// bound by far more than that slack.
func TestQueryCostsThreeEvents(t *testing.T) {
	env := smallEnv(t)
	cfg := DefaultCityConfig(dnn.ModelMobileNet, ModeOptimal, 100)
	cfg.MaxSteps = 20
	w, steps, err := newWorld(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.runShards(context.Background(), steps); err != nil {
		t.Fatal(err)
	}
	w.freeze()
	var events int64
	for _, sh := range w.shards {
		events += sh.eng.seq
	}
	q, conns := int64(w.res.TotalQueries), int64(w.res.Connections)
	if q < 10*int64(len(w.clients)) {
		t.Fatalf("%d queries from %d clients: too few to measure", q, len(w.clients))
	}
	if bound := 3*q + conns + 3*int64(len(w.clients)); events > bound {
		t.Errorf("%d events for %d queries (%.2f each), bound %d", events, q, float64(events)/float64(q), bound)
	}
	t.Logf("%d events for %d queries = %.2f per query", events, q, float64(events)/float64(q))
}

// twoShardWorld builds a two-shard world of the given mode and returns it
// with a server in each shard.
func twoShardWorld(t *testing.T, mode Mode) (w *world, a, b geo.ServerID) {
	t.Helper()
	env := smallEnv(t)
	cfg := DefaultCityConfig(dnn.ModelMobileNet, mode, 100)
	cfg.Shards = 2
	w, _, err := newWorld(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b = geo.ServerID(0), geo.NoServer
	for id := 1; id < env.Placement.Len(); id++ {
		if w.shardOf(geo.ServerID(id)) != w.shardOf(a) {
			b = geo.ServerID(id)
			break
		}
	}
	if b == geo.NoServer {
		t.Fatal("every server landed in one shard")
	}
	return w, a, b
}

// handoff attaches c to sid at now as a tick would: the reconnect's plan
// request is sampled, then the step applied.
func handoff(w *world, now time.Duration, c *simClient, sid geo.ServerID) {
	c.move = clientMove{kind: moveReconnect, at: sid, reqs: c.move.reqs[:0]}
	c.move.request(sid)
	w.serve(w.shardOf(sid), now, c, 0)
	w.apply(now, c)
}

// TestOldGenerationQueryFinishesOnOldShard hands a client off to another
// shard's server while its offloaded query is in flight: the old
// generation's chain finishes that one query on the old shard, counts it
// there, and expires at the gap without a successor, while the new
// generation's chain runs on the new shard.
func TestOldGenerationQueryFinishesOnOldShard(t *testing.T) {
	// Under ModeOptimal the plan's layers are on the server from the
	// start, so the first query is offloaded.
	w, a, b := twoShardWorld(t, ModeOptimal)
	oldSh, newSh := w.shardOf(a), w.shardOf(b)
	c := w.clients[0]

	handoff(w, 0, c, a)
	oldChain := c.chain
	if oldChain == nil || oldChain.sh != oldSh {
		t.Fatal("the first generation's chain is not on its server's shard")
	}
	if oldChain.stage != stageTransferUp || oldChain.split.ServerBase == 0 {
		t.Fatalf("first query at stage %d with %v on the server; want it offloaded", oldChain.stage, oldChain.split.ServerBase)
	}
	// Hand off while the query's input is still on its way to the GPU, or
	// the GPU is running it: its one event is queued and nothing is counted.
	at := time.Millisecond
	oldSh.step(shardStep{until: at})
	newSh.step(shardStep{until: at})
	if oldSh.totalQueries != 0 || oldChain.stage == stageGap || pending(oldSh.eng) != 1 {
		t.Fatalf("at %v: %d queries counted, stage %d, %d events queued; want the first query in flight",
			at, oldSh.totalQueries, oldChain.stage, pending(oldSh.eng))
	}
	handoff(w, at, c, b)
	if c.chain == oldChain || c.chain.sh != newSh || c.chain.gen != c.gen {
		t.Fatal("the handoff did not start a fresh chain on the new shard")
	}

	// Drain the old shard well past query + gap: one query, no successor,
	// nothing left queued.
	oldSh.step(shardStep{until: time.Minute, inclusive: true})
	if oldSh.totalQueries != 1 {
		t.Errorf("old shard counted %d queries, want the 1 in flight at the handoff", oldSh.totalQueries)
	}
	if oldChain.issue != 0 || oldChain.stage != stageGap {
		t.Errorf("old chain ended at stage %d of the query issued at %v, want the gap of the first", oldChain.stage, oldChain.issue)
	}
	if n := pending(oldSh.eng); n != 0 {
		t.Errorf("old shard still has %d events queued", n)
	}
	if newSh.totalQueries != 0 {
		t.Errorf("new shard counted %d queries before it ran", newSh.totalQueries)
	}
	newSh.step(shardStep{until: time.Minute})
	if newSh.totalQueries < 2 {
		t.Errorf("new shard counted %d queries in a minute, want a running chain", newSh.totalQueries)
	}
}

// TestLocalQueryCountedAtIssue starts a client cold: its first query runs
// on the client (≈ 0.3 s for MobileNet) and costs no event. It is counted
// at issue, only its gap is queued beside the upload, and a handoff leaves
// the old shard with that one query and nothing queued.
func TestLocalQueryCountedAtIssue(t *testing.T) {
	w, a, b := twoShardWorld(t, ModePerDNN)
	oldSh, newSh := w.shardOf(a), w.shardOf(b)
	c := w.clients[0]

	handoff(w, 0, c, a)
	oldChain := c.chain
	if oldSh.totalQueries != 1 || oldChain.stage != stageGap || pending(oldSh.eng) != 2 {
		t.Fatalf("at issue: %d queries counted, stage %d, %d events queued; want the first query's gap and an upload",
			oldSh.totalQueries, oldChain.stage, pending(oldSh.eng))
	}
	at := time.Millisecond
	oldSh.step(shardStep{until: at})
	handoff(w, at, c, b)
	if newSh.totalQueries != 1 {
		t.Errorf("new shard counted %d queries, want the local one issued at the handoff", newSh.totalQueries)
	}
	// The old generation's gap and upload both expire.
	oldSh.step(shardStep{until: time.Minute, inclusive: true})
	if oldSh.totalQueries != 1 || oldChain.issue != 0 {
		t.Errorf("old shard counted %d queries, last issued at %v; want the 1 issued at 0", oldSh.totalQueries, oldChain.issue)
	}
	if n := pending(oldSh.eng); n != 0 {
		t.Errorf("old shard still has %d events queued", n)
	}
}

// TestColdSplitsMatchDecompose holds the split table of every plan entry
// a short run used to what splitFor computes from the entry: row k is the
// split with the entry's first k schedule units on the server, so a cold
// start's upload queue walks the rows one unit at a time, and the last row
// is a hit's split, with all of the entry's layers there.
func TestColdSplitsMatchDecompose(t *testing.T) {
	env := smallEnv(t)
	for _, mode := range []Mode{ModePerDNN, ModeIONN, ModeOptimal} {
		for _, model := range []dnn.ModelName{dnn.ModelMobileNet, dnn.ModelResNet} {
			cfg := DefaultCityConfig(model, mode, 100)
			cfg.MaxSteps = 20
			w, steps, err := newWorld(env, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.runShards(context.Background(), steps); err != nil {
				t.Fatal(err)
			}
			if len(w.seenPlans) == 0 {
				t.Fatalf("%s %v: the run used no plan", model, mode)
			}
			probe := &simClient{sh: w.shards[0]}
			for entry := range w.seenPlans {
				if len(entry.Splits) != len(entry.Schedule)+1 {
					t.Fatalf("%s %v: table has %d rows, schedule %d units", model, mode, len(entry.Splits), len(entry.Schedule))
				}
				probe.curSet.Reset(w.model.NumLayers())
				for k := range entry.Splits {
					if k > 0 {
						probe.curSet.AddAll(entry.Schedule[k-1].Layers)
					}
					if want := w.splitFor(w.shards[0], probe); entry.Splits[k] != want {
						t.Errorf("%s %v: row %d = %+v, splitFor %+v", model, mode, k, entry.Splits[k], want)
					}
				}
				probe.curSet.Reset(w.model.NumLayers())
				probe.curSet.Union(entry.Layers)
				if got, want := entry.Splits[len(entry.Schedule)], w.splitFor(w.shards[0], probe); got != want {
					t.Errorf("%s %v: last row = %+v, hit splitFor %+v", model, mode, got, want)
				}
			}
		}
	}
}

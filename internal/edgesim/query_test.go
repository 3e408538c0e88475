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
// itself — five events through the value heap, stepped by the generation's
// queryChain — allocates nothing; the closure tower it replaced cost ≈ 10.
const cityAllocsPerQuery = 2.5

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
		t.Errorf("%.0f allocations for %d queries = %.2f per query, budget %.1f", n, queries, per, cityAllocsPerQuery)
	} else {
		t.Logf("%.0f allocations for %d queries = %.2f per query", n, queries, per)
	}
}

// TestOldGenerationQueryFinishesOnOldShard hands a client off to another
// shard's server while its query is in flight: the old generation's chain
// finishes that one query on the old shard, counts it there, and expires at
// the gap without a successor, while the new generation's chain runs on
// the new shard.
func TestOldGenerationQueryFinishesOnOldShard(t *testing.T) {
	env := smallEnv(t)
	cfg := DefaultCityConfig(dnn.ModelMobileNet, ModePerDNN, 100)
	cfg.Shards = 2
	w, _, err := newWorld(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two servers in different shards.
	a, b := geo.ServerID(0), geo.NoServer
	for id := 1; id < env.Placement.Len(); id++ {
		if w.shardOf(geo.ServerID(id)) != w.shardOf(a) {
			b = geo.ServerID(id)
			break
		}
	}
	if b == geo.NoServer {
		t.Fatal("every server landed in one shard")
	}
	oldSh, newSh := w.shardOf(a), w.shardOf(b)
	c := w.clients[0]

	w.reconnect(0, c, a)
	oldChain := c.chain
	if oldChain == nil || oldChain.sh != oldSh {
		t.Fatal("the first generation's chain is not on its server's shard")
	}
	// The first query of a cold start runs on the client (≈ 0.3 s for
	// MobileNet): at 1 ms it is in flight.
	handoff := time.Millisecond
	oldSh.step(shardStep{until: handoff})
	newSh.step(shardStep{until: handoff})
	if oldSh.totalQueries != 0 {
		t.Fatalf("a query finished within %v", handoff)
	}
	w.reconnect(handoff, c, b)
	if c.chain == oldChain || c.chain.sh != newSh || c.chain.gen != c.gen {
		t.Fatal("the handoff did not start a fresh chain on the new shard")
	}

	// Drain the old shard well past query + gap: one query, no successor,
	// nothing left queued (the old generation's upload expired too).
	oldSh.step(shardStep{until: time.Minute, inclusive: true})
	if oldSh.totalQueries != 1 {
		t.Errorf("old shard counted %d queries, want the 1 in flight at the handoff", oldSh.totalQueries)
	}
	if oldChain.issue != 0 || oldChain.stage != stageGap {
		t.Errorf("old chain ended at stage %d of the query issued at %v, want the gap of the first", oldChain.stage, oldChain.issue)
	}
	if n := oldSh.eng.Pending(); n != 0 {
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

// TestColdSplitsMatchDecompose holds every cold-start split table a short
// run builds to what splitFor computes from the plan entry: row k is the
// split with the entry's first k non-empty schedule units on the server.
func TestColdSplitsMatchDecompose(t *testing.T) {
	env := smallEnv(t)
	for _, mode := range []Mode{ModePerDNN, ModeIONN} {
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
			probe := &simClient{sh: w.shards[0]}
			tables := 0
			for entry, cold := range w.seenPlans {
				if cold == nil {
					continue
				}
				tables++
				probe.curSet.Reset(w.model.NumLayers())
				k := 0
				check := func() {
					if k >= len(cold) {
						t.Fatalf("%s %v: table has %d rows, the schedule more non-empty units", model, mode, len(cold))
					}
					if want := w.splitFor(probe); cold[k] != want {
						t.Errorf("%s %v: row %d = %+v, splitFor %+v", model, mode, k, cold[k], want)
					}
					k++
				}
				check()
				for _, u := range entry.Schedule {
					if len(u.Layers) > 0 {
						probe.curSet.AddAll(u.Layers)
						check()
					}
				}
				if k != len(cold) {
					t.Errorf("%s %v: table has %d rows, want %d", model, mode, len(cold), k)
				}
			}
			if tables == 0 {
				t.Errorf("%s %v: no connection started cold", model, mode)
			}
		}
	}
}

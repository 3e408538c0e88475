package edgesim

import (
	"testing"
	"time"

	"perdnn/internal/dnn"
)

func TestRunSingleValidation(t *testing.T) {
	cfg := DefaultSingleConfig(dnn.ModelInception)
	cfg.NumQueries = 0
	if _, err := RunSingle(cfg); err == nil {
		t.Error("zero queries accepted")
	}
	cfg = DefaultSingleConfig(dnn.ModelInception)
	cfg.MigrateFraction = 1.5
	if _, err := RunSingle(cfg); err == nil {
		t.Error("fraction > 1 accepted")
	}
	cfg = DefaultSingleConfig("nope")
	if _, err := RunSingle(cfg); err == nil {
		t.Error("unknown model accepted")
	}
}

// TestFig1ColdStartSpike reproduces Fig 1: the baseline's execution time
// spikes back to (near) fully-local time at the server switch and then
// recovers via incremental upload.
func TestFig1ColdStartSpike(t *testing.T) {
	cfg := DefaultSingleConfig(dnn.ModelInception)
	res, err := RunSingle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Queries) != 40 {
		t.Fatalf("got %d queries", len(res.Queries))
	}
	first := res.Queries[0].Latency
	preSwitch := res.Queries[cfg.SwitchAfterQueries-1].Latency
	atSwitch := res.Queries[cfg.SwitchAfterQueries].Latency
	last := res.Queries[len(res.Queries)-1].Latency

	if preSwitch >= first/2 {
		t.Errorf("no recovery before switch: first %v, pre-switch %v", first, preSwitch)
	}
	if atSwitch < 5*preSwitch {
		t.Errorf("no cold-start spike: pre %v, at switch %v", preSwitch, atSwitch)
	}
	if atSwitch != first {
		t.Errorf("spike %v should equal the fully-local first query %v", atSwitch, first)
	}
	if last >= atSwitch/2 {
		t.Errorf("no recovery after switch: %v -> %v", atSwitch, last)
	}
	// Queries before the switch are labelled server 0, after it server 1.
	for i, q := range res.Queries {
		want := 0
		if i >= cfg.SwitchAfterQueries {
			want = 1
		}
		if q.Server != want {
			t.Fatalf("query %d labelled server %d", i, q.Server)
		}
	}
}

// TestFig7ProactiveMigrationRemovesSpike reproduces Fig 7: with full
// proactive migration the post-switch latency stays flat, and with a small
// fraction the spike shrinks substantially.
func TestFig7ProactiveMigrationRemovesSpike(t *testing.T) {
	base := DefaultSingleConfig(dnn.ModelInception)
	ionn, err := RunSingle(base)
	if err != nil {
		t.Fatal(err)
	}

	full := base
	full.MigrateFraction = 1
	pmFull, err := RunSingle(full)
	if err != nil {
		t.Fatal(err)
	}
	steady := pmFull.Queries[len(pmFull.Queries)-1].Latency
	if peak := pmFull.PeakAfterSwitch(); peak > steady*11/10 {
		t.Errorf("full PM still spikes: peak %v vs steady %v", peak, steady)
	}
	if pmFull.MigratedBytes != pmFull.ServerBytes {
		t.Errorf("full PM migrated %d of %d bytes", pmFull.MigratedBytes, pmFull.ServerBytes)
	}

	part := base
	part.MigrateFraction = 0.14
	pmPart, err := RunSingle(part)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's headline: a small fraction (9% / 12 MB for the authors,
	// ~14% / ~17 MB in our reconstruction) cuts the peak by >= 2.5x.
	if pmPart.MigratedBytes >= pmPart.ServerBytes/5 {
		t.Errorf("partial PM moved %d bytes, want < 20%% of %d", pmPart.MigratedBytes, pmPart.ServerBytes)
	}
	ratio := ionn.PeakAfterSwitch().Seconds() / pmPart.PeakAfterSwitch().Seconds()
	if ratio < 2.5 {
		t.Errorf("partial PM speedup %.2fx, want >= 2.5x", ratio)
	}
}

// TestTable2Throughput reproduces Table II's shape: upload times follow
// model size at 35 Mbps, hit beats miss, and large models gain most.
func TestTable2Throughput(t *testing.T) {
	// Paper: upload 3.7 / 29.3 / 22.4 s; miss 4/33/14; hit 5/44/34.
	wants := map[dnn.ModelName]struct {
		uploadLo, uploadHi time.Duration
		missLo, missHi     int
		hitLo, hitHi       int
	}{
		dnn.ModelMobileNet: {3 * time.Second, 5 * time.Second, 3, 7, 4, 8},
		dnn.ModelInception: {28 * time.Second, 32 * time.Second, 28, 42, 40, 48},
		dnn.ModelResNet:    {21 * time.Second, 26 * time.Second, 12, 24, 30, 38},
	}
	for model, want := range wants {
		got, err := RunUploadThroughput(model)
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		if got.UploadTime < want.uploadLo || got.UploadTime > want.uploadHi {
			t.Errorf("%s: upload %v, want [%v,%v]", model, got.UploadTime, want.uploadLo, want.uploadHi)
		}
		if got.MissCount < want.missLo || got.MissCount > want.missHi {
			t.Errorf("%s: miss %d, want [%d,%d]", model, got.MissCount, want.missLo, want.missHi)
		}
		if got.HitCount < want.hitLo || got.HitCount > want.hitHi {
			t.Errorf("%s: hit %d, want [%d,%d]", model, got.HitCount, want.hitLo, want.hitHi)
		}
		if got.HitCount <= got.MissCount {
			t.Errorf("%s: hit %d not above miss %d", model, got.HitCount, got.MissCount)
		}
	}
}

func TestSingleDeterministic(t *testing.T) {
	cfg := DefaultSingleConfig(dnn.ModelResNet)
	a, err := RunSingle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSingle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Queries {
		if a.Queries[i] != b.Queries[i] {
			t.Fatalf("query %d differs", i)
		}
	}
}

// TestSwitchAtFirstQuery: with SwitchAfterQueries = 0 the client starts at
// server B, so every query runs there, and under full PM the first query
// already runs at the steady latency: no cold start.
func TestSwitchAtFirstQuery(t *testing.T) {
	cfg := DefaultSingleConfig(dnn.ModelInception)
	cfg.MigrateFraction = 1
	ref, err := RunSingle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	steady := ref.Queries[len(ref.Queries)-1].Latency

	cfg.SwitchAfterQueries = 0
	res, err := RunSingle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range res.Queries {
		if q.Server != 1 {
			t.Fatalf("query %d ran on server %d, want 1", i, q.Server)
		}
	}
	if peak := res.PeakAfterSwitch(); peak != steady {
		t.Errorf("peak after switch %v, want the steady %v", peak, steady)
	}
}

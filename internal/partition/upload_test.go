package partition

import (
	"slices"
	"testing"
	"time"

	"perdnn/internal/dnn"
)

func scheduleFor(t *testing.T, name dnn.ModelName) (Request, *Plan, []UploadUnit) {
	t.Helper()
	m, err := dnn.ZooModel(name)
	if err != nil {
		t.Fatal(err)
	}
	req := reqFor(t, m, 1)
	plan, err := Partition(req)
	if err != nil {
		t.Fatal(err)
	}
	units, err := UploadSchedule(req, plan)
	if err != nil {
		t.Fatal(err)
	}
	return req, plan, units
}

func TestUploadScheduleCoversServerLayersOnce(t *testing.T) {
	for _, name := range dnn.ZooNames() {
		_, plan, units := scheduleFor(t, name)
		seen := make(map[dnn.LayerID]int)
		for _, u := range units {
			if len(u.Layers) == 0 {
				t.Fatalf("%s: empty unit", name)
			}
			var bytes int64
			for _, id := range u.Layers {
				seen[id]++
				bytes += plan.Model.Layer(id).WeightBytes
			}
			if bytes != u.Bytes {
				t.Errorf("%s: unit bytes %d != layer sum %d", name, u.Bytes, bytes)
			}
			// Units are contiguous runs.
			for i := 1; i < len(u.Layers); i++ {
				if u.Layers[i] != u.Layers[i-1]+1 {
					t.Errorf("%s: non-contiguous unit %v", name, u.Layers)
				}
			}
		}
		for _, id := range plan.ServerLayers() {
			if seen[id] != 1 {
				t.Errorf("%s: layer %d scheduled %d times", name, id, seen[id])
			}
		}
		if ScheduleBytes(units) != plan.ServerBytes() {
			t.Errorf("%s: schedule bytes %d != server bytes %d", name, ScheduleBytes(units), plan.ServerBytes())
		}
	}
}

// TestUploadScheduleFrontLoadsBenefit verifies the efficiency-first order:
// the latency after uploading a small prefix of the schedule must already
// capture most of the achievable improvement for Inception, the property
// the paper's fractional migration exploits ("2.8x speedup when only 9% of
// the total model was sent").
func TestUploadScheduleFrontLoadsBenefit(t *testing.T) {
	req, plan, units := scheduleFor(t, dnn.ModelInception)

	coldLat, err := Evaluate(req, AllClient(plan.Model))
	if err != nil {
		t.Fatal(err)
	}
	fullGain := coldLat - plan.EstLatency
	if fullGain <= 0 {
		t.Fatal("offloading Inception must improve latency")
	}

	// Upload ~10% of the server-side bytes following the schedule.
	budget := plan.ServerBytes() / 10
	offloaded := AllClient(plan.Model)
	var sent int64
	for _, u := range units {
		if sent+u.Bytes > budget {
			break
		}
		for _, id := range u.Layers {
			offloaded[id] = AtServer
		}
		sent += u.Bytes
	}
	lat, err := Evaluate(req, offloaded)
	if err != nil {
		t.Fatal(err)
	}
	gain := coldLat - lat
	if frac := gain.Seconds() / fullGain.Seconds(); frac < 0.45 {
		t.Errorf("first 10%% of bytes yields only %.0f%% of the gain, want ~half", frac*100)
	}
	if speedup := coldLat.Seconds() / lat.Seconds(); speedup < 1.7 {
		t.Errorf("10%% migration speedup %.2fx, want >= 1.7x", speedup)
	}

	// Extending the budget to ~15%% of bytes must reach the paper's
	// headline regime (2.8x at a small fraction of the model).
	budget = plan.ServerBytes() * 15 / 100
	offloaded = AllClient(plan.Model)
	sent = 0
	for _, u := range units {
		if sent+u.Bytes > budget {
			break
		}
		for _, id := range u.Layers {
			offloaded[id] = AtServer
		}
		sent += u.Bytes
	}
	lat, err = Evaluate(req, offloaded)
	if err != nil {
		t.Fatal(err)
	}
	if speedup := coldLat.Seconds() / lat.Seconds(); speedup < 2.5 {
		t.Errorf("15%% migration speedup %.2fx, want >= 2.5x", speedup)
	}
}

func TestUploadScheduleMonotoneLatency(t *testing.T) {
	// Following the schedule, latency must never increase.
	req, plan, units := scheduleFor(t, dnn.ModelResNet)
	offloaded := AllClient(plan.Model)
	prev, err := Evaluate(req, offloaded)
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range units {
		for _, id := range u.Layers {
			offloaded[id] = AtServer
		}
		lat, err := Evaluate(req, offloaded)
		if err != nil {
			t.Fatal(err)
		}
		if lat > prev+time.Millisecond {
			t.Errorf("unit %d increased latency: %v -> %v", i, prev, lat)
		}
		prev = lat
	}
	if prev != plan.EstLatency {
		t.Errorf("full schedule latency %v != plan %v", prev, plan.EstLatency)
	}
}

func TestUploadScheduleEmptyForAllClientPlan(t *testing.T) {
	m := dnn.MobileNetV1()
	req := reqFor(t, m, 500)
	plan, err := Partition(req)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumServerLayers() != 0 {
		t.Skip("plan unexpectedly offloads")
	}
	units, err := UploadSchedule(req, plan)
	if err != nil {
		t.Fatal(err)
	}
	if units != nil {
		t.Errorf("expected nil schedule, got %d units", len(units))
	}
}

func TestTruncateSchedule(t *testing.T) {
	units := []UploadUnit{
		{Layers: []dnn.LayerID{0}, Bytes: 100},
		{Layers: []dnn.LayerID{1}, Bytes: 200},
		{Layers: []dnn.LayerID{2}, Bytes: 300},
	}
	if got := TruncateSchedule(units, 0); got != nil {
		t.Errorf("maxBytes=0 returned %v", got)
	}
	if got := TruncateSchedule(units, 99); len(got) != 0 {
		t.Errorf("too-small budget returned %d units", len(got))
	}
	if got := TruncateSchedule(units, 350); len(got) != 2 {
		t.Errorf("350-byte budget returned %d units, want 2", len(got))
	}
	if got := TruncateSchedule(units, 600); len(got) != 3 {
		t.Errorf("600-byte budget returned %d units, want 3", len(got))
	}
	// Only a prefix is ever kept: an oversized first unit blocks a later
	// unit that would fit alone.
	big := []UploadUnit{
		{Layers: []dnn.LayerID{0}, Bytes: 300},
		{Layers: []dnn.LayerID{1}, Bytes: 100},
	}
	if got := TruncateSchedule(big, 150); len(got) != 0 {
		t.Errorf("150-byte budget behind a 300-byte first unit returned %d units, want 0", len(got))
	}
}

// TestScheduleSet: the set holds every layer the units list, sized for the
// model.
func TestScheduleSet(t *testing.T) {
	units := []UploadUnit{
		{Layers: []dnn.LayerID{3, 4}},
		{Layers: []dnn.LayerID{0}},
	}
	if got, want := ScheduleSet(units, 70).AppendIDs(nil), []dnn.LayerID{0, 3, 4}; !slices.Equal(got, want) {
		t.Errorf("ScheduleSet = %v, want %v", got, want)
	}
	if n := ScheduleSet(nil, 70).Count(); n != 0 {
		t.Errorf("empty schedule's set holds %d layers", n)
	}
}

// TestScheduleSplitsRejectsEmptyUnit: a row per unit must be a row per
// upload, so an empty unit is a caller's bug, not a repeated row.
func TestScheduleSplitsRejectsEmptyUnit(t *testing.T) {
	req, _, units := scheduleFor(t, dnn.ModelMobileNet)
	if rows := ScheduleSplits(req.Profile, units); len(rows) != len(units)+1 {
		t.Fatalf("%d rows for %d units", len(rows), len(units))
	}
	defer func() {
		if recover() == nil {
			t.Error("an empty unit did not panic")
		}
	}()
	ScheduleSplits(req.Profile, append(slices.Clip(units), UploadUnit{}))
}

package profile

import (
	"testing"
	"time"

	"perdnn/internal/dnn"
)

func TestDeviceLayerTimePositive(t *testing.T) {
	m := dnn.MobileNetV1()
	d := ClientODROID()
	for i := range m.Layers {
		lt := d.LayerTime(&m.Layers[i])
		if lt <= 0 {
			t.Fatalf("layer %d time %v", i, lt)
		}
		if lt < d.LayerOverhead {
			t.Fatalf("layer %d time %v below overhead", i, lt)
		}
	}
}

func TestDevicePanicsOnBadThroughput(t *testing.T) {
	m := dnn.MobileNetV1()
	d := Device{Name: "bad", GFLOPS: 0, MemGBps: 1, LayerOverhead: time.Millisecond}
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	d.LayerTime(&m.Layers[0])
}

// TestCalibrationAgainstPaper checks the device constants land in the
// latency regimes the paper's Table II implies.
func TestCalibrationAgainstPaper(t *testing.T) {
	client, server := ClientODROID(), ServerTitanXp()

	// MobileNet local: Table II miss case implies ~0.43 s per query.
	mn := dnn.MobileNetV1()
	local := client.ModelTime(mn)
	if local < 300*time.Millisecond || local > 600*time.Millisecond {
		t.Errorf("MobileNet local = %v, want ~0.43s", local)
	}

	// Large models must be slow locally (seconds) and fast on the server
	// (tens of ms) — the offloading motivation.
	for _, build := range []func() *dnn.Model{dnn.Inception21k, dnn.ResNet50} {
		m := build()
		cl, sv := client.ModelTime(m), server.ModelTime(m)
		if cl < time.Second {
			t.Errorf("%s local = %v, want >= 1s", m.Name, cl)
		}
		if sv > 100*time.Millisecond {
			t.Errorf("%s server = %v, want <= 100ms", m.Name, sv)
		}
		if cl < 10*sv {
			t.Errorf("%s speedup %v/%v < 10x", m.Name, cl, sv)
		}
	}
}

func TestModelProfile(t *testing.T) {
	m := dnn.ResNet50()
	p := NewModelProfile(m, ClientODROID(), ServerTitanXp())
	if len(p.ClientTime) != m.NumLayers() || len(p.ServerBase) != m.NumLayers() {
		t.Fatal("profile length mismatch")
	}
	var wantClient, wantServer time.Duration
	for i := range p.ClientTime {
		wantClient += p.ClientTime[i]
		wantServer += p.ServerBase[i]
	}
	if p.TotalClientTime() != wantClient {
		t.Errorf("TotalClientTime = %v, want %v", p.TotalClientTime(), wantClient)
	}
	if p.TotalServerBase() != wantServer {
		t.Errorf("TotalServerBase = %v, want %v", p.TotalServerBase(), wantServer)
	}
}

func TestMemoryBoundLayers(t *testing.T) {
	// An elementwise layer on a huge tensor must be memory-bound: its time
	// should scale with bytes, not its (tiny) FLOP count.
	b := dnn.NewBuilder("m", dnn.Shape{C: 64, H: 256, W: 256})
	r := b.ReLU("r")
	m := b.Build()
	_ = r
	d := ClientODROID()
	lt := d.LayerTime(m.Layer(0))
	bytes := float64(m.Layer(0).In.Bytes() + m.Layer(0).Out.Bytes())
	wantMin := time.Duration(bytes / (d.MemGBps * 1e9) * float64(time.Second))
	if lt < wantMin {
		t.Errorf("relu time %v below memory floor %v", lt, wantMin)
	}
}

package simnet

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"perdnn/internal/geo"
	"perdnn/internal/partition"
	"perdnn/internal/raceguard"
)

// TestBackhaulTransferTime checks the transfer times of the backhaul whose
// traffic the ledger records: a partition.Link, one-way latency RTT/2.
func TestBackhaulTransferTime(t *testing.T) {
	b := partition.Link{UpBps: 8e6, DownBps: 8e6, RTT: 10 * time.Millisecond}
	if got := b.UpTime(1e6); got != time.Second+5*time.Millisecond {
		t.Errorf("UpTime = %v", got)
	}
	if b.UpTime(0) != 0 {
		t.Error("zero bytes should be free")
	}
	d := partition.DefaultBackhaul()
	if got := d.UpTime(125e6); got != time.Second+time.Millisecond {
		t.Errorf("DefaultBackhaul().UpTime(125 MB) = %v, want 1.001s", got)
	}
	if got := d.DownTime(125e6); got != time.Second+time.Millisecond {
		t.Errorf("DefaultBackhaul().DownTime(125 MB) = %v, want 1.001s", got)
	}
}

func TestTrafficAccountValidation(t *testing.T) {
	if _, err := NewTrafficAccount(0); err == nil {
		t.Error("zero interval accepted")
	}
}

func TestTrafficAccountPeaks(t *testing.T) {
	a, err := NewTrafficAccount(20 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := geo.ServerID(1), geo.ServerID(2)
	// Interval 0: s1 sends 10 MB; interval 1: s1 sends 50 MB.
	a.AddUp(s1, 0, 10<<20)
	a.AddUp(s1, 25*time.Second, 50<<20)
	a.AddDown(s2, 25*time.Second, 50<<20)
	a.AddUp(s1, -time.Second, 1) // clamped to slot 0, not a panic

	wantPeak := float64(50<<20) * 8 / 20
	if got := a.peakUpBps(s1); got != wantPeak {
		t.Errorf("peakUpBps = %v, want %v", got, wantPeak)
	}
	if got := a.peakDownBps(s2); got != wantPeak {
		t.Errorf("peakDownBps = %v, want %v", got, wantPeak)
	}
	if id, bps := a.PeakUp(); id != s1 || bps != wantPeak {
		t.Errorf("PeakUp = %v/%v", id, bps)
	}
	if id, _ := a.PeakDown(); id != s2 {
		t.Errorf("PeakDown id = %v", id)
	}
	up, down := a.TotalBytes()
	if up != 10<<20+50<<20+1 || down != 50<<20 {
		t.Errorf("TotalBytes = %d/%d", up, down)
	}
}

func TestTrafficIgnoresNonPositive(t *testing.T) {
	a, _ := NewTrafficAccount(time.Second)
	a.AddUp(1, 0, 0)
	a.AddUp(1, 0, -5)
	a.AddDown(1, 0, 0)
	if up, down := a.TotalBytes(); up != 0 || down != 0 {
		t.Errorf("non-positive bytes recorded: %d/%d", up, down)
	}
	if len(a.activeServers()) != 0 {
		t.Error("phantom active servers")
	}
}

func TestShareUnderBps(t *testing.T) {
	a, _ := NewTrafficAccount(time.Second)
	a.AddUp(1, 0, 100)    // 800 bps
	a.AddUp(2, 0, 1e6)    // 8 Mbps
	a.AddDown(3, 0, 10e6) // 80 Mbps
	if got := a.ShareUnderBps(1e6); got != 1.0/3 {
		t.Errorf("ShareUnderBps(1Mbps) = %v, want 1/3", got)
	}
	if got := a.ShareUnderBps(1e9); got != 1 {
		t.Errorf("ShareUnderBps(1Gbps) = %v, want 1", got)
	}
	empty, _ := NewTrafficAccount(time.Second)
	if empty.ShareUnderBps(1) != 1 {
		t.Error("empty ledger should report 1")
	}
}

func TestTopByPeakUp(t *testing.T) {
	a, _ := NewTrafficAccount(time.Second)
	a.AddUp(1, 0, 100)
	a.AddUp(2, 0, 300)
	a.AddUp(3, 0, 200)
	got := a.TopByPeakUp(2)
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("TopByPeakUp = %v, want [2 3]", got)
	}
	if got := a.TopByPeakUp(99); len(got) != 3 {
		t.Errorf("TopByPeakUp(99) = %v", got)
	}
	// Equal peaks go in ID order, whatever order the servers arrived in.
	a.AddUp(7, 0, 300)
	a.AddUp(0, 0, 300)
	a.AddUp(5, time.Second, 300)
	if got := a.TopByPeakUp(4); !slices.Equal(got, []geo.ServerID{0, 2, 5, 7}) {
		t.Errorf("TopByPeakUp(4) with ties = %v, want [0 2 5 7]", got)
	}
}

// TestPeakTiesLowestID checks that among servers with equal peaks PeakUp
// and PeakDown name the lowest ID, whatever order the bytes arrived in.
func TestPeakTiesLowestID(t *testing.T) {
	a, _ := NewTrafficAccount(time.Second)
	for _, id := range []geo.ServerID{9, 4, 6} {
		a.AddUp(id, 0, 500)
		a.AddDown(id, time.Duration(id)*time.Second, 700)
	}
	a.AddUp(2, 0, 100)
	if id, bps := a.PeakUp(); id != 4 || bps != 4000 {
		t.Errorf("PeakUp = %v/%v, want 4/4000", id, bps)
	}
	if id, bps := a.PeakDown(); id != 4 || bps != 5600 {
		t.Errorf("PeakDown = %v/%v, want 4/5600", id, bps)
	}
}

// allocsPerRowBudget bounds what the ledger allocates per server row. It
// reads 2.81: one slices.Grow to a server's first slot, the doubling
// growth from there to 40 slots, and the table's own growth. The budget
// is that plus a quarter. A row grown one append at a time from slot 0
// reads 7.05.
const allocsPerRowBudget = 3.5

// TestAddAllocsPerRow is the ledger's allocation gate: 200 servers × 40
// slots, each server first seen at a drawn slot and then in every later
// one, as servers join a city run at random times.
func TestAddAllocsPerRow(t *testing.T) {
	if raceguard.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	const servers, slots = 200, 40
	rng := rand.New(rand.NewSource(1))
	first := make([]int, servers)
	for i := range first {
		first[i] = rng.Intn(slots)
	}
	allocs := testing.AllocsPerRun(5, func() {
		a, _ := NewTrafficAccount(time.Second)
		for s := range slots {
			for id, f := range first {
				if f <= s {
					a.AddUp(geo.ServerID(id), time.Duration(s)*time.Second, 1)
				}
			}
		}
	})
	if perRow := (allocs - 1) / servers; perRow > allocsPerRowBudget {
		t.Errorf("%.2f allocations per server row, budget %.1f", perRow, allocsPerRowBudget)
	} else {
		t.Logf("%.2f allocations per server row (budget %.1f)", perRow, allocsPerRowBudget)
	}
}

func TestWriteCSV(t *testing.T) {
	a, _ := NewTrafficAccount(20 * time.Second)
	a.AddUp(2, 0, 100)
	a.AddDown(2, 25*time.Second, 300)
	a.AddUp(1, 25*time.Second, 200)
	var buf strings.Builder
	if err := a.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := "server,interval_start_s,up_bytes,down_bytes\n" +
		"1,20,200,0\n" +
		"2,0,100,0\n" +
		"2,20,0,300\n"
	if got != want {
		t.Errorf("CSV:\n%s\nwant:\n%s", got, want)
	}
}

package simnet

import (
	"strings"
	"testing"
	"time"

	"perdnn/internal/geo"
	"perdnn/internal/partition"
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
	if got := a.PeakUpBps(s1); got != wantPeak {
		t.Errorf("PeakUpBps = %v, want %v", got, wantPeak)
	}
	if got := a.PeakDownBps(s2); got != wantPeak {
		t.Errorf("PeakDownBps = %v, want %v", got, wantPeak)
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
	if len(a.ActiveServers()) != 0 {
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

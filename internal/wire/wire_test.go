package wire

import (
	"context"
	"errors"
	"net"
	"reflect"
	"testing"
	"time"

	"perdnn/internal/dnn"
	"perdnn/internal/geo"
	"perdnn/internal/gpusim"
)

// pipePair returns two connected wire.Conns over an in-memory TCP socket.
func pipePair(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cerr := ln.Close(); cerr != nil {
			t.Logf("close listener: %v", cerr)
		}
	}()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c: c, err: err}
	}()
	client, err := DialContext(context.Background(), ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	server := NewConn(r.c)
	t.Cleanup(func() {
		client.Close() //nolint:errcheck // test teardown
		server.Close() //nolint:errcheck // test teardown
	})
	return client, server
}

func TestEnvelopeRoundTrip(t *testing.T) {
	ctx := context.Background()
	client, server := pipePair(t)
	want := &Envelope{
		Type: MsgRegister,
		Register: &Register{
			ClientID: 42,
			Model:    dnn.ModelInception,
		},
	}
	done := make(chan error, 1)
	go func() {
		got, err := server.RecvContext(ctx)
		if err != nil {
			done <- err
			return
		}
		if got.Type != MsgRegister || got.Register == nil || got.Register.ClientID != 42 {
			t.Errorf("server got %+v", got)
		}
		done <- server.SendContext(ctx, &Envelope{Type: MsgAck, Ack: &Ack{OK: true}})
	}()
	resp, err := client.RoundTripContext(ctx, want)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if resp.Type != MsgAck || resp.Ack == nil || !resp.Ack.OK {
		t.Errorf("client got %+v", resp)
	}
}

func TestEnvelopeCarriesAllBodies(t *testing.T) {
	ctx := context.Background()
	client, server := pipePair(t)
	stats := gpusim.Stats{ActiveClients: 3, KernelUtil: 0.4, MemUtil: 0.2, MemUsedMB: 2100, TempC: 55}
	msgs := []*Envelope{
		{Type: MsgTrajectory, Trajectory: &Trajectory{ClientID: 1, Points: []geo.Point{{X: 1, Y: 2}}}},
		{Type: MsgPlanRequest, PlanReq: &PlanReq{ClientID: 1, Server: 7}},
		{Type: MsgStatsResponse, Stats: &StatsMsg{Sample: &stats}},
		{Type: MsgUploadUnit, Upload: &Upload{ClientID: 1, Layers: []dnn.LayerID{1, 2, 3}, Seq: 2}},
		{Type: MsgExecRequest, ExecReq: &ExecReq{ClientID: 1, ServerBaseNs: 5000, Intensity: 0.3, InputBytes: 100}},
		{Type: MsgExecRequest, ExecReq: &ExecReq{ClientID: 1, ServerBaseNs: 5000, Intensity: 0.3, InputBytes: 100,
			Next: []PlanHop{
				{Server: 2, Addr: "x:2", ServerBaseNs: 700, Intensity: 0.1, InBytes: 64},
				{Server: 3, Addr: "x:3", ServerBaseNs: 900, Intensity: 0.2, InBytes: 32},
			}}},
		{Type: MsgMigrateRequest, Migrate: &Migrate{ClientID: 1, Layers: []dnn.LayerID{4}, PeerAddr: "x:1"}},
		{Type: MsgHasRequest, Has: &Has{ClientID: 1, Layers: []dnn.LayerID{9}}},
	}
	go func() {
		for range msgs {
			got, err := server.RecvContext(ctx)
			if err != nil {
				t.Errorf("server recv: %v", err)
				return
			}
			if err := server.SendContext(ctx, got); err != nil { // echo
				t.Errorf("server send: %v", err)
				return
			}
		}
	}()
	for i, m := range msgs {
		echo, err := client.RoundTripContext(ctx, m)
		if err != nil {
			t.Fatalf("%v: %v", m.Type, err)
		}
		if echo.Type != m.Type {
			t.Errorf("echo type %v, want %v", echo.Type, m.Type)
		}
		// Spot-check payloads survive encoding.
		switch i {
		case 2:
			if echo.Stats == nil || echo.Stats.Sample == nil || echo.Stats.Sample.ActiveClients != 3 {
				t.Errorf("stats payload lost: %+v", echo.Stats)
			}
		case 3:
			if echo.Upload == nil || len(echo.Upload.Layers) != 3 || echo.Upload.Seq != 2 {
				t.Errorf("upload payload lost: %+v", echo.Upload)
			}
		case 4:
			if echo.ExecReq == nil || len(echo.ExecReq.Next) != 0 {
				t.Errorf("single-split exec request grew a chain: %+v", echo.ExecReq)
			}
		case 5:
			if echo.ExecReq == nil || !reflect.DeepEqual(echo.ExecReq.Next, m.ExecReq.Next) {
				t.Errorf("exec request chain tail lost: %+v", echo.ExecReq)
			}
		}
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := DialContext(context.Background(), "127.0.0.1:1"); err == nil {
		t.Error("dial to closed port succeeded")
	}
}

func TestDialContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DialContext(ctx, "127.0.0.1:1"); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestRecvContextDeadline: a read against a silent peer returns promptly
// when the context deadline passes, instead of hanging for the 60 s
// default.
func TestRecvContextDeadline(t *testing.T) {
	client, _ := pipePair(t)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := client.RecvContext(ctx)
	if err == nil {
		t.Fatal("recv from silent peer succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("recv took %v, deadline ignored", elapsed)
	}
}

// TestRecvContextCancelInterrupts: canceling the context mid-read unblocks
// the reader even though no deadline was set.
func TestRecvContextCancelInterrupts(t *testing.T) {
	client, _ := pipePair(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := client.RecvContext(ctx)
	if err == nil {
		t.Fatal("recv from silent peer succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want wrapped context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("recv took %v, cancellation ignored", elapsed)
	}
}

// TestRoundTripContextHappyPath: the context-aware round trip behaves like
// the legacy one when nothing goes wrong.
func TestRoundTripContextHappyPath(t *testing.T) {
	client, server := pipePair(t)
	go func() {
		got, err := server.RecvContext(context.Background())
		if err != nil {
			t.Errorf("server recv: %v", err)
			return
		}
		if err := server.SendContext(context.Background(), got); err != nil {
			t.Errorf("server send: %v", err)
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp, err := client.RoundTripContext(ctx, &Envelope{Type: MsgAck, Ack: &Ack{OK: true}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != MsgAck || resp.Ack == nil || !resp.Ack.OK {
		t.Errorf("echo = %+v", resp)
	}
}

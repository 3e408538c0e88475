package wire

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"perdnn/internal/obs"
)

// countingEchoServer echoes envelopes and counts accepted connections, so
// tests can assert dial reuse. killConns severs every accepted socket
// while leaving the listener up, simulating a peer that dropped its idle
// connections.
type countingEchoServer struct {
	ln      net.Listener
	accepts atomic.Int64

	mu    sync.Mutex
	conns []net.Conn
}

func newCountingEchoServer(t testing.TB) *countingEchoServer {
	t.Helper()
	ctx := context.Background()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &countingEchoServer{ln: ln}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s.accepts.Add(1)
			s.mu.Lock()
			s.conns = append(s.conns, c)
			s.mu.Unlock()
			go func() {
				defer c.Close() //nolint:errcheck // test teardown
				conn := NewConn(c)
				for {
					e, err := conn.RecvContext(ctx)
					if err != nil {
						return
					}
					if err := conn.SendContext(ctx, e); err != nil {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close() //nolint:errcheck // test teardown
		s.killConns()
	})
	return s
}

func (s *countingEchoServer) addr() string { return s.ln.Addr().String() }

func (s *countingEchoServer) killConns() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.conns {
		c.Close() //nolint:errcheck // deliberate kill
	}
	s.conns = nil
}

// TestPoolReusesConnAcrossRoundTrips: sequential exchanges against one
// peer ride a single TCP connection.
func TestPoolReusesConnAcrossRoundTrips(t *testing.T) {
	srv := newCountingEchoServer(t)
	p := NewPool()
	defer p.Close() //nolint:errcheck // test teardown
	ctx := context.Background()
	req := &Envelope{Type: MsgAck, Ack: &Ack{OK: true}}
	for i := 0; i < 5; i++ {
		resp, err := p.RoundTrip(ctx, srv.addr(), req)
		if err != nil {
			t.Fatalf("round trip %d: %v", i, err)
		}
		if resp.Ack == nil || !resp.Ack.OK {
			t.Fatalf("round trip %d: bad echo %+v", i, resp)
		}
	}
	if n := srv.accepts.Load(); n != 1 {
		t.Errorf("server accepted %d conns for 5 round trips, want 1", n)
	}
}

// TestPoolRoundTripResponseIsCallerOwned: the response survives the
// connection re-entering the pool and serving another exchange (it must
// not alias conn scratch).
func TestPoolRoundTripResponseIsCallerOwned(t *testing.T) {
	srv := newCountingEchoServer(t)
	p := NewPool()
	defer p.Close() //nolint:errcheck // test teardown
	ctx := context.Background()
	first, err := p.RoundTrip(ctx, srv.addr(), &Envelope{Type: MsgAck, Ack: &Ack{OK: false, Error: "first"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RoundTrip(ctx, srv.addr(), &Envelope{Type: MsgAck, Ack: &Ack{OK: true, Error: "second"}}); err != nil {
		t.Fatal(err)
	}
	if first.Ack.Error != "first" {
		t.Errorf("first response mutated by later exchange: %+v", first.Ack)
	}
}

// TestPoolRetriesStaleReusedConn: when a peer drops an idle pooled conn,
// the next RoundTrip transparently redials instead of failing.
func TestPoolRetriesStaleReusedConn(t *testing.T) {
	srv := newCountingEchoServer(t)
	p := NewPool()
	defer p.Close() //nolint:errcheck // test teardown
	ctx := context.Background()
	req := &Envelope{Type: MsgAck, Ack: &Ack{OK: true}}
	if _, err := p.RoundTrip(ctx, srv.addr(), req); err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	stale := len(p.idle[srv.addr()]) == 1
	p.mu.Unlock()
	if !stale {
		t.Fatal("expected one idle conn pooled")
	}
	// Sever every accepted socket while the listener stays up: the pooled
	// conn is now dead, so the next RoundTrip must fail over to a fresh
	// dial instead of surfacing the stale conn's error.
	srv.killConns()
	resp, err := p.RoundTrip(ctx, srv.addr(), req)
	if err != nil {
		t.Fatalf("round trip after peer dropped idle conn: %v", err)
	}
	if resp.Ack == nil || !resp.Ack.OK {
		t.Fatalf("bad echo after retry: %+v", resp)
	}
	if n := srv.accepts.Load(); n != 2 {
		t.Errorf("server saw %d accepts, want 2 (original + post-stale redial)", n)
	}
}

// TestPoolDoesNotPoolPoisonedConn: a conn poisoned by a fired context
// cancel is discarded on Put, never handed out again.
func TestPoolDoesNotPoolPoisonedConn(t *testing.T) {
	srv := newCountingEchoServer(t)
	p := NewPool()
	defer p.Close() //nolint:errcheck // test teardown
	conn, reused, err := p.Get(context.Background(), srv.addr())
	if err != nil {
		t.Fatal(err)
	}
	if reused {
		t.Fatal("first Get cannot be a reuse")
	}
	poisonByCancel(t, conn)
	p.Put(conn)
	p.mu.Lock()
	idle := len(p.idle[srv.addr()])
	p.mu.Unlock()
	if idle != 0 {
		t.Errorf("poisoned conn was pooled (%d idle)", idle)
	}
}

// TestCancelPoisonsConn is the satellite regression test: once a watched
// context fires mid-operation, the conn is permanently unusable and every
// later call fails fast with the typed sentinel — callers can no longer
// accidentally read a stale, deadline-poisoned socket.
func TestCancelPoisonsConn(t *testing.T) {
	client := echoPeer(context.Background(), t)
	poisonByCancel(t, client)
	req := &Envelope{Type: MsgAck, Ack: &Ack{OK: true}}
	if err := client.SendContext(context.Background(), req); !errors.Is(err, ErrConnPoisoned) {
		t.Errorf("Send after poison: err = %v, want ErrConnPoisoned", err)
	}
	if _, err := client.RecvContext(context.Background()); !errors.Is(err, ErrConnPoisoned) {
		t.Errorf("Recv after poison: err = %v, want ErrConnPoisoned", err)
	}
	if _, err := client.RoundTripContext(context.Background(), req); !errors.Is(err, ErrConnPoisoned) {
		t.Errorf("RoundTrip after poison: err = %v, want ErrConnPoisoned", err)
	}
}

// poisonByCancel blocks conn in a Recv with no inbound data and fires a
// bare cancel mid-read — the scenario the poison mechanism exists for —
// then asserts the conn recorded it. The context deliberately carries no
// deadline: the only thing that can wake the blocked read is the
// watcher's deadline poke, so a non-poisoned return proves the bug.
func poisonByCancel(t *testing.T, conn *Conn) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond) // let RecvContext reach the blocking read
		cancel()
	}()
	if _, err := conn.RecvContext(ctx); err == nil {
		t.Fatal("recv with mid-read cancel succeeded")
	}
	if !conn.Poisoned() {
		t.Fatal("mid-read cancel did not poison the conn")
	}
}

// TestPoolClose: Close drains idles and later Gets fail.
func TestPoolClose(t *testing.T) {
	srv := newCountingEchoServer(t)
	p := NewPool()
	if _, err := p.RoundTrip(context.Background(), srv.addr(), &Envelope{Type: MsgAck, Ack: &Ack{OK: true}}); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Get(context.Background(), srv.addr()); err == nil {
		t.Error("Get after Close succeeded")
	}
	// Put after Close must close, not leak or pool, the conn.
	raw, err := DialContext(context.Background(), srv.addr())
	if err != nil {
		t.Fatal(err)
	}
	p.Put(raw)
	if p.idle != nil && len(p.idle[srv.addr()]) != 0 {
		t.Error("Put after Close pooled a conn")
	}
}

// TestPoolStats: the registry's <role>_pool_* counters classify every
// connection event — dials, reuse hits, stale drops, evictions, and retries.
func TestPoolStats(t *testing.T) {
	srv := newCountingEchoServer(t)
	reg := obs.NewRegistry()
	p := NewRegisteredPool(reg, "peer")
	defer p.Close() //nolint:errcheck // test teardown
	ctx := context.Background()
	req := &Envelope{Type: MsgAck, Ack: &Ack{OK: true}}
	counts := func() map[string]int64 { return reg.Snapshot().Counters }

	// Fresh dial, then a reuse hit.
	for i := 0; i < 2; i++ {
		if _, err := p.RoundTrip(ctx, srv.addr(), req); err != nil {
			t.Fatal(err)
		}
	}
	st := counts()
	if st["peer_pool_dials_total"] != 1 || st["peer_pool_reuse_hits_total"] != 1 {
		t.Fatalf("after dial+reuse: %v, want dials 1, reuse hits 1", st)
	}

	// Kill the pooled conn server-side: the next exchange reuses it,
	// fails, and retries on a fresh dial.
	srv.killConns()
	if _, err := p.RoundTrip(ctx, srv.addr(), req); err != nil {
		t.Fatal(err)
	}
	st = counts()
	if st["peer_pool_retries_total"] != 1 || st["peer_pool_reuse_hits_total"] != 2 || st["peer_pool_dials_total"] != 2 {
		t.Fatalf("after retry: %v, want retries 1, reuse hits 2, dials 2", st)
	}

	// Overflow the idle list: a second healthy Put beyond the per-address
	// cap is an eviction.
	p.maxIdlePerAddr = 1
	c1, _, err := p.Get(ctx, srv.addr())
	if err != nil {
		t.Fatal(err)
	}
	c2, _, err := p.Get(ctx, srv.addr())
	if err != nil {
		t.Fatal(err)
	}
	p.Put(c1)
	p.Put(c2)
	if st = counts(); st["peer_pool_evictions_total"] != 1 {
		t.Fatalf("after overflow put: %v, want evictions 1", st)
	}

	// Age the idle conn past the idle timeout: the next Get drops it as
	// stale and dials fresh.
	p.idleTimeout = time.Nanosecond
	time.Sleep(time.Millisecond)
	c3, reused, err := p.Get(ctx, srv.addr())
	if err != nil {
		t.Fatal(err)
	}
	if reused {
		t.Fatal("Get reused a conn idle past the timeout")
	}
	p.Put(c3)
	if st = counts(); st["peer_pool_stale_drops_total"] != 1 {
		t.Fatalf("after stale drop: %v, want stale drops 1", st)
	}
}

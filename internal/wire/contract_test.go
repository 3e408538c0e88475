package wire

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// The cancellation and deadline contracts of Conn and Server (DESIGN.md
// §12.4, §12.7). Every wait below is on an event — a hook on the client's
// socket, a channel the peer closes — and bounded by waitBound, so a lost
// wake-up fails the test instead of hanging it for a socket timeout.
const waitBound = 10 * time.Second

// hookConn is the client's socket with its deadline calls counted and hooks
// at the points a cancellation can land.
type hookConn struct {
	net.Conn
	readArms, writeArms atomic.Int64 // SetReadDeadline / SetWriteDeadline calls
	lastRead, lastWrite time.Time    // their latest arguments

	onRead     func() // as a Read is entered
	afterWrite func() // once a Write has returned
	onForce    func() // once SetDeadline — only the cancel watcher calls it — has returned
}

func (h *hookConn) Read(p []byte) (int, error) {
	if h.onRead != nil {
		h.onRead()
	}
	return h.Conn.Read(p)
}

func (h *hookConn) Write(p []byte) (int, error) {
	n, err := h.Conn.Write(p)
	if h.afterWrite != nil {
		h.afterWrite()
	}
	return n, err
}

func (h *hookConn) SetReadDeadline(t time.Time) error {
	h.readArms.Add(1)
	h.lastRead = t
	return h.Conn.SetReadDeadline(t)
}

func (h *hookConn) SetWriteDeadline(t time.Time) error {
	h.writeArms.Add(1)
	h.lastWrite = t
	return h.Conn.SetWriteDeadline(t)
}

func (h *hookConn) SetDeadline(t time.Time) error {
	err := h.Conn.SetDeadline(t)
	if h.onForce != nil {
		h.onForce()
	}
	return err
}

func (h *hookConn) arms() (read, write int64) { return h.readArms.Load(), h.writeArms.Load() }

// hookedPair returns a client Conn over a hookConn and the raw peer socket.
func hookedPair(t *testing.T) (*Conn, *hookConn, net.Conn) {
	t.Helper()
	raw, peer := tcpPair(t)
	h := &hookConn{Conn: raw}
	return NewConn(h), h, peer
}

// hookedEcho is hookedPair with the peer echoing every envelope.
func hookedEcho(t *testing.T) (*Conn, *hookConn) {
	t.Helper()
	client, h, raw := hookedPair(t)
	go echo(context.Background(), NewConn(raw))
	return client, h
}

var ackReq = &Envelope{Type: MsgAck, Ack: &Ack{OK: true}}

// roundTripInterrupted runs one RoundTripContext that a hook is about to
// cancel and checks the three things a mid-operation cancel owes its
// caller: a prompt return, context.Canceled in the chain, a poisoned Conn.
func roundTripInterrupted(t *testing.T, client *Conn, ctx context.Context) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := client.RoundTripContext(ctx, ackReq)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want wrapping context.Canceled", err)
		}
	case <-time.After(waitBound):
		t.Fatal("canceled round trip still blocked")
	}
	if !client.Poisoned() {
		t.Error("mid-operation cancel left the conn unpoisoned")
	}
	if err := client.SendContext(context.Background(), ackReq); !errors.Is(err, ErrConnPoisoned) {
		t.Errorf("send after the cancel: err = %v, want ErrConnPoisoned", err)
	}
}

// TestRoundTripCancelInReceiveHalf: the request is out, the peer never
// answers, and the cancel arrives once the client has entered its read.
func TestRoundTripCancelInReceiveHalf(t *testing.T) {
	client, h, _ := hookedPair(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h.onRead = cancel
	roundTripInterrupted(t, client, ctx)
}

// TestRoundTripCancelBetweenHalves: the cancel lands — and its watcher has
// run to completion — after the request was written and before the receive
// half arms its deadline. The receive must not overwrite the forced
// deadline and sit out the 60 s fallback; and the conn is poisoned, because
// the peer holds a request whose reply would arrive on this stream.
func TestRoundTripCancelBetweenHalves(t *testing.T) {
	client, h, _ := hookedPair(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	forced := make(chan struct{})
	h.onForce = func() { close(forced) }
	h.afterWrite = func() {
		cancel()
		<-forced
	}
	roundTripInterrupted(t, client, ctx)
}

// TestDoneContextLeavesConnPoolable: a context that is done before the
// operation starts touches nothing, so the conn stays healthy, goes back
// into a pool and serves the next exchange.
func TestDoneContextLeavesConnPoolable(t *testing.T) {
	srv := newCountingEchoServer(t)
	p := NewPool()
	defer p.Close() //nolint:errcheck // test teardown
	conn, _, err := p.Get(context.Background(), srv.addr())
	if err != nil {
		t.Fatal(err)
	}
	done, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := conn.RoundTripContext(done, ackReq); !errors.Is(err, context.Canceled) {
		t.Fatalf("round trip on a done context: err = %v, want context.Canceled", err)
	}
	if err := conn.SendContext(done, ackReq); !errors.Is(err, context.Canceled) {
		t.Errorf("send on a done context: err = %v, want context.Canceled", err)
	}
	if _, err := conn.RecvContext(done); !errors.Is(err, context.Canceled) {
		t.Errorf("recv on a done context: err = %v, want context.Canceled", err)
	}
	if conn.Poisoned() {
		t.Fatal("a pre-fired context poisoned the conn")
	}
	p.Put(conn)
	again, reused, err := p.Get(context.Background(), srv.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Put(again)
	if !reused || again != conn {
		t.Error("healthy conn was not pooled")
	}
	if _, err := again.RoundTripContext(context.Background(), ackReq); err != nil {
		t.Errorf("round trip after the refused ones: %v", err)
	}
}

// TestPoolKeepsConnCanceledAfterRoundTrip: the usual caller shape —
// WithTimeout, round trip, cancel — must not cost the connection. The
// watcher's scope ends with RoundTripContext; a cancel after it is not a
// mid-operation cancel.
func TestPoolKeepsConnCanceledAfterRoundTrip(t *testing.T) {
	srv := newCountingEchoServer(t)
	p := NewPool()
	defer p.Close() //nolint:errcheck // test teardown
	for i := 0; i < 3; i++ {
		conn, reused, err := p.Get(context.Background(), srv.addr())
		if err != nil {
			t.Fatal(err)
		}
		if reused != (i > 0) {
			t.Errorf("exchange %d: reused = %v", i, reused)
		}
		ctx, cancel := context.WithTimeout(context.Background(), waitBound)
		if _, err := conn.RoundTripContext(ctx, ackReq); err != nil {
			t.Fatal(err)
		}
		cancel()
		if conn.Poisoned() {
			t.Fatalf("exchange %d: cancel after the round trip returned poisoned the conn", i)
		}
		p.Put(conn)
	}
	if n := srv.accepts.Load(); n != 1 {
		t.Errorf("%d dials for 3 exchanges, want 1", n)
	}
}

// blockingServer serves ln under ctx with a wire.Server whose dispatch
// echoes every request — after, for a MsgStatsRequest, reporting on entered
// and waiting for its context. served yields ServeContext's result; closed
// counts connections fully torn down.
func blockingServer(ctx context.Context, ln net.Listener) (served <-chan error, entered <-chan struct{}, closed *atomic.Int64) {
	srv, in, n := &Server{Name: "test", Log: discardLog}, make(chan struct{}, 1), new(atomic.Int64)
	srv.Open = func() (Dispatch, func()) {
		return func(ctx context.Context, req *Envelope) *Envelope {
			if req.Type == MsgStatsRequest {
				in <- struct{}{}
				<-ctx.Done()
			}
			return req
		}, func() { n.Add(1) }
	}
	done := make(chan error, 1)
	go func() { done <- srv.ServeContext(ctx, ln) }()
	return done, in, n
}

// TestServeContextCancelDrainsHandlers: canceling the serve context ends a
// handler idling in its receive and one inside its dispatch; ServeContext
// returns only after both are gone. The serve loop holds one cancel watcher
// per connection — with none, the idle handler would sit out its 60 s read.
func TestServeContextCancelDrainsHandlers(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served, entered, closed := blockingServer(ctx, ln)

	idle, err := DialContext(context.Background(), ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close() //nolint:errcheck // test teardown
	// One exchange proves the handler is up; it then idles in recv.
	if _, err := idle.RoundTripContext(context.Background(), ackReq); err != nil {
		t.Fatal(err)
	}
	busy, err := DialContext(context.Background(), ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close() //nolint:errcheck // test teardown
	if err := busy.SendContext(context.Background(), &Envelope{Type: MsgStatsRequest, Stats: &StatsMsg{}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(waitBound):
		t.Fatal("dispatch never ran")
	}

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Errorf("ServeContext: %v", err)
		}
	case <-time.After(waitBound):
		t.Fatal("ServeContext still running after its context was canceled")
	}
	if n := closed.Load(); n != 2 {
		t.Errorf("ServeContext returned with %d of 2 handlers torn down", n)
	}
}

// TestDeadlineArmedOnSlack: on a deadline-free context the fallback
// deadlines are set once and then left alone until they are deadlineSlack
// stale; a context deadline is set exactly, every time.
func TestDeadlineArmedOnSlack(t *testing.T) {
	client, h := hookedEcho(t)
	bg := context.Background()
	roundTrip := func(ctx context.Context) {
		t.Helper()
		if _, err := client.RoundTripContext(ctx, ackReq); err != nil {
			t.Fatal(err)
		}
	}
	wantArms := func(when string, read, write int64) {
		t.Helper()
		if r, w := h.arms(); r != read || w != write {
			t.Errorf("%s: %d read / %d write deadline calls, want %d / %d", when, r, w, read, write)
		}
	}

	before := time.Now()
	roundTrip(bg)
	wantArms("first exchange", 1, 1)
	if d := h.lastRead.Sub(before); d < DefaultRecvTimeout || d > DefaultRecvTimeout+waitBound {
		t.Errorf("read deadline %v ahead, want %v", d, DefaultRecvTimeout)
	}
	if d := h.lastWrite.Sub(before); d < DefaultSendTimeout || d > DefaultSendTimeout+waitBound {
		t.Errorf("write deadline %v ahead, want %v", d, DefaultSendTimeout)
	}
	for i := 0; i < 5; i++ {
		roundTrip(bg)
	}
	wantArms("exchanges inside the slack", 1, 1)

	// Age the armed deadlines instead of sleeping out the slack.
	client.rdl = client.rdl.Add(-deadlineSlack)
	client.wdl = client.wdl.Add(-deadlineSlack)
	roundTrip(bg)
	wantArms("exchange past the slack", 2, 2)

	// A context deadline inside the fallback: armed to the nanosecond on
	// every operation, however recently the last one armed.
	ctx, cancel := context.WithTimeout(bg, waitBound)
	defer cancel()
	dl, _ := ctx.Deadline()
	roundTrip(ctx)
	roundTrip(ctx)
	wantArms("two exchanges under a context deadline", 4, 4)
	if !h.lastRead.Equal(dl) || !h.lastWrite.Equal(dl) {
		t.Errorf("armed read %v / write %v, want the context's %v", h.lastRead, h.lastWrite, dl)
	}
	// Back on a deadline-free context the short deadline must not linger.
	roundTrip(bg)
	wantArms("deadline-free exchange after a context deadline", 5, 5)
}

// TestSocketTimeoutLeavesConnHealthy: a read that runs into the socket
// deadline — the fallback an earlier operation armed — fails without
// poisoning, and the next receive arms a fresh deadline and succeeds.
func TestSocketTimeoutLeavesConnHealthy(t *testing.T) {
	client, h, raw := hookedPair(t)
	peer := NewConn(raw)
	bg := context.Background()
	// As if a receive a moment ago had armed the fallback, except that the
	// socket's copy is about to expire.
	if err := h.Conn.SetReadDeadline(time.Now().Add(20 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	client.rdl = time.Now().Add(DefaultRecvTimeout)

	_, err := client.RecvContext(bg)
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("recv from a silent peer: err = %v, want a socket timeout", err)
	}
	if r, _ := h.arms(); r != 0 {
		t.Fatalf("recv inside the slack set %d read deadlines, want 0", r)
	}
	if client.Poisoned() {
		t.Fatal("socket timeout poisoned the conn")
	}

	if err := peer.SendContext(bg, ackReq); err != nil {
		t.Fatal(err)
	}
	got, err := client.RecvContext(bg)
	if err != nil {
		t.Fatalf("recv after the timeout: %v", err)
	}
	if got.Type != MsgAck {
		t.Errorf("got %v, want MsgAck", got.Type)
	}
	if r, _ := h.arms(); r != 1 {
		t.Errorf("recv after the timeout set %d read deadlines, want 1", r)
	}
}

package mobile_test

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"perdnn/internal/core"
	"perdnn/internal/dnn"
	"perdnn/internal/geo"
	"perdnn/internal/livetest"
	"perdnn/internal/mobile"
)

// quietLogger discards client log output so sabotage tests don't spam.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 1}))
}

// flakyProxy is a TCP proxy the tests can sabotage. It forwards wire
// frames between client and backend; KillActive severs every live
// connection (an edge daemon crash mid-exchange), armAfter schedules that
// kill after exactly N more complete client→server frames, and Close
// additionally stops accepting (the daemon never comes back).
// Frame-granular kills keep the scenario clean: the backend never sees a
// truncated frame, so every forwarded upload unit demonstrably landed.
// After a kill the proxy keeps accepting, so the client's
// reconnect-and-resume path gets a live, from then on transparent, route.
type flakyProxy struct {
	ln      net.Listener
	backend string

	// remaining counts armed client→server frames; large when disarmed,
	// the kill fires on the transition to 0.
	remaining atomic.Int64

	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

func newFlakyProxy(t *testing.T, backend string) *flakyProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &flakyProxy{ln: ln, backend: backend, conns: make(map[net.Conn]struct{})}
	p.remaining.Store(1 << 40) // disarmed
	go p.serve()
	t.Cleanup(p.Close)
	return p
}

func (p *flakyProxy) Addr() string { return p.ln.Addr().String() }

// armAfter schedules the kill: sever everything once n more complete
// client→server frames have been forwarded.
func (p *flakyProxy) armAfter(n int64) { p.remaining.Store(n) }

func (p *flakyProxy) serve() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		b, err := net.Dial("tcp", p.backend)
		if err != nil {
			_ = c.Close()
			continue
		}
		p.mu.Lock()
		p.conns[c] = struct{}{}
		p.conns[b] = struct{}{}
		p.mu.Unlock()
		go p.pipeFrames(b, c) // client → server, frame-parsed and counted
		go func() {           // server → client, transparent
			_, _ = io.Copy(c, b)
			p.drop(c)
			p.drop(b)
		}()
	}
}

// pipeFrames forwards src's bytes to dst one wire frame at a time (6-byte
// header, big-endian length), decrementing the armed counter per frame and
// killing every connection when it hits zero. When it ends it severs both
// sides, so a backend close propagates to the client and vice versa.
func (p *flakyProxy) pipeFrames(dst, src net.Conn) {
	br := bufio.NewReader(src)
	var hdr [6]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			break
		}
		n := binary.BigEndian.Uint32(hdr[2:6])
		frame := make([]byte, 6+int(n))
		copy(frame, hdr[:])
		if _, err := io.ReadFull(br, frame[6:]); err != nil {
			break
		}
		if _, err := dst.Write(frame); err != nil {
			break
		}
		if p.remaining.Add(-1) == 0 {
			p.KillActive()
			break
		}
	}
	p.drop(dst)
	p.drop(src)
}

func (p *flakyProxy) drop(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
	_ = c.Close()
}

// KillActive severs every in-flight connection; the proxy keeps accepting,
// so reconnects succeed.
func (p *flakyProxy) KillActive() {
	p.mu.Lock()
	conns := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.conns = make(map[net.Conn]struct{})
	p.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
}

// Close stops the proxy for good: no new connections, all live ones cut.
func (p *flakyProxy) Close() {
	_ = p.ln.Close()
	p.KillActive()
}

// fastRetry is a test-friendly policy: real backoff shape, millisecond
// scale.
func fastRetry() *core.RetryPolicy {
	return &core.RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   time.Millisecond,
		MaxDelay:    5 * time.Millisecond,
		Multiplier:  2,
		Jitter:      0.5,
		Seed:        1,
		Budget:      2 * time.Second,
	}
}

func dialFastClient(t *testing.T, masterAddr string) *mobile.Client {
	t.Helper()
	client, err := mobile.DialContext(context.Background(), mobile.Config{
		ID:         42,
		Model:      dnn.ModelMobileNet,
		MasterAddr: masterAddr,
		TimeScale:  0.0005,
		Retry:      fastRetry(),
		Logger:     quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cerr := client.Close(); cerr != nil {
			t.Logf("closing client: %v", cerr)
		}
	})
	return client
}

func uploadAll(t *testing.T, client *mobile.Client) {
	t.Helper()
	for steps := 0; ; steps++ {
		more, err := client.UploadStepContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			return
		}
		if steps > 1000 {
			t.Fatal("upload did not terminate")
		}
	}
}

// TestReconnectAndResumeMidUpload kills the client<->edged connection in
// the middle of an incremental upload and asserts the client transparently
// redials, resyncs the edge's surviving cache, and finishes the upload
// without starting over.
func TestReconnectAndResumeMidUpload(t *testing.T) {
	ctx := context.Background()
	c := twoEdges.start(t)
	proxy := newFlakyProxy(t, c.edges[0].Addr)
	client := dialFastClient(t, c.addr)

	serverA := c.m.Placement().ServerAt(c.edges[0].Location)
	if serverA == geo.NoServer {
		t.Fatal("no cell for edge A")
	}
	if err := client.ConnectContext(ctx, serverA, proxy.Addr()); err != nil {
		t.Fatal(err)
	}
	_, total := client.CacheState()
	if total < 2 {
		t.Fatalf("plan too small to interrupt: %d server layers", total)
	}

	// First unit lands, then the "daemon" crashes the connection.
	if more, err := client.UploadStepContext(ctx); err != nil || !more {
		t.Fatalf("first upload step: more=%v err=%v", more, err)
	}
	preKill, _ := client.CacheState()
	if preKill == 0 {
		t.Fatal("first upload step cached nothing")
	}
	proxy.KillActive()

	// The next step must ride the retry policy: redial, resync, resume.
	uploadAll(t, client)
	if present, tot := client.CacheState(); present != tot {
		t.Fatalf("resume incomplete: %d/%d", present, tot)
	}
	if n := client.Metrics().Counter("reconnects_total").Value(); n < 1 {
		t.Errorf("reconnects_total = %d, want >= 1", n)
	}
	if n := client.Metrics().Counter("edge_retries_total").Value(); n < 1 {
		t.Errorf("edge_retries_total = %d, want >= 1", n)
	}

	// The resynced cache must have kept the pre-kill layers: resume, not
	// restart. (The edged cache survived; only the conn died.)
	if resumed, _ := client.CacheState(); resumed < preKill {
		t.Errorf("cache shrank across reconnect: %d < %d", resumed, preKill)
	}

	// And a query offloads normally again.
	if _, err := client.QueryContext(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestDeadEdgeDegradesToLocalFallback takes the edge down for good
// mid-session: the query must not hang, must retry with backoff, and must
// return a usable client-local latency wrapped with core.ErrLocalFallback.
func TestDeadEdgeDegradesToLocalFallback(t *testing.T) {
	ctx := context.Background()
	c := twoEdges.start(t)
	proxy := newFlakyProxy(t, c.edges[0].Addr)
	client := dialFastClient(t, c.addr)

	serverA := c.m.Placement().ServerAt(c.edges[0].Location)
	if err := client.ConnectContext(ctx, serverA, proxy.Addr()); err != nil {
		t.Fatal(err)
	}
	uploadAll(t, client)

	// A healthy offloaded query first, to prove the plan offloads.
	if _, err := client.QueryContext(ctx); err != nil {
		t.Fatal(err)
	}

	proxy.Close() // the edge never comes back

	start := time.Now()
	lat, err := client.QueryContext(ctx)
	if err == nil {
		t.Fatal("query against a dead edge returned no error")
	}
	if !errors.Is(err, core.ErrLocalFallback) {
		t.Errorf("err = %v, want wrapping ErrLocalFallback", err)
	}
	if !errors.Is(err, core.ErrServerDown) {
		t.Errorf("err = %v, want wrapping ErrServerDown", err)
	}
	if !errors.Is(err, core.ErrRetryBudgetExhausted) {
		t.Errorf("err = %v, want wrapping ErrRetryBudgetExhausted", err)
	}
	if lat <= 0 {
		t.Errorf("degraded query latency %v, want > 0", lat)
	}
	if wall := time.Since(start); wall > 30*time.Second {
		t.Errorf("degraded query took %v; retry budget not honored", wall)
	}
	if n := client.Metrics().Counter("local_fallbacks_total").Value(); n != 1 {
		t.Errorf("local_fallbacks_total = %d, want 1", n)
	}
}

// TestQueryContextCancelBeatsFallback: an expired context aborts the query
// instead of burning the fallback path — callers who canceled don't want a
// degraded answer.
func TestQueryContextCancelBeatsFallback(t *testing.T) {
	c := twoEdges.start(t)
	proxy := newFlakyProxy(t, c.edges[0].Addr)
	client := dialFastClient(t, c.addr)

	if err := client.ConnectContext(context.Background(), c.m.Placement().ServerAt(c.edges[0].Location), proxy.Addr()); err != nil {
		t.Fatal(err)
	}
	uploadAll(t, client)
	proxy.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := client.QueryContext(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if n := client.Metrics().Counter("local_fallbacks_total").Value(); n != 0 {
		t.Errorf("local_fallbacks_total = %d after cancel, want 0", n)
	}
}

// TestDialMasterRetryExhausted: an unreachable master fails fast with both
// typed sentinels rather than hanging.
func TestDialMasterRetryExhausted(t *testing.T) {
	_, err := mobile.DialContext(context.Background(), mobile.Config{
		ID:         1,
		Model:      dnn.ModelMobileNet,
		MasterAddr: livetest.DeadAddr(t),
		Retry:      fastRetry(),
		Logger:     quietLogger(),
	})
	if err == nil {
		t.Fatal("dial of a dead master succeeded")
	}
	if !errors.Is(err, core.ErrMasterDown) {
		t.Errorf("err = %v, want wrapping ErrMasterDown", err)
	}
	if !errors.Is(err, core.ErrRetryBudgetExhausted) {
		t.Errorf("err = %v, want wrapping ErrRetryBudgetExhausted", err)
	}
}

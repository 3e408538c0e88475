package wire

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"perdnn/internal/dnn"
	"perdnn/internal/geo"
	"perdnn/internal/gpusim"
	"perdnn/internal/obs/tracing"
	"perdnn/internal/raceguard"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// goldenEnvelopes is the fixed corpus pinning the wire format: one
// envelope per message type (plus nil-body and edge-value variants). Any
// codec change that alters these bytes breaks old peers and must bump
// ProtoVersion.
func goldenEnvelopes() []struct {
	name string
	env  *Envelope
} {
	return []struct {
		name string
		env  *Envelope
	}{
		{"register", &Envelope{Type: MsgRegister, Register: &Register{ClientID: 42, Model: dnn.ModelInception}}},
		{"trajectory", &Envelope{Type: MsgTrajectory, Trajectory: &Trajectory{
			ClientID: 7, Points: []geo.Point{{X: 1.5, Y: -2.25}, {X: 0, Y: 3e5}}}}},
		{"plan-request", &Envelope{Type: MsgPlanRequest, PlanReq: &PlanReq{ClientID: 7, Server: 3}}},
		{"plan-response", &Envelope{Type: MsgPlanResponse, PlanResp: &PlanResp{
			ServerLayers: []dnn.LayerID{4, 5, 6},
			UploadOrder:  [][]dnn.LayerID{{5, 6}, {4}},
			Slowdown:     1.75,
			EstLatencyNs: 12345678,
		}}},
		{"stats-request", &Envelope{Type: MsgStatsRequest}},
		{"stats-response", &Envelope{Type: MsgStatsResponse, Stats: &StatsMsg{Sample: &gpusim.Stats{
			ActiveClients: 3, KernelUtil: 0.4, MemUtil: 0.2, MemUsedMB: 2100, TempC: 55}}}},
		{"migrate", &Envelope{Type: MsgMigrateRequest, Migrate: &Migrate{
			ClientID: 9, Layers: []dnn.LayerID{0, 2}, PeerAddr: "10.0.0.2:7101"}}},
		{"upload-unit", &Envelope{Type: MsgUploadUnit, Upload: &Upload{
			ClientID: 9, Layers: []dnn.LayerID{11}, Seq: 5}}},
		{"upload-ack", &Envelope{Type: MsgUploadAck, Ack: &Ack{OK: true, Seq: 5}}},
		{"exec-request", &Envelope{Type: MsgExecRequest, ExecReq: &ExecReq{
			ClientID: 9, ServerBaseNs: 5000, Intensity: 0.3, InputBytes: 100}}},
		{"exec-response", &Envelope{Type: MsgExecResponse, ExecResp: &ExecResp{ExecNs: 7777}}},
		{"has-request", &Envelope{Type: MsgHasRequest, Has: &Has{ClientID: 9, Layers: []dnn.LayerID{1, 9}}}},
		{"has-response", &Envelope{Type: MsgHasResponse, Has: &Has{ClientID: 9, Layers: []dnn.LayerID{9}}}},
		{"ack-ok", &Envelope{Type: MsgAck, Ack: &Ack{OK: true}}},
		{"ack-error", &Envelope{Type: MsgAck, Ack: &Ack{OK: false, Error: "edged: upload without body"}}},
		{"register-nil-body", &Envelope{Type: MsgRegister}},
		{"stats-nil-sample", &Envelope{Type: MsgStatsResponse, Stats: &StatsMsg{}}},
		// Traced variants: the optional trace tail after the body. New
		// entries append (the untraced lines above must stay byte-stable —
		// absent tail is the pre-tracing format).
		{"exec-request-traced", &Envelope{Type: MsgExecRequest,
			Trace:   tracing.SpanContext{Trace: 77, Span: 1234},
			ExecReq: &ExecReq{ClientID: 9, ServerBaseNs: 5000, Intensity: 0.3, InputBytes: 100}}},
		{"upload-unit-traced", &Envelope{Type: MsgUploadUnit,
			Trace:  tracing.SpanContext{Trace: 1, Span: 2},
			Upload: &Upload{ClientID: 9, Layers: []dnn.LayerID{11}, Seq: 5}}},
		{"register-traced-nil-body", &Envelope{Type: MsgRegister,
			Trace: tracing.SpanContext{Trace: 1 << 40, Span: 3}}},
		// v3 additions: multi-hop chains. The plan-response chain tail is
		// part of the version-3 format.
		{"plan-response-chain", &Envelope{Type: MsgPlanResponse, PlanResp: &PlanResp{
			ServerLayers: []dnn.LayerID{0, 1, 2, 3},
			UploadOrder:  [][]dnn.LayerID{{0, 1}, {2, 3}},
			Slowdown:     2.5,
			EstLatencyNs: 98765432,
			Chain: []PlanHop{
				{Server: 1, Addr: "10.0.0.2:7101", ServerBaseNs: 4_000_000, Intensity: 0.4, InBytes: 150528},
				{Server: 3, Addr: "10.0.0.4:7101", ServerBaseNs: 6_500_000, Intensity: 0.2, InBytes: 40000},
			},
			ChainDownBytes:    4000,
			ChainClientPreNs:  2_000_000,
			ChainClientPostNs: 500_000,
		}}},
		// v4 additions: sharded control plane. Master-to-master client
		// ownership handoff and its master-to-client redirect form.
		{"shard-handoff", &Envelope{Type: MsgShardHandoff, Handoff: &ShardHandoff{
			ClientID: 7, Model: dnn.ModelMobileNet, FromShard: 0, ToShard: 2,
			Addr:    "10.0.0.12:7001",
			History: []geo.Point{{X: 120, Y: 80}, {X: 140, Y: 85}}}}},
		{"shard-handoff-redirect", &Envelope{Type: MsgShardHandoff, Handoff: &ShardHandoff{
			ClientID: 7, Model: dnn.ModelMobileNet, FromShard: 0, ToShard: 2,
			Addr: "10.0.0.12:7001"}}},
		{"shard-handoff-traced", &Envelope{Type: MsgShardHandoff,
			Trace: tracing.SpanContext{Trace: 11, Span: 22},
			Handoff: &ShardHandoff{ClientID: 3, Model: dnn.ModelResNet, FromShard: 1, ToShard: 0,
				Addr: "10.0.0.11:7001", History: []geo.Point{{X: -5, Y: 2.5}}}}},
		{"shard-handoff-nil-body", &Envelope{Type: MsgShardHandoff}},
		// v5: a migration order carries no byte cap, and the master's
		// orders carry the span context of the order's trace.
		{"migrate-traced", &Envelope{Type: MsgMigrateRequest,
			Trace:   tracing.SpanContext{Trace: 12, Span: 34},
			Migrate: &Migrate{ClientID: 7, Layers: []dnn.LayerID{3, 4, 5}, PeerAddr: "10.0.0.5:7101"}}},
		{"migrate-nil-body", &Envelope{Type: MsgMigrateRequest}},
		// v6: a chain stage is an ExecReq whose Next is the rest of the
		// chain (the exec-request entries above carry an empty Next).
		{"exec-request-chain", &Envelope{Type: MsgExecRequest, ExecReq: &ExecReq{
			ClientID: 9, ServerBaseNs: 4_000_000, Intensity: 0.4, InputBytes: 150528,
			Next: []PlanHop{
				{Server: 3, Addr: "10.0.0.4:7101", ServerBaseNs: 6_500_000, Intensity: 0.2, InBytes: 40000},
				{Server: 5, Addr: "10.0.0.6:7101", ServerBaseNs: 1_500_000, Intensity: 0.3, InBytes: 8000},
			}}}},
		{"exec-request-chain-traced", &Envelope{Type: MsgExecRequest,
			Trace: tracing.SpanContext{Trace: 99, Span: 4321},
			ExecReq: &ExecReq{ClientID: 9, ServerBaseNs: 1000, Intensity: 0.1, InputBytes: 64,
				Next: []PlanHop{{Server: 2, Addr: "127.0.0.1:7102", ServerBaseNs: 1000, Intensity: 0.1, InBytes: 64}}}}},
	}
}

const goldenPath = "testdata/frames.golden"

// TestGoldenFrames pins the v2 frame bytes: encoding the corpus must
// reproduce the checked-in fixtures exactly (run with -update to
// regenerate after an intentional, version-bumping format change), and
// decoding the fixtures must reproduce the corpus.
func TestGoldenFrames(t *testing.T) {
	var sb strings.Builder
	for _, g := range goldenEnvelopes() {
		frame, err := appendFrame(nil, g.env)
		if err != nil {
			t.Fatalf("%s: encode: %v", g.name, err)
		}
		fmt.Fprintf(&sb, "%s %s\n", g.name, hex.EncodeToString(frame))
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if got := sb.String(); got != string(want) {
		t.Errorf("wire format drifted from %s:\ngot:\n%swant:\n%s\n(if intentional, bump ProtoVersion and run with -update)",
			goldenPath, got, want)
	}

	// Decode direction: golden bytes must parse back into the corpus.
	corpus := goldenEnvelopes()
	for i, line := range strings.Split(strings.TrimSpace(string(want)), "\n") {
		name, hexFrame, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("golden line %d malformed: %q", i, line)
		}
		frame, err := hex.DecodeString(hexFrame)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(frame) < headerLen {
			t.Fatalf("%s: frame too short", name)
		}
		var env Envelope
		var scr recvScratch
		if err := decodeEnvelope(frame[headerLen:], MsgType(frame[1]), &env, &scr); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if i < len(corpus) && !reflect.DeepEqual(normalize(&env), normalize(corpus[i].env)) {
			t.Errorf("%s: decoded %+v, want %+v", name, &env, corpus[i].env)
		}
	}
}

// normalize maps empty slices to nil so DeepEqual compares semantics, not
// backing-array provenance.
func normalize(e *Envelope) *Envelope {
	out := e.Clone()
	if out.Trajectory != nil && len(out.Trajectory.Points) == 0 {
		out.Trajectory.Points = nil
	}
	nilIfEmpty := func(ids *[]dnn.LayerID) {
		if *ids != nil && len(*ids) == 0 {
			*ids = nil
		}
	}
	if out.PlanResp != nil {
		nilIfEmpty(&out.PlanResp.ServerLayers)
		if len(out.PlanResp.UploadOrder) == 0 {
			out.PlanResp.UploadOrder = nil
		}
		for i := range out.PlanResp.UploadOrder {
			nilIfEmpty(&out.PlanResp.UploadOrder[i])
		}
	}
	if out.Migrate != nil {
		nilIfEmpty(&out.Migrate.Layers)
	}
	if out.Upload != nil {
		nilIfEmpty(&out.Upload.Layers)
	}
	if out.Has != nil {
		nilIfEmpty(&out.Has.Layers)
	}
	if out.Handoff != nil && len(out.Handoff.History) == 0 {
		out.Handoff.History = nil
	}
	return out
}

// FuzzEnvelopeRoundTrip fuzzes the decoder with arbitrary payloads: any
// payload that decodes must re-encode canonically — encode(decode(x)) is
// a fixed point (encode→decode→re-encode byte-identical) — and the
// decoder must never panic on garbage.
func FuzzEnvelopeRoundTrip(f *testing.F) {
	for _, g := range goldenEnvelopes() {
		frame, err := appendFrame(nil, g.env)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[1], frame[headerLen:])
	}
	f.Add(byte(0), []byte{})
	f.Add(byte(255), []byte{1, 2, 3})
	// Well-formed bodies under retired type values: v5's MsgUploadLayers
	// (8) carried an Upload, its MsgForward (16) a chain of hops.
	for _, old := range []struct {
		typ MsgType
		env *Envelope
	}{
		{8, &Envelope{Type: MsgUploadUnit, Upload: &Upload{ClientID: 9, Layers: []dnn.LayerID{1, 2, 3}}}},
		{16, &Envelope{Type: MsgExecRequest, ExecReq: &ExecReq{ClientID: 9, ServerBaseNs: 1000, Intensity: 0.1, InputBytes: 64,
			Next: []PlanHop{{Server: 2, Addr: "127.0.0.1:7102", ServerBaseNs: 1000, Intensity: 0.1, InBytes: 64}}}}},
	} {
		frame, err := appendFrame(nil, old.env)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(byte(old.typ), frame[headerLen:])
	}
	f.Fuzz(func(t *testing.T, typ byte, payload []byte) {
		var env Envelope
		var scr recvScratch
		if err := decodeEnvelope(payload, MsgType(typ), &env, &scr); err != nil {
			return // malformed input rejected is fine; panics are not
		}
		enc1, err := appendFrame(nil, &env)
		if err != nil {
			t.Fatalf("decoded envelope failed to encode: %v\nenv: %+v", err, &env)
		}
		var env2 Envelope
		var scr2 recvScratch
		if err := decodeEnvelope(enc1[headerLen:], MsgType(enc1[1]), &env2, &scr2); err != nil {
			t.Fatalf("canonical encoding failed to decode: %v", err)
		}
		enc2, err := appendFrame(nil, &env2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("re-encode not byte-identical:\n first %x\nsecond %x", enc1, enc2)
		}
	})
}

// TestDecodeRejectsTrailingBytes: payloads with junk after the body are
// malformed, keeping the encoding canonical.
func TestDecodeRejectsTrailingBytes(t *testing.T) {
	frame, err := appendFrame(nil, &Envelope{Type: MsgAck, Ack: &Ack{OK: true}})
	if err != nil {
		t.Fatal(err)
	}
	payload := append(append([]byte(nil), frame[headerLen:]...), 0xff)
	var env Envelope
	var scr recvScratch
	if err := decodeEnvelope(payload, MsgAck, &env, &scr); err == nil {
		t.Error("trailing bytes accepted")
	}
}

// TestTraceTailRoundTrip: the optional trace context survives a codec
// round trip, and an untraced frame decodes to the zero context.
func TestTraceTailRoundTrip(t *testing.T) {
	traced := &Envelope{Type: MsgAck, Ack: &Ack{OK: true},
		Trace: tracing.SpanContext{Trace: 5, Span: 9}}
	frame, err := appendFrame(nil, traced)
	if err != nil {
		t.Fatal(err)
	}
	var env Envelope
	var scr recvScratch
	if err := decodeEnvelope(frame[headerLen:], MsgAck, &env, &scr); err != nil {
		t.Fatal(err)
	}
	if env.Trace != traced.Trace {
		t.Errorf("trace context = %+v, want %+v", env.Trace, traced.Trace)
	}

	untraced, err := appendFrame(nil, &Envelope{Type: MsgAck, Ack: &Ack{OK: true}})
	if err != nil {
		t.Fatal(err)
	}
	if err := decodeEnvelope(untraced[headerLen:], MsgAck, &env, &scr); err != nil {
		t.Fatal(err)
	}
	if !env.Trace.IsZero() {
		t.Errorf("untraced frame decoded context %+v, want zero", env.Trace)
	}
	if len(untraced) >= len(frame) {
		t.Errorf("untraced frame (%d bytes) not shorter than traced (%d)", len(untraced), len(frame))
	}
}

// TestTraceTailRejectsNonCanonical: a malformed or non-canonical trace
// tail (wrong presence byte, explicit zero context, truncation) is
// rejected as a frame error, keeping encode∘decode a fixed point.
func TestTraceTailRejectsNonCanonical(t *testing.T) {
	base, err := appendFrame(nil, &Envelope{Type: MsgAck, Ack: &Ack{OK: true}})
	if err != nil {
		t.Fatal(err)
	}
	body := base[headerLen:]
	for _, tc := range []struct {
		name string
		tail []byte
	}{
		{"zero presence byte", []byte{0}},
		{"bad presence byte", []byte{2, 5, 9}},
		{"explicit zero context", []byte{1, 0, 0}},
		{"truncated span ID", []byte{1, 5}},
	} {
		payload := append(append([]byte(nil), body...), tc.tail...)
		var env Envelope
		var scr recvScratch
		err := decodeEnvelope(payload, MsgAck, &env, &scr)
		if !errors.Is(err, ErrFrame) {
			t.Errorf("%s: err = %v, want wrapping ErrFrame", tc.name, err)
		}
	}
}

// TestVersionMismatchTypedSentinel: a peer speaking another protocol
// version (here: hand-built v1, v4 and v6 frames, and raw gob-era bytes) is
// rejected with ErrProtoVersion, not a decode panic or a confusing parse
// error.
func TestVersionMismatchTypedSentinel(t *testing.T) {
	for _, raw := range [][]byte{
		{1, byte(MsgAck), 0, 0, 0, 1, 0},  // well-formed frame, version 1
		{4, byte(MsgAck), 0, 0, 0, 1, 0},  // well-formed frame, version 4
		{6, byte(MsgAck), 0, 0, 0, 1, 0},  // well-formed frame, version 6
		[]byte("\x1f\xff\x81\x03gob-ish"), // the old gob protocol's opening bytes
	} {
		client, raw2 := rawPipe(t)
		if _, err := raw2.Write(raw); err != nil {
			t.Fatal(err)
		}
		_, err := client.RecvContext(context.Background())
		if err == nil {
			t.Fatalf("foreign bytes %x accepted", raw)
		}
		if !errors.Is(err, ErrProtoVersion) {
			t.Errorf("err = %v, want wrapping ErrProtoVersion", err)
		}
	}
}

// TestOversizedFrameRejected: a length prefix beyond MaxFrameBytes is
// refused before any allocation.
func TestOversizedFrameRejected(t *testing.T) {
	client, raw := rawPipe(t)
	if _, err := raw.Write([]byte{ProtoVersion, byte(MsgAck), 0xff, 0xff, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	_, err := client.RecvContext(context.Background())
	if !errors.Is(err, ErrFrame) {
		t.Errorf("err = %v, want wrapping ErrFrame", err)
	}
}

// TestRetiredTypesRejected: the values v5 and v6 retired — 8 (the
// edge-to-edge MsgUploadLayers), 16 (MsgForward) and 18 (v4's cross-shard
// migration order) — are refused by the encoder and fail a receive with
// ErrFrame, whether or not the frame carries a body.
func TestRetiredTypesRejected(t *testing.T) {
	for _, typ := range []MsgType{8, 16, 18} {
		if _, err := appendFrame(nil, &Envelope{Type: typ}); err == nil {
			t.Errorf("type %d: appendFrame encoded a retired type", typ)
		}
		for _, payload := range [][]byte{{0}, {1, 2, 3}} {
			client, raw := rawPipe(t)
			frame := append([]byte{ProtoVersion, byte(typ), 0, 0, 0, byte(len(payload))}, payload...)
			if _, err := raw.Write(frame); err != nil {
				t.Fatal(err)
			}
			if _, err := client.RecvContext(context.Background()); !errors.Is(err, ErrFrame) {
				t.Errorf("type %d, payload %x: err = %v, want wrapping ErrFrame", typ, payload, err)
			}
		}
	}
}

// tcpPair returns the two ends of a loopback TCP connection, closed with
// the test.
func tcpPair(t *testing.T) (client, peer net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close() //nolint:errcheck // test teardown
	ch := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(ch)
			return
		}
		ch <- c
	}()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	peer, ok := <-ch
	if !ok {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() {
		client.Close() //nolint:errcheck // test teardown
		peer.Close()   //nolint:errcheck // test teardown
	})
	return client, peer
}

// rawPipe returns a wire Conn and the raw peer socket feeding it.
func rawPipe(t *testing.T) (*Conn, net.Conn) {
	t.Helper()
	client, raw := tcpPair(t)
	return NewConn(client), raw
}

// echo answers every envelope on c with itself, under ctx, until the conn
// drops.
func echo(ctx context.Context, c *Conn) {
	for {
		e, err := c.RecvContext(ctx)
		if err != nil {
			return
		}
		if err := c.SendContext(ctx, e); err != nil {
			return
		}
	}
}

// echoPeer returns a Conn whose peer echoes under ctx.
func echoPeer(ctx context.Context, t *testing.T) *Conn {
	t.Helper()
	client, raw := rawPipe(t)
	go echo(ctx, NewConn(raw))
	return client
}

// TestSendRecvSteadyStateZeroAlloc is the live path's allocation gate,
// mirroring partition's: once buffers are warm, a round trip of a pooled
// envelope allocates nothing on either side of the connection.
func TestSendRecvSteadyStateZeroAlloc(t *testing.T) {
	if raceguard.Enabled {
		t.Skip("race detector instrumentation allocates; gate runs in non-race builds")
	}
	client := echoPeer(context.Background(), t)
	req := &Envelope{Type: MsgExecRequest, ExecReq: &ExecReq{
		ClientID: 1, ServerBaseNs: 5000, Intensity: 0.3, InputBytes: 100}}
	// The traced variant exercises the optional trace tail on both the
	// encode and decode side of the loop.
	traced := req.Clone()
	traced.Trace = tracing.SpanContext{Trace: 42, Span: 7}
	ctx := context.Background()
	// Warm the size-classed buffers and the echo peer's scratch.
	for i := 0; i < 10; i++ {
		if _, err := client.RoundTripContext(ctx, req); err != nil {
			t.Fatal(err)
		}
		if _, err := client.RoundTripContext(ctx, traced); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := client.RoundTripContext(ctx, req); err != nil {
			t.Fatal(err)
		}
		if _, err := client.RoundTripContext(ctx, traced); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("steady-state RoundTrip allocates %.1f/op, want 0", n)
	}
}

// cancellableRoundTripAllocs is what one RoundTripContext against a
// wire.Server costs, both peers counted, when both contexts can be
// cancelled: the client's one context.AfterFunc registration spanning send
// and receive (3 allocations: the closure, the afterFuncCtx and its stop
// func). The serve loop registers once per connection and the codec stays
// at 0.
const cancellableRoundTripAllocs = 3

var discardLog = slog.New(slog.NewTextHandler(io.Discard, nil))

// TestRoundTripCancellableContextAllocs gates the round trip every live
// call makes: loopback TCP, the daemons' own serve loop as the peer, a
// context.WithCancel context on both sides.
// TestSendRecvSteadyStateZeroAlloc above reads 0 only because
// context.Background() has no Done channel to watch.
func TestRoundTripCancellableContextAllocs(t *testing.T) {
	if raceguard.Enabled {
		t.Skip("race detector instrumentation allocates; gate runs in non-race builds")
	}
	ctx, cancel := context.WithCancel(context.Background())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served, _, _ := blockingServer(ctx, ln)
	client, err := DialContext(ctx, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cancel()
		<-served
		client.Close() //nolint:errcheck // test teardown
	})
	req := &Envelope{Type: MsgExecRequest, ExecReq: &ExecReq{
		ClientID: 1, ServerBaseNs: 5000, Intensity: 0.3, InputBytes: 100}}
	for i := 0; i < 10; i++ {
		if _, err := client.RoundTripContext(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := client.RoundTripContext(ctx, req); err != nil {
			t.Fatal(err)
		}
	}); n > cancellableRoundTripAllocs {
		t.Errorf("RoundTripContext under a cancellable context allocates %.1f/op across both peers, budget %d",
			n, cancellableRoundTripAllocs)
	}
}

// TestStringMemoZeroAlloc: repeated messages carrying the same string
// (the steady state for model names and peer addresses) reuse the
// previously decoded string instead of reallocating.
func TestStringMemoZeroAlloc(t *testing.T) {
	if raceguard.Enabled {
		t.Skip("race detector instrumentation allocates; gate runs in non-race builds")
	}
	client := echoPeer(context.Background(), t)
	req := &Envelope{Type: MsgRegister, Register: &Register{ClientID: 3, Model: dnn.ModelResNet}}
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if _, err := client.RoundTripContext(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		resp, err := client.RoundTripContext(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Register == nil || resp.Register.Model != dnn.ModelResNet {
			t.Fatal("echo lost the model name")
		}
	}); n != 0 {
		t.Errorf("steady-state string round trip allocates %.1f/op, want 0", n)
	}
}

// --- benchmarks -------------------------------------------------------

// BenchmarkEnvelopeEncode measures the raw codec, no socket.
func BenchmarkEnvelopeEncode(b *testing.B) {
	env := goldenEnvelopes()[3].env // plan-response: the largest body
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = appendFrame(buf[:0], env)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnvelopeDecode measures the raw decoder into reused scratch.
func BenchmarkEnvelopeDecode(b *testing.B) {
	frame, err := appendFrame(nil, goldenEnvelopes()[3].env)
	if err != nil {
		b.Fatal(err)
	}
	var env Envelope
	var scr recvScratch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := decodeEnvelope(frame[headerLen:], MsgType(frame[1]), &env, &scr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRoundTripBinary measures a full request/response over loopback
// TCP with the v2 binary framing.
func BenchmarkRoundTripBinary(b *testing.B) {
	client := echoPeerB(b)
	req := &Envelope{Type: MsgExecRequest, ExecReq: &ExecReq{
		ClientID: 1, ServerBaseNs: 5000, Intensity: 0.3, InputBytes: 100}}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.RoundTripContext(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

// referenceGobConn is the pre-v2 transport — gob with gob's own framing —
// kept, like partition's Reference* functions, as the same-binary baseline
// for BenchmarkRoundTripGobReference. It is not protocol compatible with
// Conn: a v2 reader rejects gob bytes with ErrProtoVersion.
type referenceGobConn struct {
	c   net.Conn
	enc *gob.Encoder
	dec *gob.Decoder
}

func newReferenceGobConn(c net.Conn) *referenceGobConn {
	return &referenceGobConn{c: c, enc: gob.NewEncoder(c), dec: gob.NewDecoder(c)}
}

func (g *referenceGobConn) Send(e *Envelope) error { return g.enc.Encode(e) }

// Recv decodes into a freshly allocated envelope, as the old protocol did
// per message.
func (g *referenceGobConn) Recv() (*Envelope, error) {
	var e Envelope
	if err := g.dec.Decode(&e); err != nil {
		return nil, err
	}
	return &e, nil
}

func (g *referenceGobConn) RoundTrip(e *Envelope) (*Envelope, error) {
	if err := g.Send(e); err != nil {
		return nil, err
	}
	return g.Recv()
}

func (g *referenceGobConn) Close() error { return g.c.Close() }

// BenchmarkRoundTripGobReference is the same exchange over the pre-v2 gob
// transport, the same-binary baseline for the result DESIGN.md §12.6
// quotes.
func BenchmarkRoundTripGobReference(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close() //nolint:errcheck // bench teardown
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		srv := newReferenceGobConn(c)
		for {
			e, err := srv.Recv()
			if err != nil {
				return
			}
			if err := srv.Send(e); err != nil {
				return
			}
		}
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	client := newReferenceGobConn(raw)
	defer client.Close() //nolint:errcheck // bench teardown
	req := &Envelope{Type: MsgExecRequest, ExecReq: &ExecReq{
		ClientID: 1, ServerBaseNs: 5000, Intensity: 0.3, InputBytes: 100}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.RoundTrip(req); err != nil {
			b.Fatal(err)
		}
	}
}

// echoPeerB is echoPeer for benchmarks.
func echoPeerB(b *testing.B) *Conn {
	b.Helper()
	ctx := context.Background()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		echo(ctx, NewConn(c))
	}()
	client, err := DialContext(context.Background(), ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		client.Close() //nolint:errcheck // bench teardown
		ln.Close()     //nolint:errcheck // bench teardown
	})
	return client
}

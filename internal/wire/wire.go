// Package wire defines the binary message protocol spoken by the live
// PerDNN daemons: the master server (cmd/perdnn-master), edge servers
// (cmd/perdnn-edge), and mobile clients (cmd/perdnn-client). Every
// connection carries a stream of length-prefixed frames, each holding one
// Envelope; the codec is hand-written (codec.go) and encodes/decodes into
// reusable buffers owned by the Conn, so steady-state send/receive performs
// no per-message allocations.
//
// Frame layout (DESIGN.md §12):
//
//	byte 0     protocol version (ProtoVersion)
//	byte 1     message type (MsgType)
//	bytes 2-5  payload length, big-endian uint32
//	payload    presence byte + body fields in declaration order,
//	           then an optional trace tail: presence byte 1 + trace ID
//	           uvarint + span ID uvarint (absent ⇒ no trace context, so
//	           frames from peers without tracing decode unchanged)
//
// Version negotiation is implicit: the first frame a peer sends doubles as
// its hello, and a reader that sees any other version byte rejects the
// connection with ErrProtoVersion instead of misparsing the stream (the
// pre-v2 gob protocol fails this check on its first byte).
//
// Layer weights are simulated: upload and migration messages name layers,
// and the receiving daemon prices them from its model's weight sizes and
// realizes the transfer time against its link (scaled by its time-scale),
// rather than shipping opaque payloads. This keeps the live path faithful in timing while
// staying runnable on a laptop.
package wire

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"perdnn/internal/dnn"
	"perdnn/internal/geo"
	"perdnn/internal/gpusim"
	"perdnn/internal/obs/tracing"
)

// MsgType tags an Envelope. Values are part of the wire format and must
// never be renumbered; new types are appended. A retired value stays a
// blank placeholder below and is never reused: both ends of the codec
// reject it (see known).
type MsgType int

// Message types.
const (
	// Client -> master.
	MsgRegister MsgType = iota + 1
	MsgTrajectory
	MsgPlanRequest
	// Master -> client.
	MsgPlanResponse
	// Master -> edge (and edge replies).
	MsgStatsRequest
	MsgStatsResponse
	MsgMigrateRequest
	_ // 8: v5's edge-to-edge MsgUploadLayers, retired in v6
	// Client/edge -> edge: run one query stage, and relay ExecReq.Next.
	MsgExecRequest
	MsgExecResponse
	MsgHasRequest
	MsgHasResponse
	// Generic acknowledgment.
	MsgAck
	// Layer upload (client -> edge, and edge -> edge for a migration
	// push): one schedule unit per MsgUploadUnit, cumulatively
	// acknowledged by MsgUploadAck.
	MsgUploadUnit
	MsgUploadAck
	_ // 16: v5's MsgForward chain relay, retired in v6
	// Sharded control plane (master -> master, and master -> client as a
	// redirect): ownership handoff of a client crossing a region boundary.
	MsgShardHandoff
	_ // 18: v4's cross-shard migration order, retired in v5

	// maxMsgType bounds the valid type range for frame validation.
	maxMsgType = MsgShardHandoff
)

// known reports whether t is a message type of this version: in range and
// not one of the retired values.
func (t MsgType) known() bool {
	switch t {
	case 8, 16, 18:
		return false
	}
	return t >= MsgRegister && t <= maxMsgType
}

// Protocol framing parameters.
const (
	// ProtoVersion is the wire format version carried by every frame.
	// Version 1 was the gob protocol (implicit, never tagged); version 2
	// was the initial binary framing; version 3 extends PlanResp with the
	// multi-hop chain tail and adds MsgForward; version 4 adds the sharded
	// control plane; version 5 retires v4's cross-shard migration order
	// (type 18) and Migrate's byte cap: a master orders every target itself
	// and cuts the layer list before the order. Version 6 keeps one message
	// per operation: a chain stage is an ExecReq whose Next carries the
	// rest of the chain, so MsgForward (type 16) is retired, and a
	// migration push is an MsgUploadUnit, so MsgUploadLayers (type 8) is
	// retired; ExecResp loses OutputBytes, which no receiver read. Version
	// 7 drops Upload's declared Bytes: the receiving edge prices a unit
	// from its model's layer weights.
	ProtoVersion byte = 7
	// headerLen is version(1) + type(1) + payload length(4).
	headerLen = 6
	// MaxFrameBytes bounds a frame's payload; larger length prefixes are
	// rejected as malformed rather than allocated.
	MaxFrameBytes = 16 << 20
)

// Typed protocol sentinels, tested with errors.Is.
var (
	// ErrProtoVersion marks a peer speaking a different protocol version
	// (including pre-v2 gob peers); the connection is unusable.
	ErrProtoVersion = errors.New("wire: protocol version mismatch")
	// ErrFrame marks a malformed frame: unknown type, truncated payload,
	// or an oversized length prefix.
	ErrFrame = errors.New("wire: malformed frame")
	// ErrConnPoisoned marks a connection whose in-flight operation was
	// interrupted by a context cancellation: the stream position is
	// unknown, so every later send or receive refuses it. Callers drop the
	// connection and redial.
	ErrConnPoisoned = errors.New("wire: connection poisoned by canceled operation")
)

// Envelope is the single wire message; exactly the field matching Type is
// set. Field encodings are fixed by codec.go and documented per body.
//
// An Envelope returned by RecvContext — and everything it points to — is
// owned by the Conn and valid only until the next RecvContext on that Conn;
// callers that retain any part of it must copy (Clone, PlanResp.Clone).
type Envelope struct {
	Type MsgType

	// Trace is the optional distributed-tracing context propagated with
	// the message: the sender's trace ID and the span the receiver should
	// parent its work under. The zero value means "no context" and
	// encodes as nothing at all (the optional tail after the body), so
	// untraced peers interoperate unchanged.
	Trace tracing.SpanContext

	Register   *Register
	Trajectory *Trajectory
	PlanReq    *PlanReq
	PlanResp   *PlanResp
	Stats      *StatsMsg
	Migrate    *Migrate
	Upload     *Upload
	ExecReq    *ExecReq
	ExecResp   *ExecResp
	Has        *Has
	Ack        *Ack
	Handoff    *ShardHandoff
}

// Register announces a client and its model to the master. The model is
// identified by zoo name; the DNN profile is reconstructed server-side
// (uploading hyperparameters only, never weights — Section III.B).
//
// Encoding: ClientID varint, Model string.
type Register struct {
	ClientID int
	Model    dnn.ModelName
}

// Trajectory reports a client's recent locations to the master.
//
// Encoding: ClientID varint, point count uvarint, then X/Y float64 pairs.
type Trajectory struct {
	ClientID int
	Points   []geo.Point
}

// PlanReq asks the master for a current partitioning plan against an edge
// server.
//
// Encoding: ClientID varint, Server varint.
type PlanReq struct {
	ClientID int
	Server   geo.ServerID
}

// PlanResp carries a partitioning plan: the server-side layer IDs in upload
// order plus the estimate it was derived from. A multi-hop plan additionally
// carries the server chain; Chain empty means classic single-split offload.
//
// Encoding: ServerLayers id-list, UploadOrder unit count uvarint then one
// id-list per unit, Slowdown float64, EstLatencyNs varint, chain hop count
// uvarint then one PlanHop per hop (a hop list, see PlanHop),
// ChainDownBytes varint, ChainClientPreNs varint, ChainClientPostNs varint.
// (An id-list is a uvarint count followed by varint layer IDs.)
type PlanResp struct {
	ServerLayers []dnn.LayerID
	UploadOrder  [][]dnn.LayerID // schedule units, highest efficiency first
	Slowdown     float64
	// EstLatencyNs is the estimate of the plan served: the chain's when
	// Chain is set, the single split's otherwise.
	EstLatencyNs int64
	// Chain is the pipelined multi-hop assignment, in execution order;
	// empty for single-split plans. ChainDownBytes is the final output
	// activation size shipped back to the client from the last hop;
	// ChainClientPreNs/ChainClientPostNs are the client-local prefix and
	// suffix work bracketing the chain.
	Chain             []PlanHop
	ChainDownBytes    int64
	ChainClientPreNs  int64
	ChainClientPostNs int64
}

// PlanHop is one stage of a multi-hop plan: which server runs it, where to
// reach that server, and the stage's contention-free cost model. A hop
// list (PlanResp.Chain, ExecReq.Next) encodes as a uvarint count, then per
// hop Server varint, Addr string, ServerBaseNs varint, Intensity float64,
// InBytes varint.
type PlanHop struct {
	Server geo.ServerID
	Addr   string
	// ServerBaseNs is the contention-free execution time of this hop's
	// layers; Intensity their memory intensity; InBytes the activation
	// payload entering the hop.
	ServerBaseNs int64
	Intensity    float64
	InBytes      int64
}

// Clone returns a deep copy the caller owns, detached from any Conn
// receive buffer.
func (p *PlanResp) Clone() *PlanResp {
	if p == nil {
		return nil
	}
	out := &PlanResp{Slowdown: p.Slowdown, EstLatencyNs: p.EstLatencyNs,
		ChainDownBytes: p.ChainDownBytes, ChainClientPreNs: p.ChainClientPreNs, ChainClientPostNs: p.ChainClientPostNs}
	out.ServerLayers = append([]dnn.LayerID(nil), p.ServerLayers...)
	if p.UploadOrder != nil {
		out.UploadOrder = make([][]dnn.LayerID, len(p.UploadOrder))
		for i, u := range p.UploadOrder {
			out.UploadOrder[i] = append([]dnn.LayerID(nil), u...)
		}
	}
	if p.Chain != nil {
		out.Chain = append([]PlanHop(nil), p.Chain...)
	}
	return out
}

// StatsMsg carries a GPU statistics sample (request has a nil sample).
//
// Encoding: sample presence byte, then ActiveClients varint and
// KernelUtil/MemUtil/MemUsedMB/TempC float64s.
type StatsMsg struct {
	Sample *gpusim.Stats
}

// Migrate instructs an edge server to push a client's cached layers to a
// peer edge server. Layers is already what the peer should hold: a
// fractional cut is made before the order, not by the edge.
//
// Encoding: ClientID varint, Layers id-list, PeerAddr string.
type Migrate struct {
	ClientID int
	Layers   []dnn.LayerID
	PeerAddr string
}

// Upload declares layer weights arriving at an edge server (from a client
// or a peer).
//
// Encoding: ClientID varint, Layers id-list, Seq varint.
type Upload struct {
	ClientID int
	Layers   []dnn.LayerID
	// Seq is the schedule-unit sequence number within a windowed upload
	// stream; an edge-to-edge migration push is a one-unit stream, Seq 0.
	Seq int64
}

// ExecReq asks an edge server to execute one stage of a query: the
// server-side part of a single split, or one hop of a multi-hop chain. The
// server runs its own stage and, when Next is non-empty, relays an ExecReq
// for Next[0] carrying Next[1:] to Next[0].Addr; its ExecResp covers its
// own stage plus everything downstream, so the client sees one answer per
// query.
//
// Encoding: ClientID varint, ServerBaseNs varint, Intensity float64,
// InputBytes varint, Next hop list.
type ExecReq struct {
	ClientID int
	// ServerBaseNs is the contention-free execution time of the offloaded
	// layers; Intensity their memory intensity.
	ServerBaseNs int64
	Intensity    float64
	// InputBytes is the activation payload size (transfer realized by the
	// server against its link model).
	InputBytes int64
	// Next is the rest of the chain after the receiving server's own
	// stage; empty for a single split and for a chain's last hop.
	Next []PlanHop
}

// ExecResp reports the simulated server execution: the receiving
// server's stage plus every stage it relayed, with the edge-to-edge
// transfers between them.
//
// Encoding: ExecNs varint.
type ExecResp struct {
	ExecNs int64
}

// Has asks which of the listed layers an edge server caches for a client;
// the response reuses the struct with the subset present.
//
// Encoding: ClientID varint, Layers id-list.
type Has struct {
	ClientID int
	Layers   []dnn.LayerID
}

// ShardHandoff transfers ownership of a client registration between two
// shard masters when the client's trajectory crosses a region boundary
// (master -> master), and doubles as the redirect a master returns for a
// trajectory report it no longer owns (master -> client): Addr names the
// shard master that owns the client after the handoff. History carries the
// client's recent locations so the new owner can predict and plan without
// waiting to accumulate reports.
//
// Encoding: ClientID varint, Model string, FromShard varint, ToShard
// varint, Addr string, point count uvarint then X/Y float64 pairs.
type ShardHandoff struct {
	ClientID  int
	Model     dnn.ModelName
	FromShard int
	ToShard   int
	Addr      string
	History   []geo.Point
}

// Ack is a generic success/failure reply.
//
// Encoding: OK byte, Error string, Seq varint.
type Ack struct {
	OK    bool
	Error string
	// Seq cumulatively acknowledges a windowed upload stream
	// (MsgUploadAck): every unit with sequence number <= Seq has been
	// received and cached. On the MsgAck that answers a migration order it
	// is a layer count instead: an edge answering MsgMigrateRequest reports
	// how many of the ordered layers it pushed to the peer (0 when it holds
	// nothing for the client, fewer than ordered when it holds part). Zero
	// elsewhere.
	Seq int64
}

// Clone returns a deep copy of the envelope the caller owns, detached from
// any Conn receive buffer.
func (e *Envelope) Clone() *Envelope {
	if e == nil {
		return nil
	}
	out := &Envelope{Type: e.Type, Trace: e.Trace}
	if e.Register != nil {
		v := *e.Register
		out.Register = &v
	}
	if e.Trajectory != nil {
		v := *e.Trajectory
		v.Points = append([]geo.Point(nil), e.Trajectory.Points...)
		out.Trajectory = &v
	}
	if e.PlanReq != nil {
		v := *e.PlanReq
		out.PlanReq = &v
	}
	out.PlanResp = e.PlanResp.Clone()
	if e.Stats != nil {
		v := *e.Stats
		if v.Sample != nil {
			s := *v.Sample
			v.Sample = &s
		}
		out.Stats = &v
	}
	if e.Migrate != nil {
		v := *e.Migrate
		v.Layers = append([]dnn.LayerID(nil), e.Migrate.Layers...)
		out.Migrate = &v
	}
	if e.Upload != nil {
		v := *e.Upload
		v.Layers = append([]dnn.LayerID(nil), e.Upload.Layers...)
		out.Upload = &v
	}
	if e.ExecReq != nil {
		v := *e.ExecReq
		v.Next = append([]PlanHop(nil), e.ExecReq.Next...)
		out.ExecReq = &v
	}
	if e.ExecResp != nil {
		v := *e.ExecResp
		out.ExecResp = &v
	}
	if e.Has != nil {
		v := *e.Has
		v.Layers = append([]dnn.LayerID(nil), e.Has.Layers...)
		out.Has = &v
	}
	if e.Ack != nil {
		v := *e.Ack
		out.Ack = &v
	}
	if e.Handoff != nil {
		v := *e.Handoff
		v.History = append([]geo.Point(nil), e.Handoff.History...)
		out.Handoff = &v
	}
	return out
}

// Default per-envelope deadlines, used when the caller's context carries
// no tighter one. They hold to within deadlineSlack: a deadline-free
// operation reuses the socket deadline an earlier one armed while that is
// less than a second stale.
const (
	DefaultDialTimeout = 5 * time.Second
	DefaultSendTimeout = 30 * time.Second
	DefaultRecvTimeout = 60 * time.Second
	// DefaultKeepAlive is the TCP keepalive period for dialed
	// connections, keeping pooled conns alive between exchanges.
	DefaultKeepAlive = 30 * time.Second

	// deadlineSlack is how stale an armed fallback deadline may be before a
	// deadline-free operation re-arms it. It is absolute, not a share of the
	// fallback: the bounds above are there to outlast an idle but healthy
	// peer (the master connection is never redialed), and must not shrink
	// by more than this.
	deadlineSlack = time.Second
)

// Conn wraps a TCP connection with the binary framing, per-operation
// deadlines, and reusable encode/decode buffers. A Conn is not safe for
// concurrent use by multiple goroutines.
type Conn struct {
	c        net.Conn
	br       *bufio.Reader
	addr     string // dial target; "" for accepted conns
	poisoned atomic.Bool

	// The read and write deadlines last set on the socket; the zero value
	// forces the next operation to arm (see arm).
	rdl, wdl time.Time

	hdr  [headerLen]byte
	wbuf []byte      // frame encode scratch, retained at its high-water class
	rbuf []byte      // payload decode scratch, size-classed
	renv Envelope    // decoded envelope, reused across Recvs
	scr  recvScratch // decoded bodies and slices, reused across Recvs
}

// DialContext connects to a daemon, honoring the context's deadline and
// cancellation; without a context deadline a 5 s dial timeout applies. The
// connection carries TCP keepalives so it stays reusable across exchanges
// (see Pool).
func DialContext(ctx context.Context, addr string) (*Conn, error) {
	d := net.Dialer{Timeout: DefaultDialTimeout, KeepAlive: DefaultKeepAlive}
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dialing %s: %w", addr, err)
	}
	conn := NewConn(c)
	conn.addr = addr
	return conn, nil
}

// NewConn wraps an established connection.
func NewConn(c net.Conn) *Conn {
	return &Conn{c: c, br: bufio.NewReaderSize(c, 16<<10)}
}

// arm bounds the coming write (or read) by the earlier of the context's
// deadline and now+fallback, so every envelope exchange is bounded even on
// a deadline-free context. A context deadline is always set exactly. The
// fallback is skipped while the deadline already on the socket is less than
// deadlineSlack short of it: re-arming the runtime timer on every frame of
// a busy connection buys nothing.
//
// It then reports a cancellation that fired before it ran: a watcher that
// forced the deadline into the past first would otherwise be overwritten
// here and the operation would block to the fallback.
func (c *Conn) arm(ctx context.Context, write bool) error {
	armed, fallback := &c.rdl, DefaultRecvTimeout
	if write {
		armed, fallback = &c.wdl, DefaultSendTimeout
	}
	dl := time.Now().Add(fallback)
	d, ok := ctx.Deadline()
	if ok && d.Before(dl) {
		dl = d
	} else if stale := dl.Sub(*armed); stale >= 0 && stale < deadlineSlack {
		return nil
	}
	var err error
	if write {
		err = c.c.SetWriteDeadline(dl)
	} else {
		err = c.c.SetReadDeadline(dl)
	}
	if err != nil {
		*armed = time.Time{}
		return fmt.Errorf("wire: set deadline: %w", err)
	}
	*armed = dl
	if c.poisoned.Load() {
		return fmt.Errorf("wire: interrupted: %w", ctx.Err())
	}
	return nil
}

// nopStop is the watcher for contexts that can never be canceled.
var nopStop = func() bool { return true }

// watchCancel interrupts an in-flight read/write when ctx is canceled by
// forcing the connection deadline into the past — and poisons the Conn,
// because the stream position is then unknown (the frame may have been
// half written or half read). The returned stop func must be called once
// the watched operations complete.
//
// One watcher spans one exported operation: a SendContext, a RecvContext, a
// whole RoundTripContext, or — in Server — the life of a served connection.
// There is deliberately none that outlives a client-side call: a cancel
// that merely ends the caller's WithTimeout after the reply arrived must
// leave the connection healthy.
func (c *Conn) watchCancel(ctx context.Context) (stop func() bool) {
	if ctx.Done() == nil {
		return nopStop
	}
	return context.AfterFunc(ctx, func() {
		c.poisoned.Store(true)
		_ = c.c.SetDeadline(time.Now())
	})
}

// usable refuses a poisoned Conn and a context that is already done,
// before anything touches the stream: neither leaves the Conn worse off.
func (c *Conn) usable(ctx context.Context, op string) error {
	if c.poisoned.Load() {
		return fmt.Errorf("wire: %s: %w", op, ErrConnPoisoned)
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("wire: %s: %w", op, err)
	}
	return nil
}

// SendContext writes one envelope, bounded by the context deadline (or the
// 30 s default, whichever is earlier) and interruptible by cancellation. A
// Conn whose earlier operation was interrupted returns ErrConnPoisoned.
func (c *Conn) SendContext(ctx context.Context, e *Envelope) error {
	if err := c.usable(ctx, "send"); err != nil {
		return err
	}
	defer c.watchCancel(ctx)()
	return c.send(ctx, e)
}

// send is SendContext under a watcher the caller holds.
func (c *Conn) send(ctx context.Context, e *Envelope) error {
	frame, err := appendFrame(c.wbuf[:0], e)
	if err != nil {
		return fmt.Errorf("wire: encode: %w", err)
	}
	c.wbuf = frame[:0]
	if err := c.arm(ctx, true); err != nil {
		return err
	}
	if _, err := c.c.Write(frame); err != nil {
		c.wdl = time.Time{}
		if ctxErr := ctx.Err(); ctxErr != nil {
			return fmt.Errorf("wire: write: %w: %w", ctxErr, err)
		}
		return fmt.Errorf("wire: write: %w", err)
	}
	return nil
}

// RecvContext reads one envelope, bounded by the context deadline (or the
// 60 s default, whichever is earlier) and interruptible by cancellation.
//
// The returned Envelope is owned by the Conn and valid only until the next
// RecvContext; callers that retain it (or its slices/strings) must Clone. A Conn
// whose earlier operation was interrupted returns ErrConnPoisoned.
func (c *Conn) RecvContext(ctx context.Context) (*Envelope, error) {
	if err := c.usable(ctx, "recv"); err != nil {
		return nil, err
	}
	defer c.watchCancel(ctx)()
	return c.recv(ctx)
}

// recv is RecvContext under a watcher the caller holds.
func (c *Conn) recv(ctx context.Context) (*Envelope, error) {
	if err := c.arm(ctx, false); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(c.br, c.hdr[:]); err != nil {
		return nil, c.readErr(ctx, err)
	}
	if v := c.hdr[0]; v != ProtoVersion {
		return nil, fmt.Errorf("wire: recv: %w: peer sent version %d, want %d",
			ErrProtoVersion, v, ProtoVersion)
	}
	t := MsgType(c.hdr[1])
	n := binary.BigEndian.Uint32(c.hdr[2:headerLen])
	if n > MaxFrameBytes {
		return nil, fmt.Errorf("wire: recv: %w: payload of %d bytes exceeds %d", ErrFrame, n, MaxFrameBytes)
	}
	c.rbuf = growClass(c.rbuf, int(n))[:n]
	if _, err := io.ReadFull(c.br, c.rbuf); err != nil {
		return nil, c.readErr(ctx, err)
	}
	if err := decodeEnvelope(c.rbuf, t, &c.renv, &c.scr); err != nil {
		return nil, fmt.Errorf("wire: recv: %w", err)
	}
	return &c.renv, nil
}

// readErr wraps a failed read, naming the context's error first when the
// context ended, and forgets the read deadline: after a timeout the next
// receive must arm a fresh one.
func (c *Conn) readErr(ctx context.Context, err error) error {
	c.rdl = time.Time{}
	if ctxErr := ctx.Err(); ctxErr != nil {
		return fmt.Errorf("wire: read: %w: %w", ctxErr, err)
	}
	return fmt.Errorf("wire: read: %w", err)
}

// RoundTripContext sends a request and reads the reply under one context
// and one cancel watcher. A cancel that lands between the two halves
// poisons the Conn like one inside either: the request is out, so a reply
// is in flight on this stream. The reply has RecvContext's ownership rules:
// valid until the next receive.
func (c *Conn) RoundTripContext(ctx context.Context, e *Envelope) (*Envelope, error) {
	if err := c.usable(ctx, "send"); err != nil {
		return nil, err
	}
	defer c.watchCancel(ctx)()
	if err := c.send(ctx, e); err != nil {
		return nil, err
	}
	return c.recv(ctx)
}

// Poisoned reports whether an interrupted operation made the Conn
// unusable (see ErrConnPoisoned).
func (c *Conn) Poisoned() bool { return c.poisoned.Load() }

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.c.Close() }

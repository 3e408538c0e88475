// Hand-written binary codec for Envelope bodies. Encoding is canonical
// (minimal varints, fixed field order), so encode(decode(encode(x))) is
// byte-identical — the FuzzEnvelopeRoundTrip invariant. Decoding writes
// into caller-owned scratch (recvScratch) so a Conn's steady-state
// RecvContext allocates nothing.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"perdnn/internal/dnn"
	"perdnn/internal/geo"
	"perdnn/internal/gpusim"
	"perdnn/internal/obs/tracing"
)

// minBufClass is the smallest size class a growing buffer jumps to.
const minBufClass = 512

// growClass returns b with capacity at least n, rounding up to the next
// power-of-two size class (min 512) so repeated messages of similar size
// settle into one stable buffer instead of reallocating through odd
// capacities. Contents are not preserved.
func growClass(b []byte, n int) []byte {
	if cap(b) >= n {
		return b[:0]
	}
	c := minBufClass
	for c < n {
		c <<= 1
	}
	return make([]byte, 0, c)
}

// --- encoding ---------------------------------------------------------

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func appendVarint(b []byte, v int64) []byte   { return binary.AppendVarint(b, v) }
func appendFloat(b []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(v))
}
func appendString(b []byte, s string) []byte { return append(appendUvarint(b, uint64(len(s))), s...) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendLayers(b []byte, ids []dnn.LayerID) []byte {
	b = appendUvarint(b, uint64(len(ids)))
	for _, id := range ids {
		b = appendVarint(b, int64(id))
	}
	return b
}

func appendPlanHops(b []byte, hops []PlanHop) []byte {
	b = appendUvarint(b, uint64(len(hops)))
	for _, h := range hops {
		b = appendVarint(b, int64(h.Server))
		b = appendString(b, h.Addr)
		b = appendVarint(b, h.ServerBaseNs)
		b = appendFloat(b, h.Intensity)
		b = appendVarint(b, h.InBytes)
	}
	return b
}

// appendFrame appends one complete frame (header + payload) for e to dst.
func appendFrame(dst []byte, e *Envelope) ([]byte, error) {
	if !e.Type.known() {
		return dst, fmt.Errorf("unknown message type %d", e.Type)
	}
	start := len(dst)
	dst = append(dst, ProtoVersion, byte(e.Type), 0, 0, 0, 0)
	body := len(dst)
	var err error
	dst, err = appendEnvelopeBody(dst, e)
	if err != nil {
		return dst[:start], err
	}
	// Optional trace tail: a zero context appends nothing, so untraced
	// frames are byte-identical to the pre-tracing format.
	if !e.Trace.IsZero() {
		dst = append(dst, 1)
		dst = appendUvarint(dst, uint64(e.Trace.Trace))
		dst = appendUvarint(dst, uint64(e.Trace.Span))
	}
	n := len(dst) - body
	if n > MaxFrameBytes {
		return dst[:start], fmt.Errorf("%w: payload of %d bytes exceeds %d", ErrFrame, n, MaxFrameBytes)
	}
	binary.BigEndian.PutUint32(dst[start+2:start+headerLen], uint32(n))
	return dst, nil
}

// appendEnvelopeBody appends the presence byte and the body matching
// e.Type. A nil body encodes as a single 0 byte (legitimate for requests
// like MsgStatsRequest; daemons reject the rest with typed acks).
func appendEnvelopeBody(dst []byte, e *Envelope) ([]byte, error) {
	switch e.Type {
	case MsgRegister:
		if e.Register == nil {
			return append(dst, 0), nil
		}
		dst = append(dst, 1)
		dst = appendVarint(dst, int64(e.Register.ClientID))
		dst = appendString(dst, string(e.Register.Model))
	case MsgTrajectory:
		if e.Trajectory == nil {
			return append(dst, 0), nil
		}
		dst = append(dst, 1)
		dst = appendVarint(dst, int64(e.Trajectory.ClientID))
		dst = appendUvarint(dst, uint64(len(e.Trajectory.Points)))
		for _, p := range e.Trajectory.Points {
			dst = appendFloat(dst, p.X)
			dst = appendFloat(dst, p.Y)
		}
	case MsgPlanRequest:
		if e.PlanReq == nil {
			return append(dst, 0), nil
		}
		dst = append(dst, 1)
		dst = appendVarint(dst, int64(e.PlanReq.ClientID))
		dst = appendVarint(dst, int64(e.PlanReq.Server))
	case MsgPlanResponse:
		if e.PlanResp == nil {
			return append(dst, 0), nil
		}
		p := e.PlanResp
		dst = append(dst, 1)
		dst = appendLayers(dst, p.ServerLayers)
		dst = appendUvarint(dst, uint64(len(p.UploadOrder)))
		for _, u := range p.UploadOrder {
			dst = appendLayers(dst, u)
		}
		dst = appendFloat(dst, p.Slowdown)
		dst = appendVarint(dst, p.EstLatencyNs)
		dst = appendPlanHops(dst, p.Chain)
		dst = appendVarint(dst, p.ChainDownBytes)
		dst = appendVarint(dst, p.ChainClientPreNs)
		dst = appendVarint(dst, p.ChainClientPostNs)
	case MsgStatsRequest, MsgStatsResponse:
		if e.Stats == nil {
			return append(dst, 0), nil
		}
		dst = append(dst, 1)
		if e.Stats.Sample == nil {
			return append(dst, 0), nil
		}
		s := e.Stats.Sample
		dst = append(dst, 1)
		dst = appendVarint(dst, int64(s.ActiveClients))
		dst = appendFloat(dst, s.KernelUtil)
		dst = appendFloat(dst, s.MemUtil)
		dst = appendFloat(dst, s.MemUsedMB)
		dst = appendFloat(dst, s.TempC)
	case MsgMigrateRequest:
		if e.Migrate == nil {
			return append(dst, 0), nil
		}
		m := e.Migrate
		dst = append(dst, 1)
		dst = appendVarint(dst, int64(m.ClientID))
		dst = appendLayers(dst, m.Layers)
		dst = appendString(dst, m.PeerAddr)
	case MsgUploadUnit:
		if e.Upload == nil {
			return append(dst, 0), nil
		}
		u := e.Upload
		dst = append(dst, 1)
		dst = appendVarint(dst, int64(u.ClientID))
		dst = appendLayers(dst, u.Layers)
		dst = appendVarint(dst, u.Seq)
	case MsgExecRequest:
		if e.ExecReq == nil {
			return append(dst, 0), nil
		}
		r := e.ExecReq
		dst = append(dst, 1)
		dst = appendVarint(dst, int64(r.ClientID))
		dst = appendVarint(dst, r.ServerBaseNs)
		dst = appendFloat(dst, r.Intensity)
		dst = appendVarint(dst, r.InputBytes)
		dst = appendPlanHops(dst, r.Next)
	case MsgExecResponse:
		if e.ExecResp == nil {
			return append(dst, 0), nil
		}
		dst = append(dst, 1)
		dst = appendVarint(dst, e.ExecResp.ExecNs)
	case MsgHasRequest, MsgHasResponse:
		if e.Has == nil {
			return append(dst, 0), nil
		}
		dst = append(dst, 1)
		dst = appendVarint(dst, int64(e.Has.ClientID))
		dst = appendLayers(dst, e.Has.Layers)
	case MsgAck, MsgUploadAck:
		if e.Ack == nil {
			return append(dst, 0), nil
		}
		dst = append(dst, 1)
		dst = appendBool(dst, e.Ack.OK)
		dst = appendString(dst, e.Ack.Error)
		dst = appendVarint(dst, e.Ack.Seq)
	case MsgShardHandoff:
		if e.Handoff == nil {
			return append(dst, 0), nil
		}
		h := e.Handoff
		dst = append(dst, 1)
		dst = appendVarint(dst, int64(h.ClientID))
		dst = appendString(dst, string(h.Model))
		dst = appendVarint(dst, int64(h.FromShard))
		dst = appendVarint(dst, int64(h.ToShard))
		dst = appendString(dst, h.Addr)
		dst = appendUvarint(dst, uint64(len(h.History)))
		for _, p := range h.History {
			dst = appendFloat(dst, p.X)
			dst = appendFloat(dst, p.Y)
		}
	default:
		return dst, fmt.Errorf("unknown message type %d", e.Type)
	}
	return dst, nil
}

// --- decoding ---------------------------------------------------------

// recvScratch holds the decoded bodies and backing slices a Conn reuses
// across Recvs. String fields are memoized: when the incoming bytes match
// the previously decoded value (the common steady state — same model name,
// same peer address), the old string is reused instead of reallocated.
type recvScratch struct {
	register   Register
	trajectory Trajectory
	planReq    PlanReq
	planResp   PlanResp
	stats      StatsMsg
	sample     gpusim.Stats
	migrate    Migrate
	upload     Upload
	execReq    ExecReq
	execResp   ExecResp
	has        Has
	ack        Ack
	handoff    ShardHandoff

	points       []geo.Point
	handoffPts   []geo.Point
	migrateIDs   []dnn.LayerID
	uploadIDs    []dnn.LayerID
	hasIDs       []dnn.LayerID
	serverLayers []dnn.LayerID
	uploadOrder  [][]dnn.LayerID
	planHops     []PlanHop
	nextHops     []PlanHop

	modelMemo string
	peerMemo  string
	errMemo   string
}

// decoder is a sticky-error cursor over one frame payload. All reads
// return zero values once an error is recorded; decodeEnvelope surfaces
// the first one wrapped in ErrFrame.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s at offset %d", ErrFrame, what, d.off)
	}
}

func (d *decoder) remaining() int { return len(d.buf) - d.off }

func (d *decoder) byte1() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail("truncated byte")
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

func (d *decoder) bool() bool {
	switch d.byte1() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("bad bool")
		return false
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) float() float64 {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 8 {
		d.fail("truncated float64")
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v
}

// count reads a collection length and bounds it by the bytes remaining
// (each element occupies at least elemSize bytes), so a corrupt length
// prefix cannot drive a huge allocation.
func (d *decoder) count(elemSize int) int {
	n := d.uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(d.remaining()/elemSize) {
		d.fail("collection longer than payload")
		return 0
	}
	return int(n)
}

// string decodes a length-prefixed string, reusing *memo when the bytes
// are unchanged from the previous message on this connection.
func (d *decoder) string(memo *string) string {
	n := d.count(1)
	if d.err != nil {
		return ""
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	if string(b) != *memo {
		*memo = string(b)
	}
	return *memo
}

func (d *decoder) layers(dst []dnn.LayerID) []dnn.LayerID {
	n := d.count(1)
	dst = dst[:0]
	for i := 0; i < n; i++ {
		dst = append(dst, dnn.LayerID(d.varint()))
	}
	return dst
}

func (d *decoder) points(dst []geo.Point) []geo.Point {
	n := d.count(16)
	dst = dst[:0]
	for i := 0; i < n; i++ {
		dst = append(dst, geo.Point{X: d.float(), Y: d.float()})
	}
	return dst
}

// planHops decodes a chain hop list into dst, reusing its backing array.
// Each retained hop's Addr doubles as its own string memo, so a stable
// chain decodes without reallocating addresses. Minimum encoded size per
// hop: Server(1) + Addr len(1) + ServerBaseNs(1) + Intensity(8) + InBytes(1).
func (d *decoder) planHops(dst []PlanHop) []PlanHop {
	n := d.count(12)
	if n <= cap(dst) {
		dst = dst[:n]
	} else {
		dst = append(dst[:cap(dst)], make([]PlanHop, n-cap(dst))...)
	}
	for i := range dst {
		dst[i].Server = geo.ServerID(d.varint())
		dst[i].Addr = d.string(&dst[i].Addr)
		dst[i].ServerBaseNs = d.varint()
		dst[i].Intensity = d.float()
		dst[i].InBytes = d.varint()
	}
	return dst
}

func (d *decoder) layerUnits(dst [][]dnn.LayerID) [][]dnn.LayerID {
	n := d.count(1)
	if n <= cap(dst) {
		dst = dst[:n]
	} else {
		dst = append(dst[:cap(dst)], make([][]dnn.LayerID, n-cap(dst))...)
	}
	for i := range dst {
		dst[i] = d.layers(dst[i])
	}
	return dst
}

// decodeEnvelope parses one frame payload of type t into env, reusing the
// bodies and slices in s. On return env's non-matching body pointers are
// nil and the matching one points into s.
func decodeEnvelope(payload []byte, t MsgType, env *Envelope, s *recvScratch) error {
	if !t.known() {
		return fmt.Errorf("%w: unknown message type %d", ErrFrame, t)
	}
	d := decoder{buf: payload}
	*env = Envelope{Type: t}
	if present := d.bool(); d.err == nil && present {
		switch t {
		case MsgRegister:
			s.register = Register{
				ClientID: int(d.varint()),
				Model:    dnn.ModelName(d.string(&s.modelMemo)),
			}
			env.Register = &s.register
		case MsgTrajectory:
			s.trajectory.ClientID = int(d.varint())
			s.points = d.points(s.points)
			s.trajectory.Points = s.points
			env.Trajectory = &s.trajectory
		case MsgPlanRequest:
			s.planReq = PlanReq{ClientID: int(d.varint()), Server: geo.ServerID(d.varint())}
			env.PlanReq = &s.planReq
		case MsgPlanResponse:
			s.serverLayers = d.layers(s.serverLayers)
			s.uploadOrder = d.layerUnits(s.uploadOrder)
			s.planResp = PlanResp{
				ServerLayers: s.serverLayers,
				UploadOrder:  s.uploadOrder,
				Slowdown:     d.float(),
				EstLatencyNs: d.varint(),
			}
			s.planHops = d.planHops(s.planHops)
			s.planResp.Chain = s.planHops
			s.planResp.ChainDownBytes = d.varint()
			s.planResp.ChainClientPreNs = d.varint()
			s.planResp.ChainClientPostNs = d.varint()
			env.PlanResp = &s.planResp
		case MsgStatsRequest, MsgStatsResponse:
			s.stats.Sample = nil
			if d.bool() {
				s.sample = gpusim.Stats{
					ActiveClients: int(d.varint()),
					KernelUtil:    d.float(),
					MemUtil:       d.float(),
					MemUsedMB:     d.float(),
					TempC:         d.float(),
				}
				s.stats.Sample = &s.sample
			}
			env.Stats = &s.stats
		case MsgMigrateRequest:
			s.migrate.ClientID = int(d.varint())
			s.migrateIDs = d.layers(s.migrateIDs)
			s.migrate.Layers = s.migrateIDs
			s.migrate.PeerAddr = d.string(&s.peerMemo)
			env.Migrate = &s.migrate
		case MsgUploadUnit:
			s.upload.ClientID = int(d.varint())
			s.uploadIDs = d.layers(s.uploadIDs)
			s.upload.Layers = s.uploadIDs
			s.upload.Seq = d.varint()
			env.Upload = &s.upload
		case MsgExecRequest:
			s.execReq = ExecReq{
				ClientID:     int(d.varint()),
				ServerBaseNs: d.varint(),
				Intensity:    d.float(),
				InputBytes:   d.varint(),
			}
			s.nextHops = d.planHops(s.nextHops)
			s.execReq.Next = s.nextHops
			env.ExecReq = &s.execReq
		case MsgExecResponse:
			s.execResp = ExecResp{ExecNs: d.varint()}
			env.ExecResp = &s.execResp
		case MsgHasRequest, MsgHasResponse:
			s.has.ClientID = int(d.varint())
			s.hasIDs = d.layers(s.hasIDs)
			s.has.Layers = s.hasIDs
			env.Has = &s.has
		case MsgAck, MsgUploadAck:
			s.ack = Ack{OK: d.bool(), Error: d.string(&s.errMemo), Seq: d.varint()}
			env.Ack = &s.ack
		case MsgShardHandoff:
			s.handoff.ClientID = int(d.varint())
			s.handoff.Model = dnn.ModelName(d.string(&s.modelMemo))
			s.handoff.FromShard = int(d.varint())
			s.handoff.ToShard = int(d.varint())
			s.handoff.Addr = d.string(&s.peerMemo)
			s.handoffPts = d.points(s.handoffPts)
			s.handoff.History = s.handoffPts
			env.Handoff = &s.handoff
		}
	}
	// Optional trace tail. Absent bytes mean "no context" (frames from
	// untraced or pre-tracing peers); when present, the tail must be
	// canonical — presence byte 1 and a non-zero context — so re-encoding
	// a decoded envelope stays a byte-identical fixed point.
	if d.err == nil && d.remaining() > 0 {
		if p := d.byte1(); d.err == nil && p != 1 {
			return fmt.Errorf("%w: bad trace presence byte %d", ErrFrame, p)
		}
		env.Trace = tracing.SpanContext{
			Trace: tracing.TraceID(d.uvarint()),
			Span:  tracing.SpanID(d.uvarint()),
		}
		if d.err == nil && env.Trace.IsZero() {
			return fmt.Errorf("%w: explicit zero trace context", ErrFrame)
		}
	}
	if d.err != nil {
		return d.err
	}
	if d.off != len(payload) {
		return fmt.Errorf("%w: %d trailing bytes", ErrFrame, len(payload)-d.off)
	}
	return nil
}

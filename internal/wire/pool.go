package wire

import (
	"context"
	"fmt"
	"sync"
	"time"

	"perdnn/internal/obs"
)

// Pool defaults.
const (
	// DefaultMaxIdlePerAddr bounds the idle connections kept per peer.
	DefaultMaxIdlePerAddr = 2
	// DefaultIdleTimeout discards idle connections older than this on
	// the next Get; the peer has likely dropped them by then.
	DefaultIdleTimeout = 60 * time.Second
)

// Pool reuses live connections per peer address, so control-plane chatter
// (master→edged stats polls, edged→edged migration pushes) stops paying a
// TCP dial per exchange. Connections are checked out exclusively — a Conn
// is never shared between goroutines — and returned with Put once the
// caller is done with the response. Poisoned or closed connections are
// discarded instead of pooled.
type Pool struct {
	maxIdlePerAddr int           // idle conns kept per address
	idleTimeout    time.Duration // idle conns older than this are discarded at Get

	mu     sync.Mutex
	idle   map[string][]idleConn
	closed bool

	// Lifetime counters, registered as <role>_pool_*; see NewRegisteredPool.
	reuseHits, staleDrops, dials, evictions, retries *obs.Counter
}

type idleConn struct {
	c     *Conn
	since time.Time
}

// NewPool returns a pool with the default limits whose counters live in a
// registry of its own.
func NewPool() *Pool { return NewRegisteredPool(obs.NewRegistry(), "wire") }

// NewRegisteredPool returns a pool whose counters are the reg counters
// <role>_pool_reuse_hits_total (Gets satisfied by an idle connection),
// _stale_drops_total (idle connections discarded at Get as timed out or
// poisoned), _dials_total (fresh connections for Get), _evictions_total
// (healthy connections closed at Put because the idle list was full or the
// pool closed) and _retries_total (exchanges replayed on a fresh dial after
// a reused connection failed), so every daemon's pool metrics follow one
// naming scheme (edge_pool_*, peer_pool_*, ...).
func NewRegisteredPool(reg *obs.Registry, role string) *Pool {
	prefix := role + "_pool_"
	return &Pool{
		maxIdlePerAddr: DefaultMaxIdlePerAddr,
		idleTimeout:    DefaultIdleTimeout,
		reuseHits:      reg.Counter(prefix + "reuse_hits_total"),
		staleDrops:     reg.Counter(prefix + "stale_drops_total"),
		dials:          reg.Counter(prefix + "dials_total"),
		evictions:      reg.Counter(prefix + "evictions_total"),
		retries:        reg.Counter(prefix + "retries_total"),
	}
}

// Get returns a connection to addr: a pooled idle one when available,
// otherwise a fresh dial. reused reports which, so callers can retry a
// failed exchange once on a fresh connection (a pooled conn may have been
// closed by the peer while idle).
func (p *Pool) Get(ctx context.Context, addr string) (c *Conn, reused bool, err error) {
	now := time.Now()
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, false, fmt.Errorf("wire: pool closed")
	}
	for {
		conns := p.idle[addr]
		n := len(conns)
		if n == 0 {
			break
		}
		ic := conns[n-1]
		conns[n-1] = idleConn{}
		p.idle[addr] = conns[:n-1]
		if now.Sub(ic.since) > p.idleTimeout || ic.c.Poisoned() {
			_ = ic.c.Close()
			p.staleDrops.Inc()
			continue
		}
		p.mu.Unlock()
		p.reuseHits.Inc()
		return ic.c, true, nil
	}
	p.mu.Unlock()
	conn, err := DialContext(ctx, addr)
	if err != nil {
		return nil, false, err
	}
	p.dials.Inc()
	return conn, false, nil
}

// Put returns a healthy connection to the pool; poisoned conns, conns not
// created by DialContext, and overflow beyond the per-address idle cap are closed.
func (p *Pool) Put(c *Conn) {
	if c == nil {
		return
	}
	if c.addr == "" || c.Poisoned() {
		_ = c.Close()
		return
	}
	p.mu.Lock()
	if p.closed || len(p.idle[c.addr]) >= p.maxIdlePerAddr {
		p.mu.Unlock()
		_ = c.Close()
		p.evictions.Inc()
		return
	}
	if p.idle == nil {
		p.idle = make(map[string][]idleConn, 4)
	}
	p.idle[c.addr] = append(p.idle[c.addr], idleConn{c: c, since: time.Now()})
	p.mu.Unlock()
}

// RoundTrip performs one request/response exchange against addr over a
// pooled connection, dialing when none is idle. A failure on a reused
// connection is retried once on a fresh dial (the idle conn had likely
// been dropped by the peer). The returned envelope is a deep copy the
// caller owns — safe to retain after the connection re-enters the pool.
func (p *Pool) RoundTrip(ctx context.Context, addr string, req *Envelope) (*Envelope, error) {
	for attempt := 0; ; attempt++ {
		conn, reused, err := p.Get(ctx, addr)
		if err != nil {
			return nil, err
		}
		resp, err := conn.RoundTripContext(ctx, req)
		if err != nil {
			_ = conn.Close()
			if reused && attempt == 0 && ctx.Err() == nil {
				p.retries.Inc()
				continue
			}
			return nil, err
		}
		out := resp.Clone()
		p.Put(conn)
		return out, nil
	}
}

// Close closes every idle connection and marks the pool unusable; conns
// currently checked out are closed by their holders via Put.
func (p *Pool) Close() error {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.closed = true
	p.mu.Unlock()
	var first error
	for _, conns := range idle {
		for _, ic := range conns {
			if err := ic.c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

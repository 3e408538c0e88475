package wire

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"sync"
)

// NewAck returns the MsgAck envelope for err: OK when nil, otherwise
// carrying the error text.
func NewAck(err error) *Envelope {
	if err != nil {
		return &Envelope{Type: MsgAck, Ack: &Ack{OK: false, Error: err.Error()}}
	}
	return &Envelope{Type: MsgAck, Ack: &Ack{OK: true}}
}

// NewCountAck is NewAck with n in Seq on success: the layer count a
// migration order's ack carries (see Ack.Seq).
func NewCountAck(n int, err error) *Envelope {
	e := NewAck(err)
	if err == nil {
		e.Ack.Seq = int64(n)
	}
	return e
}

// A Dispatch answers one request; the response goes back on the connection
// the request arrived on. The request is valid only until it returns.
type Dispatch func(ctx context.Context, req *Envelope) *Envelope

// Server is the serve lifecycle the daemons share: one accept loop, one
// goroutine per connection running recv → dispatch → send, and a shutdown
// that works from Close or from the serve context, before or after
// ServeContext has a listener. Set the exported fields before serving.
type Server struct {
	// Name identifies the daemon in errors ("master", "edged").
	Name string
	// Log receives shutdown and connection-close warnings.
	Log *slog.Logger
	// Open is called once per accepted connection and returns what answers
	// its requests plus, optionally, what runs once it has closed.
	Open func() (dispatch Dispatch, closed func())
	// Shutdown, when set, runs once as the server closes, before the
	// listener does: the daemon releases its outbound pools there.
	Shutdown func()

	mu        sync.Mutex
	ln        net.Listener
	closed    bool
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// ServeContext accepts connections on ln until Close is called or ctx is
// canceled, then waits for the connection handlers to drain. Handlers —
// and whatever outbound calls their dispatch makes — inherit ctx, so
// canceling it interrupts in-flight exchanges too.
func (s *Server) ServeContext(ctx context.Context, ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		// Close ran first and had no listener to close.
		s.mu.Unlock()
		_ = ln.Close() // never accepted on; the caller may have closed it too
		return nil
	}
	s.ln = ln
	s.mu.Unlock()
	stop := context.AfterFunc(ctx, func() {
		if err := s.Close(); err != nil {
			s.Log.Warn("shutdown", "err", err)
		}
	})
	defer stop()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if !closed {
				return fmt.Errorf("%s: accept: %w", s.Name, err)
			}
			s.wg.Wait()
			return nil
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(ctx, NewConn(conn))
		}()
	}
}

// Close stops the server. It is idempotent and safe to call concurrently
// with ServeContext's own context-driven shutdown.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		ln := s.ln
		s.mu.Unlock()
		if s.Shutdown != nil {
			s.Shutdown()
		}
		if ln != nil {
			err = ln.Close()
		}
	})
	return err
}

// handle serves one connection until it errors, closes, or ctx ends.
func (s *Server) handle(ctx context.Context, c *Conn) {
	dispatch, closed := s.Open()
	defer func() {
		if err := c.Close(); err != nil {
			s.Log.Warn("closing conn", "err", err)
		}
		if closed != nil {
			closed()
		}
	}()
	// One watcher for the life of the connection, not one per frame: a
	// canceled serve context means this connection is closing whichever
	// half of the loop it is in.
	defer c.watchCancel(ctx)()
	for {
		req, err := c.recv(ctx)
		if err != nil {
			return // peer went away, timed out, or the daemon is stopping
		}
		if err := c.send(ctx, dispatch(ctx, req)); err != nil {
			return
		}
	}
}

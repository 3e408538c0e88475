// Package mobile is the ctxflow fixture: it occupies a live-path import
// path so the analyzer applies.
package mobile

import (
	"context"
	"net"
)

type Client struct {
	conn net.Conn
}

// DialContext is the ctx-first form every live-path entry point must take.
func DialContext(ctx context.Context, addr string) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn}, nil
}

func Dial(addr string) (*Client, error) {
	return DialContext(context.Background(), addr) // want "context.Background"
}

// DialDetached mints a root context behind a comment that justifies it.
// No comment silences the analyzer: the finding is still reported.
func DialDetached(addr string) (*Client, error) {
	return DialContext(context.Background(), addr) // want "context.Background"
}

func Query(c *Client, q string, ctx context.Context) error { // want "context.Context must be the first parameter"
	_ = ctx
	_ = q
	return nil
}

// UploadAllContext mirrors the streaming-upload entry point: ctx first,
// cancelable mid-window, no diagnostics.
func (c *Client) UploadAllContext(ctx context.Context) (int, error) {
	_ = ctx
	return 0, nil
}

// StreamPending puts the window size ahead of the context, breaking the
// ctx-first convention streaming callers rely on.
func (c *Client) StreamPending(window int, ctx context.Context) (int, error) { // want "context.Context must be the first parameter"
	_ = window
	_ = ctx
	return 0, nil
}

func Probe(addr string) (net.Conn, error) {
	return net.Dial("tcp", addr) // want "dials the network without accepting a context.Context"
}

func pending() context.Context {
	return context.TODO() // want "context.TODO"
}

// probeHelper is unexported: the bare-dial rule covers the exported API
// surface only, so this stays silent.
func probeHelper(addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, 0)
}

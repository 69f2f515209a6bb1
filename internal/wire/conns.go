package wire

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// ErrClosed is returned by Serve on a connection set that has already
// been closed.
var ErrClosed = errors.New("wire: service is closed")

// Conns is the connection lifecycle every wire service shares: the
// accept loop, the set of listeners and live connections, and the
// shutdown that severs them and waits for their handlers. A service
// embeds it and supplies only the per-connection handler.
//
// Exactly one side closes each connection. When a handler returns,
// Conns removes its connection from the set under the lock and then
// closes it; Close closes only the connections still in the set. A
// handler must not close its connection itself.
type Conns struct {
	handle func(net.Conn)

	mu        sync.Mutex
	closed    bool
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	wg        sync.WaitGroup
}

// NewConns builds an open connection set whose connections are
// handled by handle.
func NewConns(handle func(net.Conn)) *Conns {
	return &Conns{
		handle:    handle,
		listeners: map[net.Listener]struct{}{},
		conns:     map[net.Conn]struct{}{},
	}
}

// Serve accepts connections on l until the listener fails or the set
// is closed; Close makes it return nil. Each connection is handled on
// its own goroutine. From the call on, l belongs to the set: Close
// closes it.
func (c *Conns) Serve(l net.Listener) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		if err := l.Close(); err != nil {
			return fmt.Errorf("wire: close listener of closed service: %w", err)
		}
		return ErrClosed
	}
	c.listeners[l] = struct{}{}
	c.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			c.mu.Lock()
			closed := c.closed
			delete(c.listeners, l)
			c.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("wire: accept: %w", err)
		}
		if !c.track(conn) {
			return nil
		}
		go c.serve(conn)
	}
}

// ServeConn handles one connection on the calling goroutine until the
// handler returns, then closes it. The connection is tracked like an
// accepted one, so Close severs it and waits for its handler whether
// it came from a listener or a synthetic transport (net.Pipe). On a
// closed set the connection is closed at once and never handled.
func (c *Conns) ServeConn(conn net.Conn) {
	if c.track(conn) {
		c.serve(conn)
	}
}

// track registers conn, or closes it when the set is already closed.
func (c *Conns) track(conn net.Conn) bool {
	c.mu.Lock()
	open := !c.closed
	if open {
		c.conns[conn] = struct{}{}
		c.wg.Add(1)
	}
	c.mu.Unlock()
	if !open {
		_ = conn.Close()
	}
	return open
}

// serve runs the handler on a tracked connection and closes it unless
// Close already has.
func (c *Conns) serve(conn net.Conn) {
	defer c.wg.Done()
	c.handle(conn)
	c.mu.Lock()
	_, live := c.conns[conn]
	delete(c.conns, conn)
	c.mu.Unlock()
	if live {
		_ = conn.Close()
	}
}

// Close stops all listeners, severs live connections and waits for
// their handlers. Only the first call does anything.
func (c *Conns) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	// Taking the sets over under the lock makes Close the owner of
	// every listener and connection in them; a handler exiting later
	// finds its connection gone and leaves it alone.
	listeners, conns := c.listeners, c.conns
	c.listeners, c.conns = nil, nil
	c.mu.Unlock()
	var firstErr error
	for l := range listeners {
		if err := l.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for conn := range conns {
		if err := conn.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	c.wg.Wait()
	return firstErr
}

// Disconnected reports whether a frame read failed because the peer
// hung up between frames — EOF, or a connection closed under the
// reader (a severed pipe in simulated transports, or Close) — rather
// than because it sent something malformed.
func Disconnected(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed)
}

// ErrorReply encodes an error frame; encoding a plain string cannot
// fail.
func ErrorReply(msg string) Frame {
	f, err := EncodeError(msg)
	if err != nil {
		panic(err)
	}
	return f
}

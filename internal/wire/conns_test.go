package wire

import (
	"errors"
	"io"
	"net"
	"testing"
)

// TestConnsAfterClose pins the closed-set rules: a connection handed
// in after Close is closed at once and never handled, and a listener
// handed to Serve is closed and refused.
func TestConnsAfterClose(t *testing.T) {
	handled := false
	c := NewConns(func(net.Conn) { handled = true })
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	client, server := net.Pipe()
	c.ServeConn(server)
	if handled {
		t.Error("connection served after Close was handled")
	}
	if _, err := client.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Errorf("peer read after refused ServeConn = %v, want EOF", err)
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Serve(l); !errors.Is(err, ErrClosed) {
		t.Errorf("Serve after Close = %v, want ErrClosed", err)
	}
	if _, err := l.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Errorf("listener still open after refused Serve: %v", err)
	}
}

func TestDisconnected(t *testing.T) {
	for _, err := range []error{io.EOF, io.ErrClosedPipe, net.ErrClosed} {
		if !Disconnected(err) {
			t.Errorf("Disconnected(%v) = false", err)
		}
	}
	for _, err := range []error{io.ErrUnexpectedEOF, ErrMagic, ErrTooLarge} {
		if Disconnected(err) {
			t.Errorf("Disconnected(%v) = true", err)
		}
	}
}

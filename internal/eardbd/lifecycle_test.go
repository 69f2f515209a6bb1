package eardbd_test

import (
	"fmt"
	"net"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"goear/internal/eard"
	"goear/internal/eardbd"
	"goear/internal/eardbd/dbdtest"
	"goear/internal/eardbd/dbdtest/leak"
	"goear/internal/eardbd/fed"
	"goear/internal/wire"
)

// lifecycleIterations repeats each shutdown race often enough that a
// double close between a handler and Close shows up on any machine.
const lifecycleIterations = 100

// wireService is the connection lifecycle both wire services share.
type wireService interface {
	Serve(net.Listener) error
	ServeConn(net.Conn)
	Close() error
}

// lifecycleServices builds a fresh instance of each wire service per
// call. The root sits over one in-process shard, closed with the test.
var lifecycleServices = []struct {
	name  string
	build func(t *testing.T) wireService
}{
	{"server", func(t *testing.T) wireService {
		return eardbd.NewServer(eard.NewDB(), eardbd.Config{})
	}},
	{"root", func(t *testing.T) wireService {
		shard := eardbd.NewServer(eard.NewDB(), eardbd.Config{})
		t.Cleanup(func() {
			if err := shard.Close(); err != nil {
				t.Errorf("shard close: %v", err)
			}
		})
		root, err := fed.NewRoot(fed.Config{Shards: []fed.Shard{{Name: "s0", Dial: dbdtest.PipeDialer(shard)}}})
		if err != nil {
			t.Fatal(err)
		}
		return root
	}},
}

// askGeneration runs one query round trip, which proves the service
// has accepted the connection and is handling it.
func askGeneration(t *testing.T, conn net.Conn) {
	t.Helper()
	if _, err := eardbd.Query(conn, wire.Query{Kind: wire.QueryGeneration}, 0); err != nil {
		t.Fatal(err)
	}
}

// TestCloseAfterPeerHangup closes each service right after a peer
// hangs up, over TCP and unix sockets. The handler that saw the EOF
// and Close race to close the same connection; exactly one may, so
// both Close and Serve must return nil every time.
func TestCloseAfterPeerHangup(t *testing.T) {
	for _, svc := range lifecycleServices {
		for _, network := range []string{"tcp", "unix"} {
			t.Run(svc.name+"/"+network, func(t *testing.T) {
				leak.Check(t)
				dir := t.TempDir()
				for i := 0; i < lifecycleIterations; i++ {
					addr := "127.0.0.1:0"
					if network == "unix" {
						addr = filepath.Join(dir, fmt.Sprintf("%d.sock", i))
					}
					l, err := net.Listen(network, addr)
					if err != nil {
						t.Fatal(err)
					}
					srv := svc.build(t)
					served := make(chan error, 1)
					go func() { served <- srv.Serve(l) }()
					conn, err := net.Dial(network, l.Addr().String())
					if err != nil {
						t.Fatal(err)
					}
					askGeneration(t, conn)
					if err := conn.Close(); err != nil {
						t.Fatal(err)
					}
					if err := srv.Close(); err != nil {
						t.Fatalf("iteration %d: close: %v", i, err)
					}
					if err := <-served; err != nil {
						t.Fatalf("iteration %d: serve: %v", i, err)
					}
				}
			})
		}
	}
}

// exitWatch is a connection whose handler is slow to notice the end:
// once a read fails it lingers before returning, then records that
// the handler's last read is over.
type exitWatch struct {
	net.Conn
	exited atomic.Bool
}

func (c *exitWatch) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if err != nil {
		time.Sleep(2 * time.Millisecond)
		c.exited.Store(true)
	}
	return n, err
}

// TestCloseSeversServeConn pins the contract loadgen's Kill relies
// on: a connection handed to ServeConn, with no listener, is tracked,
// so Close severs it and returns only after its handler has exited.
func TestCloseSeversServeConn(t *testing.T) {
	for _, svc := range lifecycleServices {
		t.Run(svc.name+"/pipe", func(t *testing.T) {
			leak.Check(t)
			for i := 0; i < lifecycleIterations; i++ {
				srv := svc.build(t)
				client, server := net.Pipe()
				watched := &exitWatch{Conn: server}
				go srv.ServeConn(watched)
				askGeneration(t, client)
				if err := srv.Close(); err != nil {
					t.Fatalf("iteration %d: close: %v", i, err)
				}
				if !watched.exited.Load() {
					t.Fatalf("iteration %d: Close returned while the handler was still running", i)
				}
				if err := client.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

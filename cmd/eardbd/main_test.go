package main

import (
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"goear/internal/eard"
	"goear/internal/eardbd"
	"goear/internal/eardbd/dbdtest/leak"
	"goear/internal/wire"
)

// startDaemon runs the daemon against an ephemeral TCP port and
// returns its bound addresses (wire first, telemetry last) plus a
// shutdown function that waits for a clean exit and returns the
// accumulated output. Shutdown runs at cleanup if the test has not
// called it, and the test fails if the daemon leaks goroutines.
func startDaemon(t *testing.T, extra ...string) ([]string, func() string) {
	t.Helper()
	leak.Check(t)
	var out strings.Builder
	ready := make(chan []string, 1)
	quit := make(chan struct{})
	done := make(chan error, 1)
	args := append([]string{"-listen", "127.0.0.1:0"}, extra...)
	go func() { done <- run(args, &out, ready, quit) }()
	select {
	case addrs := <-ready:
		stop := sync.OnceValue(func() string {
			close(quit)
			if err := <-done; err != nil {
				t.Errorf("daemon exit: %v", err)
			}
			return out.String()
		})
		t.Cleanup(func() { stop() })
		return addrs, stop
	case err := <-done:
		t.Fatalf("daemon died on startup: %v (output: %s)", err, out.String())
		return nil, nil
	}
}

func sendBatch(t *testing.T, addr string, b wire.Batch) wire.Ack {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	f, err := wire.EncodeBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, f, 0); err != nil {
		t.Fatal(err)
	}
	resp, err := wire.ReadFrame(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	ack, err := resp.AsAck()
	if err != nil {
		t.Fatalf("response = %s: %v", resp.Type, err)
	}
	return ack
}

func TestDaemonLifecycleWithPersistence(t *testing.T) {
	dbFile := filepath.Join(t.TempDir(), "jobs.json")
	addrs, stop := startDaemon(t, "-db", dbFile)

	ack := sendBatch(t, addrs[0], wire.Batch{ID: "n01/1", Node: "n01", Records: []eard.JobRecord{
		{JobID: "j1", StepID: "0", Node: "n01", App: "X", TimeSec: 10, EnergyJ: 3000, AvgPower: 300},
		{JobID: "j1", StepID: "0", Node: "n02", App: "X", TimeSec: 10, EnergyJ: 3100, AvgPower: 310},
	}})
	if ack.Accepted != 2 {
		t.Fatalf("ack = %+v", ack)
	}
	out := stop()
	if !strings.Contains(out, "saved 2 records") {
		t.Errorf("shutdown output missing save line:\n%s", out)
	}

	// A restarted daemon loads the persisted database and serves it.
	addrs2, stop2 := startDaemon(t, "-db", dbFile)
	conn, err := net.Dial("tcp", addrs2[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	res, err := eardbd.Query(conn, wire.Query{Kind: wire.QueryAggregate}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(res.Data), `"records":2`) {
		t.Errorf("aggregate after restart = %s", res.Data)
	}
	out2 := stop2()
	if !strings.Contains(out2, "loaded 2 records") {
		t.Errorf("restart output missing load line:\n%s", out2)
	}
}

func TestDaemonUnixSocket(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "eardbd.sock")
	var out strings.Builder
	ready := make(chan []string, 1)
	quit := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- run([]string{"-unix", sock}, &out, ready, quit) }()
	select {
	case <-ready:
	case err := <-done:
		t.Fatalf("daemon died: %v", err)
	}
	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	f, err := wire.EncodeQuery(wire.Query{Kind: wire.QueryStats})
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, f, 0); err != nil {
		t.Fatal(err)
	}
	if resp, err := wire.ReadFrame(conn, 0); err != nil || resp.Type != wire.TypeResult {
		t.Errorf("stats over unix socket: %v %v", resp.Type, err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	close(quit)
	if err := <-done; err != nil {
		t.Errorf("exit: %v", err)
	}
}

// TestFederationRootDaemon runs two ingest daemons and a -fed root
// over them: the root must serve the merged cluster snapshot and
// refuse record batches.
func TestFederationRootDaemon(t *testing.T) {
	addrs1, stop1 := startDaemon(t)
	defer stop1()
	addrs2, stop2 := startDaemon(t)
	defer stop2()
	addr1, addr2 := addrs1[0], addrs2[0]
	sendBatch(t, addr1, wire.Batch{ID: "n01/1", Node: "n01", Records: []eard.JobRecord{
		{JobID: "j1", StepID: "0", Node: "n01", App: "X", TimeSec: 10, EnergyJ: 3000, AvgPower: 300},
	}})
	sendBatch(t, addr2, wire.Batch{ID: "n02/1", Node: "n02", Records: []eard.JobRecord{
		{JobID: "j1", StepID: "0", Node: "n02", App: "X", TimeSec: 10, EnergyJ: 3100, AvgPower: 310},
	}})

	rootAddrs, stopRoot := startDaemon(t, "-fed", addr1+","+addr2)
	defer stopRoot()
	rootAddr := rootAddrs[0]
	conn, err := net.Dial("tcp", rootAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	res, err := eardbd.Query(conn, wire.Query{Kind: wire.QueryAggregate}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"nodes":2`, `"records":2`, `"total_power_w":610`} {
		if !strings.Contains(string(res.Data), want) {
			t.Errorf("root aggregate missing %s: %s", want, res.Data)
		}
	}

	// The root is a read path: batches must be refused, not merged.
	conn2, err := net.Dial("tcp", rootAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	f, err := wire.EncodeBatch(wire.Batch{ID: "n03/1", Node: "n03", Records: []eard.JobRecord{
		{JobID: "j2", StepID: "0", Node: "n03", App: "X", TimeSec: 10, EnergyJ: 1000, AvgPower: 100},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn2, f, 0); err != nil {
		t.Fatal(err)
	}
	resp, err := wire.ReadFrame(conn2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != wire.TypeError {
		t.Errorf("batch to root answered %s, want error", resp.Type)
	}
}

func TestDaemonFlagErrors(t *testing.T) {
	var out strings.Builder
	if err := run(nil, &out, nil, nil); err == nil {
		t.Error("no listener accepted")
	}
	if err := run([]string{"-listen", "127.0.0.1:0", "-fed", "a:1", "-db", "x.json"}, &out, nil, nil); err == nil {
		t.Error("-fed with -db accepted")
	}
	if err := run([]string{"-listen", "127.0.0.1:0", "-fed", "a:1", "-max-batch", "9"}, &out, nil, nil); err == nil {
		t.Error("-fed with -max-batch accepted")
	}
	if err := run([]string{"-listen", "127.0.0.1:0", "-fed", ",,"}, &out, nil, nil); err == nil {
		t.Error("empty -fed list accepted")
	}
	if err := run([]string{"-listen", "no-such-host-xyz:99999"}, &out, nil, nil); err == nil {
		t.Error("bad listen address accepted")
	}
	if err := run([]string{"-listen", "127.0.0.1:0", "-trace"}, &out, nil, nil); err == nil {
		t.Error("-trace without -telemetry accepted")
	}
	bad := filepath.Join(t.TempDir(), "corrupt.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-listen", "127.0.0.1:0", "-db", bad}, &out, nil, nil); err == nil {
		t.Error("corrupt db file accepted")
	}
}

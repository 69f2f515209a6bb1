package eardbd

import (
	"encoding/json"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"testing"

	"goear/internal/eard"
	"goear/internal/eardbd/dbdtest/leak"
	"goear/internal/wire"
)

func rec(job, step, node string, power float64) eard.JobRecord {
	return eard.JobRecord{
		JobID: job, StepID: step, Node: node, App: "BT-MZ.C", Policy: "min_energy",
		TimeSec: 100, EnergyJ: power * 100, AvgPower: power,
	}
}

// startServer serves one listener on a background goroutine and
// returns the server plus its address.
func startServer(t *testing.T, network, addr string, cfg Config) (*Server, net.Addr) {
	t.Helper()
	leak.Check(t)
	l, err := net.Listen(network, addr)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eard.NewDB(), cfg)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve returned: %v", err)
		}
	})
	return srv, l.Addr()
}

// exchange writes one frame and reads the response.
func exchange(t *testing.T, conn net.Conn, f wire.Frame) wire.Frame {
	t.Helper()
	if err := wire.WriteFrame(conn, f, 0); err != nil {
		t.Fatal(err)
	}
	resp, err := wire.ReadFrame(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func mustBatch(t *testing.T, b wire.Batch) wire.Frame {
	t.Helper()
	f, err := wire.EncodeBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestServerAcceptsAndAcks(t *testing.T) {
	srv, addr := startServer(t, "tcp", "127.0.0.1:0", Config{})
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	b := wire.Batch{ID: "n01/1", Node: "n01", Records: []eard.JobRecord{
		rec("j1", "0", "n01", 300), rec("j1", "0", "n02", 310),
	}}
	resp := exchange(t, conn, mustBatch(t, b))
	ack, err := resp.AsAck()
	if err != nil {
		t.Fatalf("response = %s: %v", resp.Type, err)
	}
	if ack.BatchID != "n01/1" || ack.Accepted != 2 || ack.Duplicate != 0 || ack.Replaced != 0 {
		t.Errorf("ack = %+v", ack)
	}
	if srv.DB().Len() != 2 {
		t.Errorf("db holds %d records, want 2", srv.DB().Len())
	}

	// The identical batch ID is deduplicated without touching the DB.
	resp = exchange(t, conn, mustBatch(t, b))
	ack, err = resp.AsAck()
	if err != nil {
		t.Fatal(err)
	}
	if ack.Accepted != 0 || ack.Duplicate != 2 {
		t.Errorf("replay ack = %+v", ack)
	}

	// Same records under a new batch ID: record-level dedup catches
	// them.
	b2 := b
	b2.ID = "n01/2"
	resp = exchange(t, conn, mustBatch(t, b2))
	if ack, _ = resp.AsAck(); ack.Accepted != 0 || ack.Duplicate != 2 {
		t.Errorf("new-id replay ack = %+v", ack)
	}

	// An updated record for an existing key counts as replaced.
	b3 := wire.Batch{ID: "n01/3", Node: "n01", Records: []eard.JobRecord{rec("j1", "0", "n01", 305)}}
	resp = exchange(t, conn, mustBatch(t, b3))
	if ack, _ = resp.AsAck(); ack.Replaced != 1 || ack.Accepted != 0 {
		t.Errorf("update ack = %+v", ack)
	}

	st := srv.Stats()
	if st.Batches != 4 || st.DuplicateBatches != 1 || st.RecordsAccepted != 2 ||
		st.RecordsDuplicate != 2 || st.RecordsReplaced != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestServerOverUnixSocket(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("unix sockets")
	}
	sock := filepath.Join(t.TempDir(), "eardbd.sock")
	srv, addr := startServer(t, "unix", sock, Config{})
	conn, err := net.Dial("unix", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	resp := exchange(t, conn, mustBatch(t, wire.Batch{ID: "n02/1", Node: "n02",
		Records: []eard.JobRecord{rec("j2", "0", "n02", 250)}}))
	if ack, err := resp.AsAck(); err != nil || ack.Accepted != 1 {
		t.Errorf("unix ack = %+v, %v", resp, err)
	}
	if srv.DB().Len() != 1 {
		t.Errorf("db holds %d records", srv.DB().Len())
	}
}

func TestServerRejectsBadBatches(t *testing.T) {
	srv, addr := startServer(t, "tcp", "127.0.0.1:0", Config{MaxBatchRecords: 2})
	dial := func() net.Conn {
		conn, err := net.Dial("tcp", addr.String())
		if err != nil {
			t.Fatal(err)
		}
		return conn
	}
	conn := dial()
	defer conn.Close()

	// Oversized batch: rejected, connection stays usable.
	big := wire.Batch{ID: "n01/1", Node: "n01", Records: []eard.JobRecord{
		rec("j", "0", "a", 1), rec("j", "0", "b", 1), rec("j", "0", "c", 1),
	}}
	resp := exchange(t, conn, mustBatch(t, big))
	if ef, err := resp.AsError(); err != nil || ef.Message == "" {
		t.Fatalf("oversized batch response = %s %v", resp.Type, err)
	}

	// Missing batch ID.
	resp = exchange(t, conn, mustBatch(t, wire.Batch{Node: "n01",
		Records: []eard.JobRecord{rec("j", "0", "a", 1)}}))
	if _, err := resp.AsError(); err != nil {
		t.Fatalf("id-less batch response = %s", resp.Type)
	}

	// Invalid record: the whole batch is refused atomically.
	bad := wire.Batch{ID: "n01/2", Node: "n01", Records: []eard.JobRecord{
		rec("j", "0", "a", 1), {JobID: "", Node: "x", TimeSec: 1},
	}}
	resp = exchange(t, conn, mustBatch(t, bad))
	if _, err := resp.AsError(); err != nil {
		t.Fatalf("invalid-record response = %s", resp.Type)
	}
	if srv.DB().Len() != 0 {
		t.Errorf("rejected batches leaked %d records into the db", srv.DB().Len())
	}
	if st := srv.Stats(); st.BatchesRejected != 3 {
		t.Errorf("stats = %+v, want 3 rejected", st)
	}

	// The connection survived all three rejections.
	resp = exchange(t, conn, mustBatch(t, wire.Batch{ID: "n01/3", Node: "n01",
		Records: []eard.JobRecord{rec("j", "0", "a", 1)}}))
	if ack, err := resp.AsAck(); err != nil || ack.Accepted != 1 {
		t.Errorf("post-rejection ack = %+v, %v", resp, err)
	}
}

func TestServerClosesOnGarbage(t *testing.T) {
	srv, addr := startServer(t, "tcp", "127.0.0.1:0", Config{})
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\n\r\n this is not a frame")); err != nil {
		t.Fatal(err)
	}
	// The server answers with an error frame, then closes.
	resp, err := wire.ReadFrame(conn, 0)
	if err != nil {
		t.Fatalf("expected an error frame before close: %v", err)
	}
	if resp.Type != wire.TypeError {
		t.Errorf("response = %s, want error", resp.Type)
	}
	if _, err := wire.ReadFrame(conn, 0); err == nil {
		t.Error("connection still open after garbage")
	}
	if st := srv.Stats(); st.ProtocolErrors == 0 {
		t.Errorf("stats = %+v, want a protocol error", st)
	}
}

func TestServerQueries(t *testing.T) {
	srv, addr := startServer(t, "tcp", "127.0.0.1:0", Config{})
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	batch := wire.Batch{ID: "n01/1", Node: "n01", Records: []eard.JobRecord{
		rec("j1", "0", "n01", 300), rec("j1", "0", "n02", 310), rec("j2", "0", "n03", 250),
	}}
	if _, err := exchange(t, conn, mustBatch(t, batch)).AsAck(); err != nil {
		t.Fatal(err)
	}

	query := func(q wire.Query) wire.Result {
		t.Helper()
		qf, err := wire.EncodeQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := exchange(t, conn, qf).AsResult()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	var agg Aggregate
	res := query(wire.Query{Kind: wire.QueryAggregate})
	if err := json.Unmarshal(res.Data, &agg); err != nil {
		t.Fatal(err)
	}
	if agg.Nodes != 3 || agg.TotalPowerW != 860 || agg.Records != 3 {
		t.Errorf("aggregate = %+v", agg)
	}
	wantEnergy := 300*100.0 + 310*100 + 250*100
	if agg.TotalEnergyJ != wantEnergy {
		t.Errorf("aggregate energy = %g, want %g", agg.TotalEnergyJ, wantEnergy)
	}

	var sums []eard.JobSummary
	res = query(wire.Query{Kind: wire.QueryJobs})
	if err := json.Unmarshal(res.Data, &sums); err != nil {
		t.Fatal(err)
	}
	if len(sums) != 2 || sums[0].JobID != "j1" || sums[0].Nodes != 2 || sums[1].JobID != "j2" {
		t.Errorf("jobs = %+v", sums)
	}

	var sum eard.JobSummary
	res = query(wire.Query{Kind: wire.QuerySummary, Job: "j1", Step: "0"})
	if err := json.Unmarshal(res.Data, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Nodes != 2 || sum.EnergyJ != 61000 {
		t.Errorf("summary = %+v", sum)
	}

	var st Stats
	res = query(wire.Query{Kind: wire.QueryStats})
	if err := json.Unmarshal(res.Data, &st); err != nil {
		t.Fatal(err)
	}
	if st.Batches != 1 || st.RecordsAccepted != 3 || st.Queries < 3 {
		t.Errorf("stats = %+v", st)
	}

	// Unknown kinds and missing jobs answer with an error frame but
	// keep the connection.
	for _, q := range []wire.Query{{Kind: "bogus"}, {Kind: wire.QuerySummary, Job: "nope"}} {
		qf, err := wire.EncodeQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if resp := exchange(t, conn, qf); resp.Type != wire.TypeError {
			t.Errorf("query %+v response = %s, want error", q, resp.Type)
		}
	}
	if _, err := exchange(t, conn, mustBatch(t, wire.Batch{ID: "n01/2", Node: "n01",
		Records: []eard.JobRecord{rec("j3", "0", "n01", 200)}})).AsAck(); err != nil {
		t.Errorf("connection dead after failed queries: %v", err)
	}
	if srv.Aggregate().Nodes != 3 {
		t.Errorf("aggregate after update = %+v", srv.Aggregate())
	}
}

func TestServerFrameLimitIsEnforced(t *testing.T) {
	_, addr := startServer(t, "tcp", "127.0.0.1:0", Config{MaxFramePayload: 256})
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var recs []eard.JobRecord
	for i := 0; i < 50; i++ {
		recs = append(recs, rec("j", "0", fmt.Sprintf("n%02d", i), 100))
	}
	// Write with a generous local limit; the server's tighter bound
	// must refuse the frame without reading the payload.
	if err := wire.WriteFrame(conn, mustBatch(t, wire.Batch{ID: "x/1", Node: "x", Records: recs}), 1<<20); err != nil {
		t.Fatal(err)
	}
	resp, err := wire.ReadFrame(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	ef, err := resp.AsError()
	if err != nil {
		t.Fatalf("response = %s", resp.Type)
	}
	if ef.Message == "" {
		t.Error("empty error message")
	}
}

func TestSeenWindowEviction(t *testing.T) {
	srv, addr := startServer(t, "tcp", "127.0.0.1:0", Config{MaxSeenBatches: 2})
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 1; i <= 3; i++ {
		b := wire.Batch{ID: fmt.Sprintf("n01/%d", i), Node: "n01",
			Records: []eard.JobRecord{rec("j", "0", fmt.Sprintf("n%02d", i), 100)}}
		if _, err := exchange(t, conn, mustBatch(t, b)).AsAck(); err != nil {
			t.Fatal(err)
		}
	}
	// Batch n01/1 was evicted from the ID window; its replay is still
	// absorbed record-by-record.
	resp := exchange(t, conn, mustBatch(t, wire.Batch{ID: "n01/1", Node: "n01",
		Records: []eard.JobRecord{rec("j", "0", "n01", 100)}}))
	ack, err := resp.AsAck()
	if err != nil {
		t.Fatal(err)
	}
	if ack.Accepted != 0 || ack.Duplicate != 1 {
		t.Errorf("evicted replay ack = %+v", ack)
	}
	if srv.DB().Len() != 3 {
		t.Errorf("db = %d records, want 3", srv.DB().Len())
	}
}

func TestServeAfterCloseRefuses(t *testing.T) {
	srv := NewServer(eard.NewDB(), Config{})
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(l); err == nil {
		t.Error("Serve on a closed server succeeded")
	}
}

package fed

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"goear/internal/eard"
	"goear/internal/eardbd"
	"goear/internal/eardbd/dbdtest/leak"
	"goear/internal/eardbd/ring"
	"goear/internal/wire"
)

// shardFixture is one in-process shard: a server plus a dialer that
// hands out net.Pipe ends served by it.
type shardFixture struct {
	name string
	srv  *eardbd.Server
}

func (s shardFixture) dial() (net.Conn, error) {
	client, server := net.Pipe()
	go s.srv.ServeConn(server)
	return client, nil
}

// buildFederation routes the canonical workload (nodes × 10 records)
// through n shards by ring placement and returns the shards plus a
// root over them.
func buildFederation(t *testing.T, nodes, nShards int) ([]shardFixture, *Root) {
	t.Helper()
	leak.Check(t)
	shards := make([]shardFixture, nShards)
	rg := ring.New(0)
	for i := range shards {
		shards[i] = shardFixture{name: fmt.Sprintf("s%d", i), srv: eardbd.NewServer(eard.NewDB(), eardbd.Config{})}
		if err := rg.Add(shards[i].name); err != nil {
			t.Fatal(err)
		}
	}
	byName := map[string]shardFixture{}
	for _, s := range shards {
		byName[s.name] = s
	}
	for i := 0; i < nodes; i++ {
		node := fmt.Sprintf("n%02d", i)
		owner, ok := rg.Owner(node)
		if !ok {
			t.Fatal("empty ring")
		}
		c, err := eardbd.NewClient(eardbd.ClientConfig{
			Node:         node,
			Dial:         byName[owner].dial,
			Clock:        eardbd.NewFakeClock(0),
			Jitter:       rand.New(rand.NewSource(int64(i))),
			BatchRecords: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		for j := 0; j < 10; j++ {
			power := 250 + 40*rng.Float64()
			r := eard.JobRecord{
				JobID: fmt.Sprintf("job%d", j%3), StepID: fmt.Sprint(j / 3), Node: node,
				App: "BT-MZ.C", Policy: "min_energy",
				TimeSec: 120, EnergyJ: power * 120, AvgPower: power,
				AvgCPU: 2.1, AvgIMC: 2.4,
			}
			if err := c.Enqueue(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	cfg := Config{}
	for _, s := range shards {
		cfg.Shards = append(cfg.Shards, Shard{Name: s.name, Dial: s.dial})
	}
	root, err := NewRoot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := root.Close(); err != nil {
			t.Errorf("root close: %v", err)
		}
		for _, s := range shards {
			if err := s.srv.Close(); err != nil {
				t.Errorf("shard %s close: %v", s.name, err)
			}
		}
	})
	return shards, root
}

func TestRootMergesAcrossShardCounts(t *testing.T) {
	const nodes = 12
	var ref []byte
	for _, nShards := range []int{1, 2, 4} {
		_, root := buildFederation(t, nodes, nShards)
		agg, err := root.Aggregate()
		if err != nil {
			t.Fatal(err)
		}
		if agg.Nodes != nodes || agg.Records != nodes*10 {
			t.Fatalf("shards=%d aggregate = %+v", nShards, agg)
		}
		nps, err := root.MergedNodePowers()
		if err != nil {
			t.Fatal(err)
		}
		sums, err := root.JobSummaries()
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(struct {
			Agg  eardbd.Aggregate
			NPs  []wire.NodePower
			Sums []eard.JobSummary
		}{agg, nps, sums})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = blob
			continue
		}
		if string(blob) != string(ref) {
			t.Fatalf("shards=%d snapshot differs:\n--- want\n%s\n--- got\n%s", nShards, ref, blob)
		}
	}
}

func TestRootServesWireProtocol(t *testing.T) {
	_, root := buildFederation(t, 6, 2)
	dial := func() (net.Conn, error) {
		client, server := net.Pipe()
		go root.ServeConn(server)
		return client, nil
	}

	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	res, err := eardbd.Query(conn, wire.Query{Kind: wire.QueryAggregate}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var agg eardbd.Aggregate
	if err := res.Decode(&agg); err != nil {
		t.Fatal(err)
	}
	direct, err := root.Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(agg, direct) {
		t.Fatalf("wire aggregate %+v != direct %+v", agg, direct)
	}

	// Stats through the root are the summed shard ingest counters.
	res, err = eardbd.Query(conn, wire.Query{Kind: wire.QueryStats}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var st eardbd.Stats
	if err := res.Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.RecordsAccepted != 60 {
		t.Fatalf("merged stats = %+v, want 60 accepted", st)
	}

	// Batches are refused: the root is a read path.
	bf, err := wire.EncodeBatch(wire.Batch{ID: "x/1", Node: "x", Records: []eard.JobRecord{
		{JobID: "j", StepID: "0", Node: "x", TimeSec: 1, EnergyJ: 1, AvgPower: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	conn2, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if err := wire.WriteFrame(conn2, bf, 0); err != nil {
		t.Fatal(err)
	}
	resp, err := wire.ReadFrame(conn2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != wire.TypeError {
		t.Fatalf("root answered %s to a batch, want error", resp.Type)
	}
}

func TestIslandSource(t *testing.T) {
	shards, root := buildFederation(t, 10, 2)
	totalViaIslands := 0.0
	nodesSeen := 0
	for _, s := range shards {
		src, err := root.IslandSource(s.name)
		if err != nil {
			t.Fatal(err)
		}
		powers := src.NodePowers()
		nodesSeen += len(powers)
		for _, p := range powers {
			totalViaIslands += p
		}
	}
	if nodesSeen != 10 {
		t.Fatalf("islands cover %d nodes, want 10", nodesSeen)
	}
	agg, err := root.Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	// Same multiset of node powers; summation order differs across
	// islands, so compare within a float tolerance.
	if diff := totalViaIslands - agg.TotalPowerW; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("island power sum %g != aggregate %g", totalViaIslands, agg.TotalPowerW)
	}
	if _, err := root.IslandSource("nope"); err == nil {
		t.Fatal("IslandSource accepted an unknown shard")
	}
}

func TestRootConfigValidation(t *testing.T) {
	dial := func() (net.Conn, error) { return nil, nil }
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no shards", Config{}},
		{"unnamed shard", Config{Shards: []Shard{{Dial: dial}}}},
		{"no dial", Config{Shards: []Shard{{Name: "s1"}}}},
		{"duplicate", Config{Shards: []Shard{{Name: "s1", Dial: dial}, {Name: "s1", Dial: dial}}}},
	}
	for _, tc := range cases {
		if _, err := NewRoot(tc.cfg); err == nil {
			t.Errorf("%s: NewRoot accepted invalid config", tc.name)
		}
	}
}

func TestUnreachableShardSurfacesError(t *testing.T) {
	good := shardFixture{name: "s0", srv: eardbd.NewServer(eard.NewDB(), eardbd.Config{})}
	root, err := NewRoot(Config{Shards: []Shard{
		{Name: "s0", Dial: good.dial},
		{Name: "s1", Dial: func() (net.Conn, error) { return nil, fmt.Errorf("down") }},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := root.Aggregate(); err == nil {
		t.Fatal("aggregate over a dead shard succeeded")
	}
	if got := root.NodePowers(); got != nil {
		t.Fatalf("NodePowers over a dead shard = %v, want nil", got)
	}
	st := root.Stats()
	if st.FanoutErrors == 0 {
		t.Fatalf("fan-out errors not counted: %+v", st)
	}
}

// TestFanOutQueriesShardsConcurrently pins the concurrent fan-out: a
// barrier in every shard's dial function releases only once all dials
// are in flight, so a root that queried shards one at a time would
// deadlock here. The merged view must still come out in shard order.
func TestFanOutQueriesShardsConcurrently(t *testing.T) {
	const n = 4
	var barrier sync.WaitGroup
	barrier.Add(n)
	shards, _ := buildFederation(t, 8, n)
	cfg := Config{}
	for _, s := range shards {
		s := s
		cfg.Shards = append(cfg.Shards, Shard{Name: s.name, Dial: func() (net.Conn, error) {
			barrier.Done()
			barrier.Wait()
			return s.dial()
		}})
	}
	root, err := NewRoot(cfg)
	if err != nil {
		t.Fatal(err)
	}

	type answer struct {
		nps []wire.NodePower
		err error
	}
	done := make(chan answer, 1)
	go func() {
		nps, err := root.MergedNodePowers()
		done <- answer{nps, err}
	}()
	select {
	case a := <-done:
		if a.err != nil {
			t.Fatal(a.err)
		}
		// The concurrent fan-out must merge identically to the plain
		// sequential-dial root over the same shards.
		_, plain := buildFederation(t, 8, n)
		want, err := plain.MergedNodePowers()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.nps, want) {
			t.Errorf("concurrent merge diverges:\n got %v\nwant %v", a.nps, want)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("fan-out deadlocked: shard queries are not concurrent")
	}
}

package main

import (
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"goear/internal/accounting"
	"goear/internal/eard"
	"goear/internal/eardbd"
	"goear/internal/eardbd/fed"
	"goear/internal/loadgen"
	"goear/internal/telemetry/trace"
)

// Shared machinery of the two service workloads: pre-built node
// traffic, one client session per node, byte-counting connections and
// the federation root the queries go through.

// serviceShards is the in-process shard count; batchRecords the
// client batch-size trigger. Both follow the 10k-node federation
// battery (loadgen) and earload's defaults.
const (
	serviceShards = 4
	batchRecords  = 4
	// maxFrame is earload's frame cap: the record dumps a federation
	// root merges grow with the node count.
	maxFrame = 64 << 20
)

// nodeInput is one node reporter's traffic, built during set-up.
type nodeInput struct {
	name   string
	recs   []eard.JobRecord
	acct   []accounting.Record
	jitter *rand.Rand
}

// records is the node's record count, both kinds.
func (n *nodeInput) records() int { return len(n.recs) + len(n.acct) }

// buildNodes generates the traffic of count nodes with loadgen's
// record generators: content depends only on (seed, node index), and
// naming shifts the index so disjoint node sets can share a store.
func buildNodes(seed int64, first, count, recsPerNode, acctPerNode int) ([]nodeInput, error) {
	gen, err := loadgen.New(loadgen.Config{
		Nodes:          first + count,
		RecordsPerNode: recsPerNode,
		AcctPerNode:    acctPerNode,
		BatchRecords:   batchRecords,
		Seed:           seed,
	})
	if err != nil {
		return nil, err
	}
	out := make([]nodeInput, count)
	for k := range out {
		i := first + k
		acct, err := gen.AcctRecords(i)
		if err != nil {
			return nil, err
		}
		out[k] = nodeInput{
			name:   loadgen.NodeName(i),
			recs:   gen.Records(i),
			acct:   acct,
			jitter: rand.New(&splitmix{s: uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)}),
		}
	}
	return out, nil
}

// splitmix is a small seeded rand.Source for the clients' backoff
// jitter: clients require one each, and math/rand's default source
// costs about 5 KB and 10 µs to seed — for 10k nodes, harness work
// the measurement should not carry.
type splitmix struct{ s uint64 }

func (x *splitmix) Uint64() uint64 {
	x.s += 0x9e3779b97f4a7c15
	z := x.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (x *splitmix) Int63() int64 { return int64(x.Uint64() >> 1) }
func (x *splitmix) Seed(s int64) { x.s = uint64(s) }

// wallClock is the client clock of traced runs, so client spans carry
// wall times. Sleep returns at once: a backoff only happens after a
// failed attempt, which already counts as a failed operation, and
// waiting it out would only stretch the run.
type wallClock struct{}

func (wallClock) Now() float64    { return wallNow() }
func (wallClock) Sleep(_ float64) {}

// countConn counts the bytes crossing a connection in each direction.
type countConn struct {
	net.Conn
	w, r *atomic.Int64
}

func (c countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.w.Add(int64(n))
	return n, err
}

func (c countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.r.Add(int64(n))
	return n, err
}

// byteCount wraps dial so every connection it opens is counted, when
// counting is on (traced runs only; nil counters pass dial through).
func byteCount(dial func() (net.Conn, error), w, r *atomic.Int64) func() (net.Conn, error) {
	if w == nil {
		return dial
	}
	return func() (net.Conn, error) {
		c, err := dial()
		if err != nil {
			return nil, err
		}
		return countConn{Conn: c, w: w, r: r}, nil
	}
}

// sessionStats is what one node session reports back.
type sessionStats struct {
	client  eardbd.ClientStats
	backlog int // batches left in the spill journal
	err     error
}

// failures counts the batches of a session that did not go
// through cleanly on the first attempt.
func (s sessionStats) failures() int {
	return s.client.BatchesSpilled + s.client.BatchesRejected + s.client.Retries
}

// addStats sums client counters.
func addStats(a *eardbd.ClientStats, b eardbd.ClientStats) {
	a.Enqueued += b.Enqueued
	a.Flushes += b.Flushes
	a.BatchesSent += b.BatchesSent
	a.RecordsSent += b.RecordsSent
	a.Retries += b.Retries
	a.Redials += b.Redials
	a.BatchesSpilled += b.BatchesSpilled
	a.RecordsSpilled += b.RecordsSpilled
	a.BatchesReplayed += b.BatchesReplayed
	a.BatchesRejected += b.BatchesRejected
	a.RecordsDropped += b.RecordsDropped
}

// clientFor builds a node's reporting client the way a node daemon
// does: memory spill journal, seeded jitter, batch trigger of four.
func clientFor(n *nodeInput, dial func() (net.Conn, error), tb *trace.Buffer) (*eardbd.Client, *eardbd.Journal, error) {
	journal, err := eardbd.OpenJournal("")
	if err != nil {
		return nil, nil, err
	}
	var clk eardbd.Clock = eardbd.NewFakeClock(0)
	if tb != nil {
		clk = wallClock{}
	}
	c, err := eardbd.NewClient(eardbd.ClientConfig{
		Node:         n.name,
		Dial:         dial,
		Clock:        clk,
		Jitter:       n.jitter,
		BatchRecords: batchRecords,
		Journal:      journal,
		Trace:        tb,
	})
	return c, journal, err
}

// session reports one node's whole traffic through a fresh client,
// from NewClient to Close. Every call that completes a batch (the
// enqueue that fills it, or the Close that ships the remainder) is
// timed as that batch's round trip and appended to rtts.
func session(n *nodeInput, dial func() (net.Conn, error), tb *trace.Buffer, rtts []float64) ([]float64, sessionStats) {
	c, journal, err := clientFor(n, dial, tb)
	if err != nil {
		return rtts, sessionStats{err: err}
	}
	var nodeErr error
	total := n.records()
	for k := 0; k < total; k++ {
		full := (k+1)%batchRecords == 0
		var t0 time.Time
		if full {
			t0 = time.Now()
		}
		var err error
		if k < len(n.recs) {
			err = c.Enqueue(n.recs[k])
		} else {
			err = c.EnqueueAcct(n.acct[k-len(n.recs)])
		}
		if err != nil && nodeErr == nil {
			nodeErr = err
		}
		if full {
			rtts = append(rtts, time.Since(t0).Seconds())
		}
	}
	t0 := time.Now()
	if err := c.Close(); err != nil && nodeErr == nil {
		nodeErr = err
	}
	if total%batchRecords != 0 {
		rtts = append(rtts, time.Since(t0).Seconds())
	}
	return rtts, sessionStats{client: c.Stats(), backlog: journal.Len(), err: nodeErr}
}

// newCluster builds the in-process shard fleet; traced runs hand the
// shards the span buffer and a wall clock.
func newCluster(tb *trace.Buffer) (*loadgen.Cluster, error) {
	cfg := eardbd.Config{MaxFramePayload: maxFrame}
	if tb != nil {
		cfg.Trace, cfg.Now = tb, wallNow
	}
	return loadgen.NewCluster(serviceShards, cfg)
}

// newRoot builds a federation root over the cluster's shards with
// fed.NewRoot; traced runs hand it the span buffer and a wall clock,
// and count the bytes it reads from the shards.
func newRoot(cl *loadgen.Cluster, tb *trace.Buffer, w, r *atomic.Int64) (*fed.Root, error) {
	cfg := fed.Config{MaxFramePayload: maxFrame}
	if tb != nil {
		cfg.Trace, cfg.Now = tb, wallNow
	}
	for _, name := range cl.Names() {
		name := name
		cfg.Shards = append(cfg.Shards, fed.Shard{
			Name: name,
			Dial: byteCount(func() (net.Conn, error) { return cl.DialShard(name) }, w, r),
		})
	}
	return fed.NewRoot(cfg)
}

// preload reports every node's traffic into the cluster, two sessions
// at a time, and fails on any delivery problem.
func preload(cl *loadgen.Cluster, nodes []nodeInput) error {
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for lane := 0; lane < 2; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			var scratch []float64
			for i := lane; i < len(nodes); i += 2 {
				var st sessionStats
				scratch, st = session(&nodes[i], cl.DialFor(nodes[i].name), nil, scratch[:0])
				err := st.err
				if err == nil && (st.failures() > 0 || st.backlog > 0) {
					err = fmt.Errorf("%d batches failed, %d left in the journal", st.failures(), st.backlog)
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("preload %s: %w", nodes[i].name, err)
					}
					mu.Unlock()
					return
				}
			}
		}(lane)
	}
	wg.Wait()
	return firstErr
}

// wantAcct returns the accounting records of nodes in canonical key
// order: what a complete query walk over them must return.
func wantAcct(nodes []nodeInput) []accounting.Record {
	var out []accounting.Record
	for i := range nodes {
		out = append(out, nodes[i].acct...)
	}
	sortRecords(out)
	return out
}

// sortRecords orders accounting records by key, the store's canonical
// order.
func sortRecords(recs []accounting.Record) {
	sort.Slice(recs, func(i, j int) bool { return recs[i].Key().Less(recs[j].Key()) })
}

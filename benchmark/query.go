package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"goear/internal/accounting"
	"goear/internal/eardbd"
	"goear/internal/eardbd/fed"
	"goear/internal/loadgen"
	"goear/internal/telemetry/trace"
	"goear/internal/wire"
)

// The ingest_query workload reads beside writes. Set-up preloads a
// 500-node store (the ingest workload's per-node traffic) into the 4
// shards. The measuring window then runs two clients at once:
//
//   - a reporter sending accounting batches open loop at a fixed
//     offered rate, each timed from the moment it was due, so a stall
//     also charges the batches queued behind it;
//   - a closed-loop client paging fed.Root.AcctQuery (Limit 200)
//     through a root built with fed.NewRoot, in walks of 20 pages from
//     the start of the job list.
//
// Every paced batch moves a shard generation, so nearly every page
// misses the root's generation-keyed cache and rebuilds the merged
// state: federation fan-out, the merge and the shards' record dumps
// dominate. One 20-page walk is one unit of work.
const (
	queryPreloadNodes = 500
	queryPageLimit    = 200
	queryWalkPages    = 20
	// pacedRate is the reporter's offered load in four-record batches
	// per second; pacedNodes the live nodes it cycles through.
	pacedRate  = 50
	pacedNodes = 100
)

type queryInputs struct {
	preload []nodeInput
	paced   []nodeInput // accounting traffic only; job records unused
	// schedule[k] is the node of the k-th paced batch; its records are
	// that node's next four accounting records.
	schedule []int
}

func buildQuery(seed int64, seconds float64) (*queryInputs, error) {
	in := &queryInputs{}
	content := int64(variant(seed)) + 1
	var err error
	if in.preload, err = buildNodes(content, 0, queryPreloadNodes, ingestRecsPerNode, ingestAcctPerNode); err != nil {
		return nil, err
	}
	// Enough accounting windows for every batch the window can pace
	// (each window yields at least one record).
	batches := int(math.Ceil(seconds*pacedRate)) + 1
	windows := (batches*batchRecords)/pacedNodes + batchRecords
	if in.paced, err = buildNodes(content, queryPreloadNodes, pacedNodes, 1, windows); err != nil {
		return nil, err
	}
	order := rand.New(rand.NewSource(seed)).Perm(pacedNodes)
	in.schedule = make([]int, batches)
	for k := range in.schedule {
		in.schedule[k] = order[k%pacedNodes]
	}
	return in, nil
}

// phaseOut is one measuring phase's outcome.
type phaseOut struct {
	wallS     float64
	dues      []float64 // paced batch latency from due time, seconds
	behindS   float64   // the latest the reporter started a batch
	pages     []float64 // page latencies, seconds
	walks     []float64 // 20-page walk times, seconds
	sent      [][]accounting.Record
	batchErr  int
	queryErr  int
	allocMB   float64
	rssMB     float64
	spans     []trace.Span
	dropped   uint64
	rootRead  int64
	pacedSent int64
	stats     fed.Stats
	cluster   *loadgen.Cluster
	root      *fed.Root
}

// fleet is a preloaded shard fleet with its root and the paced
// reporter's clients, ready for one measuring phase.
type fleet struct {
	tb      *trace.Buffer
	bt      *trace.Tracer
	rootR   *atomic.Int64
	sent    *atomic.Int64 // bytes the paced clients wrote
	cluster *loadgen.Cluster
	root    *fed.Root
	clients []*eardbd.Client
}

// prepare preloads a fresh fleet. With traced set, the shards, the
// root and the paced clients record into one span buffer, and the
// root counts the bytes it reads from the shards.
func (in *queryInputs) prepare(traced bool) (*fleet, error) {
	f := &fleet{}
	var rootW, recvd *atomic.Int64
	if traced {
		f.tb = trace.NewBuffer(spanBufferCap)
		f.bt = trace.New("bench", f.tb)
		rootW, f.rootR = new(atomic.Int64), new(atomic.Int64)
		f.sent, recvd = new(atomic.Int64), new(atomic.Int64)
	}
	var err error
	if f.cluster, err = newCluster(f.tb); err != nil {
		return nil, err
	}
	if err := preload(f.cluster, in.preload); err != nil {
		_ = f.cluster.Close()
		return nil, err
	}
	if f.root, err = newRoot(f.cluster, f.tb, rootW, f.rootR); err != nil {
		_ = f.cluster.Close()
		return nil, err
	}
	f.clients = make([]*eardbd.Client, pacedNodes)
	for i := range f.clients {
		if f.clients[i], _, err = clientFor(&in.paced[i], byteCount(f.cluster.DialFor(in.paced[i].name), f.sent, recvd), f.tb); err != nil {
			_ = f.cluster.Close()
			return nil, err
		}
	}
	return f, nil
}

// phase runs the two clients against a prepared fleet for the given
// time. On a traced fleet the query client pages through the root's
// wire API instead of the direct call: the served path is the one
// that opens fed.query spans.
func (in *queryInputs) phase(f *fleet, seconds float64) (*phaseOut, error) {
	traced, bt, root, clients := f.tb != nil, f.bt, f.root, f.clients
	out := &phaseOut{cluster: f.cluster, root: root}
	next := make([]int, pacedNodes)
	page := root.AcctQuery
	if traced {
		c, srv := net.Pipe()
		done := make(chan struct{})
		go func() {
			root.ServeConn(srv)
			close(done)
		}()
		defer func() {
			_ = c.Close()
			<-done
		}()
		page = wirePager(c, bt)
	}

	freshUnit()
	a0 := allocMB()
	start := time.Now()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		q := accounting.Query{Limit: queryPageLimit}
		n, w0 := 0, time.Now()
		for {
			select {
			case <-stop:
				return
			default:
			}
			t0 := time.Now()
			p, err := page(q)
			out.pages = append(out.pages, time.Since(t0).Seconds())
			n++
			if err != nil {
				out.queryErr++
				q.Cursor, n, w0 = "", 0, time.Now()
				continue
			}
			q.Cursor = p.Next
			if n == queryWalkPages || p.Next == "" {
				if n == queryWalkPages {
					out.walks = append(out.walks, time.Since(w0).Seconds())
				}
				q.Cursor, n, w0 = "", 0, time.Now()
			}
		}
	}()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(float64(k) / pacedRate * float64(time.Second)))
		if due.Sub(start).Seconds() >= seconds {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if late := time.Since(due).Seconds(); late > out.behindS {
			out.behindS = late
		}
		node := in.schedule[k]
		recs := in.paced[node].acct[next[node] : next[node]+batchRecords]
		next[node] += batchRecords
		var sp *trace.Active
		if bt != nil {
			sp = bt.Root("bench.paced_batch", wallNow())
		}
		var failed bool
		for _, r := range recs {
			if err := clients[node].EnqueueAcct(r); err != nil {
				failed = true
			}
		}
		sp.End(wallNow())
		out.dues = append(out.dues, time.Since(due).Seconds())
		out.sent = append(out.sent, recs)
		if failed {
			out.batchErr++
		}
	}
	close(stop)
	wg.Wait()
	out.wallS = time.Since(start).Seconds()
	out.allocMB, out.rssMB = allocMB()-a0, unitPeakRSSMB()
	for _, c := range clients {
		st := c.Stats()
		out.batchErr += st.BatchesSpilled + st.BatchesRejected + st.Retries
		if err := c.Close(); err != nil || c.Queued() != 0 {
			out.batchErr++
		}
	}
	sort.Float64s(out.dues)
	sort.Float64s(out.pages)
	out.stats = root.Stats()
	if traced {
		out.spans, out.dropped = f.tb.Spans(), f.tb.Dropped()
		out.rootRead, out.pacedSent = f.rootR.Load(), f.sent.Load()
	}
	return out, nil
}

// wirePager pages through the root's wire API on conn, each page in a
// bench.acct_query span whose context rides the query frame so the
// root's fed.query span and everything under it join the page's trace.
func wirePager(conn net.Conn, bt *trace.Tracer) func(accounting.Query) (accounting.Page, error) {
	return func(q accounting.Query) (accounting.Page, error) {
		sp := bt.Root("bench.acct_query", wallNow())
		defer func() { sp.End(wallNow()) }()
		res, err := eardbd.QueryCtx(conn, wire.Query{Kind: wire.QueryAcctJobs, Limit: q.Limit, Cursor: q.Cursor}, maxFrame, sp.Context())
		if err != nil {
			return accounting.Page{}, err
		}
		var p accounting.Page
		err = res.Decode(&p)
		return p, err
	}
}

// check walks the whole job list through the root and compares it
// with the preloaded records plus every paced one.
func (in *queryInputs) check(o *phaseOut) error {
	got, err := accounting.Walk(o.root.AcctQuery, accounting.Query{Limit: queryPageLimit})
	if err != nil {
		return err
	}
	want := wantAcct(in.preload)
	for _, recs := range o.sent {
		want = append(want, recs...)
	}
	sortRecords(want)
	if len(got) != len(want) {
		return fmt.Errorf("walk returned %d records, want %d", len(got), len(want))
	}
	gj, err := json.Marshal(got)
	if err != nil {
		return err
	}
	wj, err := json.Marshal(want)
	if err != nil {
		return err
	}
	return matchDigest("final walk", digest(wj), gj)
}

func (b *bench) tallyPhase(in *queryInputs, o *phaseOut) {
	b.ops(len(o.dues), o.batchErr)
	b.ops(len(o.pages), o.queryErr)
	b.check("final walk", in.check(o))
	b.closeFleet(o.cluster)
}

func runIngestQuery(b *bench) error {
	var in *queryInputs
	var f *fleet
	if err := b.setup(func() (err error) {
		if f != nil {
			b.closeFleet(f.cluster)
		}
		if in, err = buildQuery(b.seed, b.seconds); err != nil {
			return err
		}
		f, err = in.prepare(false)
		return err
	}); err != nil {
		return err
	}
	if b.traced {
		b.closeFleet(f.cluster)
		return traceQuery(b, in)
	}
	o, err := in.phase(f, b.seconds)
	if err != nil {
		return err
	}
	b.tallyPhase(in, o)
	b.set("unit_s", "s", median(o.walks))
	b.set("throughput_per_s", "1/s", float64(len(o.pages))/o.wallS)
	b.set("op_p50_ms", "ms", percentile(o.pages, 0.50)*1e3)
	b.set("op_tail_ms", "ms", percentile(o.pages, 0.90)*1e3)
	b.resources([]float64{o.allocMB / float64(len(o.pages))}, []float64{o.rssMB})
	b.headline("query_pages_per_s", "1/s", float64(len(o.pages))/o.wallS)
	b.headline("query_p50_ms", "ms", percentile(o.pages, 0.50)*1e3)
	b.headline("query_p90_ms", "ms", percentile(o.pages, 0.90)*1e3)
	b.headline("batch_due_p50_us", "us", percentile(o.dues, 0.50)*1e6)
	b.headline("batch_due_p99_us", "us", percentile(o.dues, 0.99)*1e6)
	b.headline("paced_batches", "count", float64(len(o.dues)))
	b.headline("reporter_max_late_ms", "ms", o.behindS*1e3)
	b.headline("pages", "count", float64(len(o.pages)))
	return nil
}

// traceQuery runs an untraced phase and a traced one, half the window
// each, on fresh fleets.
func traceQuery(b *bench, in *queryInputs) error {
	var phases [2]*phaseOut
	for i, traced := range []bool{false, true} {
		f, err := in.prepare(traced)
		if err != nil {
			return err
		}
		if phases[i], err = in.phase(f, b.seconds/2); err != nil {
			return err
		}
		b.tallyPhase(in, phases[i])
	}
	plain, o := phases[0], phases[1]
	b.check("span buffer", spansKept(o.dropped))
	st := selfTimes(o.spans, nil)
	pages := float64(len(o.pages))
	vals := serverBatchVals(st)
	for _, k := range []string{"fed.query", "fed.fanout", "fed.merge", "server.query"} {
		if s := st[k]; s != nil {
			vals[k+"_self_us"] = s.selfS / pages * 1e6
		}
	}
	if n := o.stats.CacheHits + o.stats.CacheMisses; n > 0 {
		vals["fed.cache_hit_ratio"] = float64(o.stats.CacheHits) / float64(n)
	}
	vals["fed.bytes_per_query"] = float64(o.rootRead) / pages
	vals["wire.bytes_per_record"] = float64(o.pacedSent) / float64(len(o.dues)*batchRecords)
	vals["trace.overhead_ratio"] = (float64(len(plain.pages)) / plain.wallS) / (pages / o.wallS)
	iso, err := isolated(b.seed, in.preload)
	if err != nil {
		return err
	}
	est := []estimate{
		{layer: "fed.rebuild (cold)", perOp: iso["fed.rebuild_ms"] * 1e-3, calls: float64(o.stats.CacheMisses), source: "root cache misses (fed.Root.Stats)"},
		{layer: "fed.hit (warm)", perOp: iso["fed.hit_us"] * 1e-6, calls: float64(o.stats.CacheHits), source: "root cache hits (fed.Root.Stats)"},
	}
	// One lane: the closed-loop query client. The paced reporter
	// sleeps between batches by design; its spans show beside it.
	printLayerTable(b.out, "ingest_query", o.wallS, 1, st, est, o.dropped)
	return b.finishTraced(vals, iso)
}

package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"goear/internal/eardbd"
	"goear/internal/loadgen"
	"goear/internal/telemetry/trace"
)

// The ingest workload: a closed-loop burst of 10,000 node reporters,
// each sending 10 job records and 4 accounting windows (about 180k
// records in 50k four-record batches) through real clients and the
// wire codec into 4 in-process shards over net.Pipe. Two reporters run
// at once; each reports its nodes one after another, a fresh client
// per node. One burst is one unit of work; every burst goes to a fresh
// shard fleet so the same traffic can be replayed.
const (
	ingestNodes       = 10000
	ingestRecsPerNode = 10
	ingestAcctPerNode = 4
	// ingestLanes is the number of concurrent reporters: one per core
	// of the 2-core machine the bounds were set on.
	ingestLanes = 2
)

// contentVariants is how many distinct record sets the service and
// simulation workloads draw from: the seed picks one, and each has a
// pinned output digest (checks.go). The rest of the seed varies what
// the digest does not depend on, such as delivery order.
const contentVariants = 4

// variant maps a seed to its content variant.
func variant(seed int64) int {
	return int(((seed % contentVariants) + contentVariants) % contentVariants)
}

type ingestInputs struct {
	variant int
	nodes   []nodeInput
	lanes   [ingestLanes][]int
	records int
	batches int
}

func buildIngest(seed int64) (*ingestInputs, error) {
	in := &ingestInputs{variant: variant(seed)}
	nodes, err := buildNodes(int64(in.variant)+1, 0, ingestNodes, ingestRecsPerNode, ingestAcctPerNode)
	if err != nil {
		return nil, err
	}
	in.nodes = nodes
	for i, k := range rand.New(rand.NewSource(seed)).Perm(len(nodes)) {
		in.lanes[i%ingestLanes] = append(in.lanes[i%ingestLanes], k)
	}
	for i := range nodes {
		n := nodes[i].records()
		in.records += n
		in.batches += (n + batchRecords - 1) / batchRecords
	}
	return in, nil
}

// burstOut is one burst's measurements and the fleet it filled.
type burstOut struct {
	wallS    float64
	rtts     []float64 // seconds, sorted
	stats    eardbd.ClientStats
	failures int // batches spilled, rejected or retried
	nodeErrs int
	backlog  int
	allocMB  float64
	rssMB    float64
	mallocs  uint64
	spans    []trace.Span
	dropped  uint64
	sentB    int64
	cluster  *loadgen.Cluster
}

// burst reports every node once into a fresh fleet. With traced set
// the fleet, the clients and the benchmark's session spans record into
// one span buffer, and client connections count their bytes.
func (in *ingestInputs) burst(traced bool) (*burstOut, error) {
	var tb *trace.Buffer
	var bt *trace.Tracer
	var sent, recvd *atomic.Int64
	if traced {
		tb = trace.NewBuffer(spanBufferCap)
		bt = trace.New("bench", tb)
		sent, recvd = new(atomic.Int64), new(atomic.Int64)
	}
	cl, err := newCluster(tb)
	if err != nil {
		return nil, err
	}
	out := &burstOut{cluster: cl}
	laneRTT := [ingestLanes][]float64{}
	laneStats := [ingestLanes]struct {
		st                      eardbd.ClientStats
		failures, errs, backlog int
	}{}
	for l := range laneRTT {
		laneRTT[l] = make([]float64, 0, in.batches/ingestLanes+len(in.nodes))
	}
	freshUnit()
	a0, m0 := allocMB(), mallocs()
	t0 := time.Now()
	var wg sync.WaitGroup
	for l := 0; l < ingestLanes; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			ls := &laneStats[l]
			for _, k := range in.lanes[l] {
				n := &in.nodes[k]
				var sp *trace.Active
				if bt != nil {
					sp = bt.Root("bench.session", wallNow()).Attr("node", n.name)
				}
				var st sessionStats
				laneRTT[l], st = session(n, byteCount(cl.DialFor(n.name), sent, recvd), tb, laneRTT[l])
				if sp != nil {
					sp.End(wallNow())
				}
				addStats(&ls.st, st.client)
				ls.failures += st.failures()
				ls.backlog += st.backlog
				if st.err != nil {
					ls.errs++
				}
			}
		}(l)
	}
	wg.Wait()
	out.wallS = time.Since(t0).Seconds()
	out.allocMB, out.mallocs, out.rssMB = allocMB()-a0, mallocs()-m0, unitPeakRSSMB()
	for l := range laneRTT {
		out.rtts = append(out.rtts, laneRTT[l]...)
		addStats(&out.stats, laneStats[l].st)
		out.failures += laneStats[l].failures
		out.nodeErrs += laneStats[l].errs
		out.backlog += laneStats[l].backlog
	}
	sort.Float64s(out.rtts)
	if traced {
		out.spans, out.dropped, out.sentB = tb.Spans(), tb.Dropped(), sent.Load()
	}
	return out, nil
}

// checkBurst verifies what every burst must leave behind: no
// backlog, no node errors, and every record accepted exactly once.
func (in *ingestInputs) checkBurst(o *burstOut) error {
	if o.backlog != 0 || o.nodeErrs != 0 {
		return fmt.Errorf("backlog %d batches, %d node errors", o.backlog, o.nodeErrs)
	}
	if o.stats.RecordsSent != in.records || o.stats.BatchesSent != in.batches {
		return fmt.Errorf("sent %d records in %d batches, want %d in %d", o.stats.RecordsSent, o.stats.BatchesSent, in.records, in.batches)
	}
	root, err := newRoot(o.cluster, nil, nil, nil)
	if err != nil {
		return err
	}
	ms, err := root.MergedStats()
	if err != nil {
		return err
	}
	accepted := ms.RecordsAccepted + ms.AcctAccepted
	dups := ms.RecordsDuplicate + ms.AcctDuplicate + ms.DuplicateBatches + ms.RecordsReplaced + ms.AcctReplaced
	if accepted != in.records || dups != 0 || ms.BatchesRejected != 0 {
		return fmt.Errorf("shards accepted %d of %d records with %d duplicates or replacements, %d rejected batches", accepted, in.records, dups, ms.BatchesRejected)
	}
	return nil
}

// checkSnapshot compares the merged federation snapshot of a burst
// with the pinned one. Rendering it takes about twice as long as the
// burst, so runs check the snapshot of their last burst only.
func (in *ingestInputs) checkSnapshot(o *burstOut) error {
	root, err := newRoot(o.cluster, nil, nil, nil)
	if err != nil {
		return err
	}
	snap, err := loadgen.Snapshot(root)
	if err != nil {
		return err
	}
	return matchDigest("ingest snapshot", pinnedIngest[in.variant], snap)
}

func runIngest(b *bench) error {
	var in *ingestInputs
	if err := b.setup(func() (err error) {
		in, err = buildIngest(b.seed)
		return err
	}); err != nil {
		return err
	}
	if b.traced {
		return traceIngest(b, in)
	}
	var walls, rates, p50s, p99s, allocs, rss []float64
	var last *burstOut
	for start := time.Now(); last == nil || b.until(start); {
		if last != nil {
			b.closeFleet(last.cluster)
		}
		o, err := in.burst(false)
		if err != nil {
			return err
		}
		b.ops(in.batches, o.failures)
		b.ops(len(in.nodes), o.nodeErrs)
		b.check("ingest burst", in.checkBurst(o))
		walls = append(walls, o.wallS)
		rates = append(rates, float64(in.records)/o.wallS)
		p50s = append(p50s, percentile(o.rtts, 0.50)*1e3)
		p99s = append(p99s, percentile(o.rtts, 0.99)*1e3)
		allocs = append(allocs, o.allocMB)
		rss = append(rss, o.rssMB)
		last = o
	}
	b.check("ingest snapshot", in.checkSnapshot(last))
	b.closeFleet(last.cluster)
	b.set("unit_s", "s", median(walls))
	b.set("throughput_per_s", "1/s", median(rates))
	b.set("op_p50_ms", "ms", median(p50s))
	b.set("op_tail_ms", "ms", median(p99s))
	b.resources(allocs, rss)
	b.headline("records_per_s", "1/s", median(rates))
	b.headline("batch_rtt_p50_us", "us", median(p50s)*1e3)
	b.headline("batch_rtt_p99_us", "us", median(p99s)*1e3)
	b.headline("bursts", "count", float64(len(walls)))
	return nil
}

// closeFleet shuts a shard fleet down; a failure counts as a failed
// operation.
func (b *bench) closeFleet(cl *loadgen.Cluster) {
	b.op("close shard fleet", cl.Close())
}

// spansKept fails when the span ring overflowed, which would bias the
// self times.
func spansKept(dropped uint64) error {
	if dropped != 0 {
		return fmt.Errorf("span buffer dropped %d spans", dropped)
	}
	return nil
}

// serverBatchVals turns the shards' batch spans into self time per
// batch.
func serverBatchVals(st map[string]*kindStat) map[string]float64 {
	vals := map[string]float64{}
	b := st["server.batch"]
	if b == nil {
		return vals
	}
	for _, k := range []string{"server.batch", "server.validate", "server.dedup", "server.store", "server.acct"} {
		if s := st[k]; s != nil {
			vals[k+"_self_us"] = s.selfS / float64(b.count) * 1e6
		}
	}
	return vals
}

// adoptSessions makes each client.batch trace a child of the
// benchmark's session span of the same node.
func adoptSessions(spans []trace.Span) func(trace.Span) (spanKey, bool) {
	sess := map[string]spanKey{}
	for _, s := range spans {
		if s.Kind == "bench.session" {
			sess[s.Attrs.Get("node")] = spanKey{s.Trace, s.ID}
		}
	}
	return func(s trace.Span) (spanKey, bool) {
		if s.Kind != "client.batch" {
			return spanKey{}, false
		}
		k, ok := sess[s.Attrs.Get("node")]
		return k, ok
	}
}

// traceIngest alternates untraced and traced bursts while the window
// is open.
func traceIngest(b *bench, in *ingestInputs) error {
	var plain, traced, allocsPerRec, bytesPerRec []float64
	var st map[string]*kindStat
	var dropped uint64
	for start := time.Now(); len(traced) == 0 || b.until(start); {
		for _, tr := range []bool{false, true} {
			o, err := in.burst(tr)
			if err != nil {
				return err
			}
			b.ops(in.batches, o.failures)
			b.ops(len(in.nodes), o.nodeErrs)
			b.check("ingest burst", in.checkBurst(o))
			b.closeFleet(o.cluster)
			if !tr {
				plain = append(plain, o.wallS)
				allocsPerRec = append(allocsPerRec, float64(o.mallocs)/float64(in.records))
				continue
			}
			traced = append(traced, o.wallS)
			bytesPerRec = append(bytesPerRec, float64(o.sentB)/float64(in.records))
			st = selfTimes(o.spans, adoptSessions(o.spans))
			dropped += o.dropped
		}
	}
	b.check("span buffer", spansKept(dropped))
	vals := serverBatchVals(st)
	if s := st["bench.session"]; s != nil {
		vals["client.session_us"] = s.totalS / float64(s.count) * 1e6
	}
	vals["wire.bytes_per_record"] = median(bytesPerRec)
	vals["eardbd.allocs_per_record"] = median(allocsPerRec)
	vals["trace.overhead_ratio"] = median(traced) / median(plain)
	iso, err := isolated(b.seed, in.nodes)
	if err != nil {
		return err
	}
	acct := 0
	for i := range in.nodes {
		acct += len(in.nodes[i].acct)
	}
	est := []estimate{
		{layer: "wire.encode", perOp: iso["wire.encode_ns_per_record"] * 1e-9, calls: float64(in.records), source: "records sent"},
		{layer: "wire.decode", perOp: iso["wire.decode_ns_per_record"] * 1e-9, calls: float64(in.records), source: "records sent"},
		{layer: "ring.owner", perOp: iso["ring.owner_ns"] * 1e-9, calls: float64(len(in.nodes)), source: "one lookup per client dial, one dial per node session"},
		{layer: "accounting.insert", perOp: iso["accounting.insert_ns"] * 1e-9, calls: float64(acct), source: "accounting records sent"},
	}
	printLayerTable(b.out, "ingest", median(traced), ingestLanes, st, est, dropped)
	return b.finishTraced(vals, iso)
}

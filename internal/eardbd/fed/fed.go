// Package fed is the federation tier above sharded EARDBD daemons.
// EAR's production deployments run one EARDBD per island; the cluster
// view the global manager and the admin tools need is the union of
// what every island daemon aggregated. This package provides that
// union as a Root: a query-only service that fans snapshot queries out
// to the shards, merges the answers in node order, and serves the
// same wire snapshot API a single daemon does — so eargm.PowerSource
// consumers and `earctl dbd` work unchanged whether they talk to one
// daemon or a fleet.
//
// Merging is built for byte-identity, not just equivalence. Node
// powers merge by sorted node name, the exact order a single daemon
// sums in; job summaries are recomputed by folding every shard's
// record dump into a fresh eard.DB and running the same Summarize
// arithmetic over the same sorted records. A workload routed through
// N shards therefore renders the same aggregate, bit for bit, as the
// same workload through one daemon — the contract the closed-loop
// tests pin.
package fed

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"

	"goear/internal/accounting"
	"goear/internal/eard"
	"goear/internal/eardbd"
	"goear/internal/par"
	"goear/internal/telemetry"
	"goear/internal/telemetry/trace"
	"goear/internal/wire"
)

// Shard names one member daemon and how to reach it. Dial is injected
// so tests can hand out net.Pipe ends and the daemon binary can choose
// TCP or unix transports.
type Shard struct {
	Name string
	Dial func() (net.Conn, error)
}

// Config parameterises a federation root.
type Config struct {
	// Shards are the member daemons, queried in slice order. At least
	// one is required; names must be unique and non-empty.
	Shards []Shard
	// MaxFramePayload caps frame payloads on both the shard-facing and
	// serving sides (default wire.DefaultMaxPayload).
	MaxFramePayload int
	// Telemetry, when set, exposes fan-out activity as
	// goear_eardbd_fed_* families in that set; falls back to the
	// process-global set, and to no-ops when that is disabled too.
	Telemetry *telemetry.Set
	// Trace, when set, records a span tree per served query: a
	// fed.query root continuing the incoming frame's context, one
	// fed.fanout child per shard (created in configured shard order, so
	// the tree is identical whatever order the concurrent fan-out
	// finishes in), and a fed.merge child annotated with the snapshot
	// cache outcome. Nil disables tracing at zero cost.
	Trace *trace.Buffer
	// Now, when set, stamps span times and feeds the
	// goear_eardbd_fed_latency_seconds histograms. Nil leaves spans
	// untimed and observes no latencies; the span tree itself stays
	// fully deterministic.
	Now func() float64
}

// Stats counts root activity since construction.
type Stats struct {
	Queries      int `json:"queries"`       // snapshot queries served by the root
	Fanouts      int `json:"fanouts"`       // shard queries issued
	FanoutErrors int `json:"fanout_errors"` // shard queries that failed
	CacheHits    int `json:"cache_hits"`    // merged snapshots served from cache
	CacheMisses  int `json:"cache_misses"`  // merged snapshots rebuilt from shard dumps
}

// Root is the federation front end. It is safe for concurrent use.
// Merge-heavy queries go through a generation-keyed snapshot cache
// (see cache.go): a query costs one cheap generation poll per shard
// until ingest actually moves, instead of a full record dump. The
// embedded Conns supplies Serve, ServeConn and Close.
type Root struct {
	*wire.Conns

	cfg    Config
	ts     *telemetry.Set
	tel    rootTel
	tracer *trace.Tracer

	mu    sync.Mutex
	stats Stats
	reach map[string]bool // last fan-out outcome per shard

	cacheMu   sync.Mutex
	cacheOK   bool
	cacheGens []uint64
	cacheDB   *eard.DB
	cacheAcct *accounting.Store
}

// NewRoot builds a root over the given shards.
func NewRoot(cfg Config) (*Root, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("fed: root needs at least one shard")
	}
	seen := map[string]bool{}
	for _, s := range cfg.Shards {
		switch {
		case s.Name == "":
			return nil, errors.New("fed: shard needs a name")
		case s.Dial == nil:
			return nil, fmt.Errorf("fed: shard %s needs a dial function", s.Name)
		case seen[s.Name]:
			return nil, fmt.Errorf("fed: duplicate shard name %s", s.Name)
		}
		seen[s.Name] = true
	}
	if cfg.MaxFramePayload <= 0 {
		cfg.MaxFramePayload = wire.DefaultMaxPayload
	}
	ts := cfg.Telemetry
	if ts == nil {
		ts = telemetry.Default()
	}
	root := &Root{
		cfg:    cfg,
		ts:     ts,
		tel:    newRootTel(ts),
		tracer: trace.New("fedroot", cfg.Trace),
		reach:  map[string]bool{},
	}
	root.Conns = wire.NewConns(root.session)
	root.tel.shards.Set(float64(len(cfg.Shards)))
	return root, nil
}

// nowSec reads the injected latency clock, 0 when none is configured.
func (r *Root) nowSec() float64 {
	if r.cfg.Now == nil {
		return 0
	}
	return r.cfg.Now()
}

// observe records one latency sample when a clock is configured.
func (r *Root) observe(h *telemetry.Histogram, startSec float64) {
	if r.cfg.Now != nil {
		h.Observe(r.cfg.Now() - startSec)
	}
}

// ShardsReachable reports how many shards answered their most recent
// fan-out query, out of the configured total. Shards not yet queried
// count as unreachable: a root that has never completed a fan-out is
// not ready.
func (r *Root) ShardsReachable() (ok, total int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.cfg.Shards {
		if r.reach[s.Name] {
			ok++
		}
	}
	return ok, len(r.cfg.Shards)
}

// HealthCheck returns the root's readiness check for a telemetry
// Health set: OK when every shard answered its last fan-out.
func (r *Root) HealthCheck() telemetry.CheckFunc {
	return func() telemetry.Check {
		ok, total := r.ShardsReachable()
		return telemetry.Check{
			Name:   "shards",
			OK:     ok == total,
			Detail: fmt.Sprintf("%d/%d shards reachable", ok, total),
		}
	}
}

// Shards returns the member names in fan-out order.
func (r *Root) Shards() []string {
	out := make([]string, len(r.cfg.Shards))
	for i, s := range r.cfg.Shards {
		out[i] = s.Name
	}
	return out
}

// Stats returns a snapshot of the root's activity counters.
func (r *Root) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// queryShard runs one wire query against one shard over a fresh
// connection, stamping tc on the query frame so the shard's
// server.query span joins the caller's trace. Fan-out connections are
// per-query: the root's load is snapshot-rate (the eargm control
// period, admin queries), so simplicity and isolation beat connection
// reuse here.
func (r *Root) queryShard(s Shard, q wire.Query, tc trace.Context) (wire.Result, error) {
	t0 := r.nowSec()
	r.mu.Lock()
	r.stats.Fanouts++
	r.mu.Unlock()
	conn, err := s.Dial()
	if err == nil {
		var res wire.Result
		res, err = eardbd.QueryCtx(conn, q, r.cfg.MaxFramePayload, tc)
		_ = conn.Close()
		if err == nil {
			r.countReach(s.Name, true)
			r.observe(r.tel.latFanout, t0)
			return res, nil
		}
	}
	r.mu.Lock()
	r.stats.FanoutErrors++
	r.mu.Unlock()
	r.countReach(s.Name, false)
	r.observe(r.tel.latFanout, t0)
	return wire.Result{}, fmt.Errorf("fed: shard %s: %w", s.Name, err)
}

// countReach folds one fan-out outcome into the telemetry counters
// and the reachability view the readiness probe reports.
func (r *Root) countReach(shard string, ok bool) {
	r.mu.Lock()
	r.reach[shard] = ok
	r.mu.Unlock()
	r.tel.fanout(shard, ok)
}

// fanOutConcurrency bounds concurrent shard queries per fan-out. A
// snapshot's latency is the slowest shard's round trip, so querying
// islands concurrently matters once a fleet is wide or a WAN link is
// slow; eight in flight covers realistic island counts without
// letting one root stampede the fleet.
const fanOutConcurrency = 8

// fanOut runs one query against every shard and decodes each result
// into decode(i). Shard queries run concurrently under a bounded
// group, but results land in a slice keyed by shard index and are
// decoded sequentially in configured shard order — so the merged
// output stays byte-identical to a sequential fan-out, and decode
// callbacks never race. On error the lowest-indexed failure wins,
// matching what the sequential loop would have reported.
//
// When parent is live, each shard gets a fed.fanout child span. The
// children are all created here, in configured shard order, before
// any goroutine runs — span IDs come from a per-parent child counter,
// so allocation order (not completion order) is what must be
// deterministic for the trace to be byte-identical across runs.
func (r *Root) fanOut(parent *trace.Active, q wire.Query, decode func(i int, res wire.Result) error) error {
	results := make([]wire.Result, len(r.cfg.Shards))
	kids := make([]*trace.Active, len(r.cfg.Shards))
	for i, s := range r.cfg.Shards {
		kids[i] = parent.Child(spanFedFanout, r.nowSec()).Attr("shard", s.Name)
	}
	err := par.ForEach(fanOutConcurrency, len(r.cfg.Shards), func(i int) error {
		s := r.cfg.Shards[i]
		res, err := r.queryShard(s, q, kids[i].Context())
		if err != nil {
			kids[i].Attr("result", "error").End(r.nowSec())
			return err
		}
		if res.Kind != q.Kind {
			kids[i].Attr("result", "error").End(r.nowSec())
			return fmt.Errorf("fed: shard %s answered kind %q to %q", s.Name, res.Kind, q.Kind)
		}
		kids[i].Attr("result", "ok").End(r.nowSec())
		results[i] = res
		return nil
	})
	if err != nil {
		return err
	}
	for i, s := range r.cfg.Shards {
		if err := decode(i, results[i]); err != nil {
			return fmt.Errorf("fed: shard %s: %w", s.Name, err)
		}
	}
	return nil
}

// MergedNodePowers returns the last reported power of every node in
// the federation, sorted by node name. A node reports through exactly
// one shard (ring placement), so the union is disjoint; a node seen on
// two shards (mid-rebalance traffic) keeps the value from the later
// shard in fan-out order.
func (r *Root) MergedNodePowers() ([]wire.NodePower, error) {
	return r.mergedNodePowers(nil)
}

func (r *Root) mergedNodePowers(parent *trace.Active) ([]wire.NodePower, error) {
	merged := map[string]float64{}
	err := r.fanOut(parent, wire.Query{Kind: wire.QueryNodePowers}, func(_ int, res wire.Result) error {
		var nps []wire.NodePower
		if err := res.Decode(&nps); err != nil {
			return err
		}
		for _, np := range nps {
			merged[np.Node] = np.PowerW
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(merged))
	for n := range merged {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]wire.NodePower, len(names))
	for i, n := range names {
		out[i] = wire.NodePower{Node: n, PowerW: merged[n]}
	}
	return out, nil
}

// NodePowers implements eargm.PowerSource over the merged federation
// view. The PowerSource interface cannot carry an error; an
// unreachable shard yields an empty reading for this interval (and a
// counted fan-out error) rather than a partial cluster view that
// would ratchet the budget against half the fleet.
func (r *Root) NodePowers() []float64 {
	nps, err := r.MergedNodePowers()
	if err != nil {
		return nil
	}
	out := make([]float64, len(nps))
	for i, np := range nps {
		out[i] = np.PowerW
	}
	return out
}

// mergedDB returns the record-merge view, served from the
// generation-keyed cache (cache.go): identical arithmetic to a fresh
// fold, rebuilt only when a shard's ingest generation moves.
func (r *Root) mergedDB(parent *trace.Active) (*eard.DB, error) {
	db, _, err := r.mergedState(parent)
	return db, err
}

// Aggregate returns the cluster view across every shard, merged with
// the same arithmetic order a single daemon uses: power summed over
// name-sorted nodes, energy summed over (job, step)-sorted summaries.
func (r *Root) Aggregate() (eardbd.Aggregate, error) {
	return r.aggregate(nil)
}

func (r *Root) aggregate(parent *trace.Active) (eardbd.Aggregate, error) {
	nps, err := r.mergedNodePowers(parent)
	if err != nil {
		return eardbd.Aggregate{}, err
	}
	db, err := r.mergedDB(parent)
	if err != nil {
		return eardbd.Aggregate{}, err
	}
	agg := eardbd.Aggregate{Nodes: len(nps), Records: db.Len()}
	for _, np := range nps {
		agg.TotalPowerW += np.PowerW
	}
	for _, js := range db.Jobs() {
		sum, err := db.Summarize(js[0], js[1])
		if err != nil {
			continue
		}
		agg.TotalEnergyJ += sum.EnergyJ
	}
	return agg, nil
}

// JobSummaries summarizes every (job, step) pair across the
// federation, in the same sorted order a single daemon reports.
func (r *Root) JobSummaries() ([]eard.JobSummary, error) {
	return r.jobSummaries(nil)
}

func (r *Root) jobSummaries(parent *trace.Active) ([]eard.JobSummary, error) {
	db, err := r.mergedDB(parent)
	if err != nil {
		return nil, err
	}
	jobs := db.Jobs()
	out := make([]eard.JobSummary, 0, len(jobs))
	for _, js := range jobs {
		sum, err := db.Summarize(js[0], js[1])
		if err != nil {
			continue
		}
		out = append(out, sum)
	}
	return out, nil
}

// Summarize aggregates one job step across the federation.
func (r *Root) Summarize(job, step string) (eard.JobSummary, error) {
	return r.summarize(nil, job, step)
}

func (r *Root) summarize(parent *trace.Active, job, step string) (eard.JobSummary, error) {
	db, err := r.mergedDB(parent)
	if err != nil {
		return eard.JobSummary{}, err
	}
	return db.Summarize(job, step)
}

// MergedStats sums the activity counters of every shard: the cluster's
// ingest totals. The root's own Stats stay separate.
func (r *Root) MergedStats() (eardbd.Stats, error) {
	return r.mergedStats(nil)
}

func (r *Root) mergedStats(parent *trace.Active) (eardbd.Stats, error) {
	var total eardbd.Stats
	err := r.fanOut(parent, wire.Query{Kind: wire.QueryStats}, func(_ int, res wire.Result) error {
		var st eardbd.Stats
		if err := res.Decode(&st); err != nil {
			return err
		}
		total.Connections += st.Connections
		total.Batches += st.Batches
		total.DuplicateBatches += st.DuplicateBatches
		total.RecordsAccepted += st.RecordsAccepted
		total.RecordsDuplicate += st.RecordsDuplicate
		total.RecordsReplaced += st.RecordsReplaced
		total.AcctAccepted += st.AcctAccepted
		total.AcctDuplicate += st.AcctDuplicate
		total.AcctReplaced += st.AcctReplaced
		total.BatchesRejected += st.BatchesRejected
		total.ProtocolErrors += st.ProtocolErrors
		total.Queries += st.Queries
		return nil
	})
	if err != nil {
		return eardbd.Stats{}, err
	}
	return total, nil
}

// IslandSource returns an eargm.PowerSource view of one shard: the
// per-island feed a cascaded manager ratchets against. The returned
// source polls the shard on every read; an unreachable shard reads as
// empty, matching NodePowers' degradation.
func (r *Root) IslandSource(name string) (*IslandSource, error) {
	for _, s := range r.cfg.Shards {
		if s.Name == name {
			return &IslandSource{root: r, shard: s}, nil
		}
	}
	return nil, fmt.Errorf("fed: no shard named %s", name)
}

// IslandSource adapts one shard to eargm.PowerSource.
type IslandSource struct {
	root  *Root
	shard Shard
}

// NodePowers implements eargm.PowerSource for one island.
func (s *IslandSource) NodePowers() []float64 {
	res, err := s.root.queryShard(s.shard, wire.Query{Kind: wire.QueryNodePowers}, trace.Context{})
	if err != nil {
		return nil
	}
	var nps []wire.NodePower
	if err := res.Decode(&nps); err != nil {
		return nil
	}
	out := make([]float64, len(nps))
	for i, np := range nps {
		out[i] = np.PowerW
	}
	return out
}

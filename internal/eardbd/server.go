// Package eardbd implements EAR's database daemon tier. In the EAR
// framework the per-node daemons (package eard holds their accounting
// schema) do not talk to the cluster database directly: they stream
// job records to an intermediate aggregation daemon, EARDBD, which
// batches, validates and deduplicates the traffic, and which the
// global manager (package eargm) polls for the cluster power view.
//
// This package provides both halves of that tier: a Server that
// accepts wire-framed record batches over TCP or unix sockets and
// folds them into an eard.DB, and a Client that node-side code uses
// to ship records — buffering in a bounded queue, flushing on size and
// interval triggers, retrying with jittered exponential backoff, and
// spilling to a local journal when the daemon is unreachable so that
// telemetry loss never perturbs the measured workload.
package eardbd

import (
	"fmt"
	"net"
	"sort"
	"sync"

	"goear/internal/accounting"
	"goear/internal/eard"
	"goear/internal/telemetry"
	"goear/internal/telemetry/trace"
	"goear/internal/wire"
)

// Config bounds the server's exposure to any single connection.
type Config struct {
	// MaxFramePayload caps one frame's payload bytes (default
	// wire.DefaultMaxPayload). Larger frames are refused before their
	// payload is read, so a hostile length prefix cannot balloon memory.
	MaxFramePayload int
	// MaxBatchRecords caps records per batch (default 1024).
	MaxBatchRecords int
	// MaxSeenBatches bounds the batch-ID dedup window (default 65536).
	// Oldest IDs are evicted first; an eviction only matters if a client
	// replays a batch older than the window, and even then the replay is
	// caught record-by-record against the database.
	MaxSeenBatches int
	// AcctMaxRecords caps the per-job accounting store's resident
	// record count (0 = unlimited). Over the cap, whole (job, step)
	// groups are evicted oldest-window-first; each eviction advances
	// the store generation so stacked snapshot caches rebuild.
	AcctMaxRecords int
	// Telemetry, when set, mirrors the Stats counters into that set's
	// registry (goear_eardbd_* families) and logs batch outcomes to its
	// event recorder. Falls back to the process-global telemetry set;
	// nil when that is disabled too, making every instrument a no-op.
	Telemetry *telemetry.Set
	// Trace, when set, records a span tree per handled batch and query
	// into the buffer, continuing any trace context carried on the
	// incoming frame. Nil disables tracing at zero cost.
	Trace *trace.Buffer
	// Now, when set, stamps span start/end times and feeds the
	// per-operation latency histograms (goear_eardbd_latency_seconds).
	// It is a plain seconds reading — daemons inject a monotonic wall
	// clock, deterministic tests inject a logical one or leave it nil
	// (spans then carry no timestamps and no latencies are observed;
	// the span tree itself stays fully deterministic).
	Now func() float64
}

func (c Config) withDefaults() Config {
	if c.MaxFramePayload <= 0 {
		c.MaxFramePayload = wire.DefaultMaxPayload
	}
	if c.MaxBatchRecords <= 0 {
		c.MaxBatchRecords = 1024
	}
	if c.MaxSeenBatches <= 0 {
		c.MaxSeenBatches = 1 << 16
	}
	return c
}

// Stats counts server activity since start. The Acct* fields count
// per-job accounting records, classified with the same
// accepted/duplicate/replaced semantics as node reports.
type Stats struct {
	Connections      int `json:"connections"`
	Batches          int `json:"batches"`
	DuplicateBatches int `json:"duplicate_batches"`
	RecordsAccepted  int `json:"records_accepted"`
	RecordsDuplicate int `json:"records_duplicate"`
	RecordsReplaced  int `json:"records_replaced"`
	AcctAccepted     int `json:"acct_accepted"`
	AcctDuplicate    int `json:"acct_duplicate"`
	AcctReplaced     int `json:"acct_replaced"`
	BatchesRejected  int `json:"batches_rejected"`
	ProtocolErrors   int `json:"protocol_errors"`
	Queries          int `json:"queries"`
}

// Aggregate is the cluster-level view the global manager polls: how
// many nodes have reported, their summed last-known DC power, and the
// accounted energy so far.
type Aggregate struct {
	Nodes        int     `json:"nodes"`
	TotalPowerW  float64 `json:"total_power_w"`
	TotalEnergyJ float64 `json:"total_energy_j"`
	Records      int     `json:"records"`
}

// Server is the aggregation daemon. One Server may serve several
// listeners (a TCP port and a unix socket, say) concurrently. The
// embedded Conns supplies Serve, ServeConn (for synthetic transports
// such as net.Pipe, without a listener) and Close.
type Server struct {
	*wire.Conns

	cfg    Config
	db     *eard.DB
	acct   *accounting.Store
	tel    serverTel
	tracer *trace.Tracer

	mu        sync.Mutex
	seen      map[string]bool
	seenQueue []string // FIFO eviction order for seen
	nodeW     map[string]float64
	stats     Stats
	gen       uint64  // bumped whenever any record lands; see Generation
	lastMut   float64 // cfg.Now at the last generation bump (0 with no clock)
}

// NewServer builds a server folding records into db. Telemetry
// handles are resolved here, once: enabling the global set after
// construction does not retrofit an existing server.
func NewServer(db *eard.DB, cfg Config) *Server {
	ts := cfg.Telemetry
	if ts == nil {
		ts = telemetry.Default()
	}
	acct := accounting.NewStore(ts)
	if cfg.AcctMaxRecords > 0 {
		acct.SetMaxRecords(cfg.AcctMaxRecords)
	}
	s := &Server{
		cfg:    cfg.withDefaults(),
		db:     db,
		acct:   acct,
		tel:    newServerTel(ts),
		tracer: trace.New("eardbd", cfg.Trace),
		seen:   map[string]bool{},
		nodeW:  map[string]float64{},
	}
	s.Conns = wire.NewConns(s.session)
	return s
}

// nowSec reads the injected latency clock, 0 when none is configured.
func (s *Server) nowSec() float64 {
	if s.cfg.Now == nil {
		return 0
	}
	return s.cfg.Now()
}

// observe records one latency sample when a clock is configured;
// without one there is nothing meaningful to observe.
func (s *Server) observe(h *telemetry.Histogram, startSec float64) {
	if s.cfg.Now != nil {
		h.Observe(s.cfg.Now() - startSec)
	}
}

// DB exposes the backing database (for persistence by the daemon
// binary).
func (s *Server) DB() *eard.DB { return s.db }

// Acct exposes the per-job accounting store the server ingests into.
func (s *Server) Acct() *accounting.Store { return s.acct }

// Generation reports the server's mutation counter: it advances every
// time a record — node report or accounting record — is accepted or
// replaced, and never otherwise. Federation roots poll it to decide
// whether their cached merged snapshot is still exact.
func (s *Server) Generation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// HealthCheck returns a readiness check on store freshness: degraded
// when records have landed before but none for more than staleAfterSec
// seconds — the signature of a daemon whose reporters all went away.
// With no clock configured, no staleness bound, or no records yet, the
// check only reports the generation. Mount it on a telemetry.Health.
func (s *Server) HealthCheck(staleAfterSec float64) telemetry.CheckFunc {
	return func() telemetry.Check {
		s.mu.Lock()
		gen, last := s.gen, s.lastMut
		s.mu.Unlock()
		c := telemetry.Check{Name: "store", OK: true, Detail: fmt.Sprintf("generation %d", gen)}
		if gen == 0 || staleAfterSec <= 0 || s.cfg.Now == nil {
			return c
		}
		age := s.cfg.Now() - last
		if age > staleAfterSec {
			c.OK = false
			c.Detail = fmt.Sprintf("generation %d stale: %.0fs since last record (limit %.0fs)", gen, age, staleAfterSec)
		}
		return c
	}
}

// session speaks the wire protocol on one connection until EOF or a
// protocol error. The embedded Conns owns the connection: it tracks
// it, closes it when session returns, and severs it on Close.
func (s *Server) session(conn net.Conn) {
	s.mu.Lock()
	s.stats.Connections++
	s.mu.Unlock()
	s.tel.conns.Inc()
	for {
		f, err := wire.ReadFrame(conn, s.cfg.MaxFramePayload)
		if err != nil {
			if !wire.Disconnected(err) {
				s.countProtocolError()
				s.reply(conn, wire.ErrorReply(err.Error()))
			}
			return
		}
		switch f.Type {
		case wire.TypeBatch:
			if !s.handleBatch(conn, f) {
				return
			}
		case wire.TypeQuery:
			if !s.handleQuery(conn, f) {
				return
			}
		default:
			s.countProtocolError()
			s.reply(conn, wire.ErrorReply(fmt.Sprintf("unexpected %s frame", f.Type)))
			return
		}
	}
}

// handleBatch validates, deduplicates and stores one batch, then
// acks. It reports whether the connection should stay open. When
// tracing is on, the handling renders as a server.batch span —
// continuing the context the client stamped on the frame — with
// validate/dedup/store/acct children, so one delivered batch reads as
// a connected tree from the client's flush to the rows landing here.
func (s *Server) handleBatch(conn net.Conn, f wire.Frame) bool {
	t0 := s.nowSec()
	b, err := f.AsBatch()
	if err != nil {
		s.countProtocolError()
		s.reply(conn, wire.ErrorReply(err.Error()))
		return false
	}
	sp := s.tracer.Remote(f.Trace, spanServerBatch, t0)
	sp.Attr("batch", b.ID)
	done := func(result string) {
		sp.Attr("result", result).End(s.nowSec())
		s.observe(s.tel.latBatch, t0)
	}

	vsp := sp.Child(spanServerValidate, s.nowSec())
	reject := func(msg string) bool {
		vsp.End(s.nowSec())
		done("rejected")
		s.rejectBatch(conn, msg)
		return true
	}
	if b.ID == "" {
		return reject("batch has no id")
	}
	if n := len(b.Records) + len(b.Acct); n > s.cfg.MaxBatchRecords {
		return reject(fmt.Sprintf("batch %s holds %d records, limit %d", b.ID, n, s.cfg.MaxBatchRecords))
	}
	for _, r := range b.Records {
		if err := r.Validate(); err != nil {
			return reject(fmt.Sprintf("batch %s: %v", b.ID, err))
		}
	}
	for _, r := range b.Acct {
		if err := r.Validate(); err != nil {
			return reject(fmt.Sprintf("batch %s: %v", b.ID, err))
		}
	}
	vsp.End(s.nowSec())

	dsp := sp.Child(spanServerDedup, s.nowSec())
	s.mu.Lock()
	if s.seen[b.ID] {
		n := len(b.Records) + len(b.Acct)
		s.stats.Batches++
		s.stats.DuplicateBatches++
		s.mu.Unlock()
		dsp.End(s.nowSec())
		done("duplicate")
		s.tel.batchDup.Inc()
		s.tel.recDup.Add(uint64(n))
		s.tel.batchEvent(b.Node, b.ID, "duplicate", &int3{b: n})
		return s.reply(conn, mustAck(wire.Ack{BatchID: b.ID, Duplicate: n}))
	}
	s.mu.Unlock()
	dsp.End(s.nowSec())

	ssp := sp.Child(spanServerStore, s.nowSec())
	ack := wire.Ack{BatchID: b.ID}
	for _, r := range b.Records {
		prev, exists := s.db.Get(r.JobID, r.StepID, r.Node)
		switch {
		case exists && prev == r:
			// Identical re-delivery (e.g. the batch-ID window evicted a
			// replayed batch): nothing to store.
			ack.Duplicate++
			continue
		case exists:
			ack.Replaced++
		default:
			ack.Accepted++
		}
		if err := s.db.Insert(r); err != nil {
			// Validate passed above; an insert failure here is a bug, not
			// client traffic. Surface it and drop the connection.
			ssp.End(s.nowSec())
			done("error")
			s.countProtocolError()
			s.reply(conn, wire.ErrorReply(fmt.Sprintf("store batch %s: %v", b.ID, err)))
			return false
		}
	}
	ssp.End(s.nowSec())
	// Accounting records ride the same batch and fold into the same
	// ack so the client's exactly-once machinery sees one outcome per
	// batch; the store classifies them itself.
	asp := sp.Child(spanServerAcct, s.nowSec())
	var acctA, acctD, acctR int
	for _, r := range b.Acct {
		class, err := s.acct.Insert(r)
		if err != nil {
			asp.End(s.nowSec())
			done("error")
			s.countProtocolError()
			s.reply(conn, wire.ErrorReply(fmt.Sprintf("store batch %s: %v", b.ID, err)))
			return false
		}
		switch class {
		case accounting.ClassDuplicate:
			acctD++
		case accounting.ClassReplaced:
			acctR++
		default:
			acctA++
		}
	}
	asp.End(s.nowSec())
	ack.Accepted += acctA
	ack.Duplicate += acctD
	ack.Replaced += acctR

	s.mu.Lock()
	s.stats.Batches++
	s.stats.RecordsAccepted += ack.Accepted - acctA
	s.stats.RecordsDuplicate += ack.Duplicate - acctD
	s.stats.RecordsReplaced += ack.Replaced - acctR
	s.stats.AcctAccepted += acctA
	s.stats.AcctDuplicate += acctD
	s.stats.AcctReplaced += acctR
	if ack.Accepted+ack.Replaced > 0 {
		s.gen++
		s.lastMut = s.nowSec()
	}
	for _, r := range b.Records {
		s.nodeW[r.Node] = r.AvgPower
	}
	s.seen[b.ID] = true
	s.seenQueue = append(s.seenQueue, b.ID)
	for len(s.seenQueue) > s.cfg.MaxSeenBatches {
		delete(s.seen, s.seenQueue[0])
		s.seenQueue = s.seenQueue[1:]
	}
	s.mu.Unlock()
	done("accepted")
	s.tel.batchOK.Inc()
	s.tel.recAccept.Add(uint64(ack.Accepted))
	s.tel.recDup.Add(uint64(ack.Duplicate))
	s.tel.recReplace.Add(uint64(ack.Replaced))
	s.tel.batchEvent(b.Node, b.ID, "accepted", &int3{ack.Accepted, ack.Duplicate, ack.Replaced})
	return s.reply(conn, mustAck(ack))
}

// handleQuery answers one snapshot query. It reports whether the
// connection should stay open.
func (s *Server) handleQuery(conn net.Conn, f wire.Frame) bool {
	t0 := s.nowSec()
	q, err := f.AsQuery()
	if err != nil {
		s.countProtocolError()
		s.reply(conn, wire.ErrorReply(err.Error()))
		return false
	}
	sp := s.tracer.Remote(f.Trace, spanServerQuery, t0)
	sp.Attr("kind", string(q.Kind))
	defer func() {
		sp.End(s.nowSec())
		s.observe(s.tel.latQuery, t0)
	}()
	s.mu.Lock()
	s.stats.Queries++
	s.mu.Unlock()
	s.tel.queries.Inc()
	var resp wire.Frame
	switch q.Kind {
	case wire.QueryStats:
		resp, err = wire.EncodeResult(q.Kind, s.Stats())
	case wire.QueryAggregate:
		resp, err = wire.EncodeResult(q.Kind, s.Aggregate())
	case wire.QueryJobs:
		resp, err = wire.EncodeResult(q.Kind, s.JobSummaries())
	case wire.QueryNodePowers:
		resp, err = wire.EncodeResult(q.Kind, s.NodePowersByName())
	case wire.QueryRecords:
		resp, err = wire.EncodeResult(q.Kind, s.db.Records())
	case wire.QueryAcctJobs:
		var page accounting.Page
		page, err = s.acct.Query(accounting.Query{
			User:   q.User,
			Job:    q.Job,
			Since:  q.Since,
			Limit:  q.Limit,
			Cursor: q.Cursor,
		})
		if err == nil {
			resp, err = wire.EncodeResult(q.Kind, page)
		}
	case wire.QueryAcctRecords:
		resp, err = wire.EncodeResult(q.Kind, s.acct.Snapshot())
	case wire.QueryGeneration:
		resp, err = wire.EncodeResult(q.Kind, wire.Generation{Gen: s.Generation()})
	case wire.QuerySummary:
		var sum eard.JobSummary
		sum, err = s.db.Summarize(q.Job, q.Step)
		if err == nil {
			resp, err = wire.EncodeResult(q.Kind, sum)
		}
	default:
		s.reply(conn, wire.ErrorReply(fmt.Sprintf("unknown query kind %q", q.Kind)))
		return true
	}
	if err != nil {
		s.reply(conn, wire.ErrorReply(err.Error()))
		return true
	}
	return s.reply(conn, resp)
}

// JobSummaries summarizes every (job, step) pair, in db.Jobs order.
func (s *Server) JobSummaries() []eard.JobSummary {
	jobs := s.db.Jobs()
	out := make([]eard.JobSummary, 0, len(jobs))
	for _, js := range jobs {
		sum, err := s.db.Summarize(js[0], js[1])
		if err != nil {
			// A job listed by Jobs always has records; a race with a
			// concurrent Load is the only path here. Skip it.
			continue
		}
		out = append(out, sum)
	}
	return out
}

// Stats returns a snapshot of the activity counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Aggregate returns the cluster view: node count, summed last-known
// node power, total accounted energy and record count.
func (s *Server) Aggregate() Aggregate {
	powers := s.NodePowers()
	agg := Aggregate{Nodes: len(powers), Records: s.db.Len()}
	for _, p := range powers {
		agg.TotalPowerW += p
	}
	for _, sum := range s.JobSummaries() {
		agg.TotalEnergyJ += sum.EnergyJ
	}
	return agg
}

// NodePowers implements eargm.PowerSource: the last reported DC power
// of every node, ordered by node name so the feed is deterministic.
func (s *Server) NodePowers() []float64 {
	byName := s.NodePowersByName()
	out := make([]float64, len(byName))
	for i, np := range byName {
		out[i] = np.PowerW
	}
	return out
}

// SeedAcct restores the job accounting store, as a daemon restarting
// over a persisted database does: accepted job records are durable
// state, so they survive a restart the way node records in the DB do.
func (s *Server) SeedAcct(recs []accounting.Record) {
	s.acct.Seed(recs)
}

// SeedNodePowers pre-populates the last-known per-node power view, as
// a daemon restarting over a persisted DB does from its saved
// snapshot: the record set alone cannot reconstruct ingestion order,
// so the power view travels separately across a restart.
func (s *Server) SeedNodePowers(nps []wire.NodePower) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, np := range nps {
		s.nodeW[np.Node] = np.PowerW
	}
}

// NodePowersByName returns the last reported DC power of every node
// with its name, sorted by node. This is the shard-level view the
// federation root merges: names make the merge unambiguous, and the
// shared sort order keeps the merged sum arithmetic identical to a
// single daemon's.
func (s *Server) NodePowersByName() []wire.NodePower {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.nodeW))
	for n := range s.nodeW {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]wire.NodePower, len(names))
	for i, n := range names {
		out[i] = wire.NodePower{Node: n, PowerW: s.nodeW[n]}
	}
	return out
}

func (s *Server) countProtocolError() {
	s.mu.Lock()
	s.stats.ProtocolErrors++
	s.mu.Unlock()
	s.tel.protoErrs.Inc()
}

// rejectBatch counts and reports a permanent (non-retryable) batch
// rejection while keeping the connection open.
func (s *Server) rejectBatch(conn net.Conn, msg string) {
	s.mu.Lock()
	s.stats.BatchesRejected++
	s.mu.Unlock()
	s.tel.batchRej.Inc()
	s.tel.batchEvent("", "", "rejected", nil)
	s.reply(conn, wire.ErrorReply(msg))
}

// reply best-effort writes a frame; a failed write means the peer is
// gone, which the caller treats as connection end.
func (s *Server) reply(conn net.Conn, f wire.Frame) bool {
	if err := wire.WriteFrame(conn, f, s.cfg.MaxFramePayload); err != nil {
		return false
	}
	return true
}

// mustAck encodes an ack frame; encoding the fixed Ack struct cannot
// fail.
func mustAck(a wire.Ack) wire.Frame {
	f, err := wire.EncodeAck(a)
	if err != nil {
		panic(err)
	}
	return f
}

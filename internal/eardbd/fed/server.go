package fed

import (
	"fmt"
	"net"

	"goear/internal/accounting"
	"goear/internal/wire"
)

// session answers snapshot queries on one connection until EOF or a
// protocol violation; the embedded Conns closes the connection after.
// The root speaks the same wire protocol as a shard daemon, so earctl
// dbd and eargm feeds point at either interchangeably. Batches are
// refused: reports go to the shard that owns the node (ring
// placement), never through the root — the root is a read path, and
// keeping it so means a root outage can never lose accounting data.
func (r *Root) session(conn net.Conn) {
	for {
		f, err := wire.ReadFrame(conn, r.cfg.MaxFramePayload)
		if err != nil {
			if !wire.Disconnected(err) {
				r.reply(conn, wire.ErrorReply(err.Error()))
			}
			return
		}
		switch f.Type {
		case wire.TypeQuery:
			if !r.handleQuery(conn, f) {
				return
			}
		case wire.TypeBatch:
			r.reply(conn, wire.ErrorReply("federation root does not accept batches; report to the owning shard"))
			return
		default:
			r.reply(conn, wire.ErrorReply(fmt.Sprintf("unexpected %s frame", f.Type)))
			return
		}
	}
}

// handleQuery fans one snapshot query out to the shards and replies
// with the merged view. It reports whether the connection should stay
// open. When tracing is on, the serving renders as a fed.query span —
// continuing the caller's frame context — whose fed.fanout children
// carry their contexts onto the shard query frames, so one served
// query reads as a connected tree from the caller through the root to
// every shard daemon.
func (r *Root) handleQuery(conn net.Conn, f wire.Frame) bool {
	t0 := r.nowSec()
	q, err := f.AsQuery()
	if err != nil {
		r.reply(conn, wire.ErrorReply(err.Error()))
		return false
	}
	sp := r.tracer.Remote(f.Trace, spanFedQuery, t0)
	sp.Attr("kind", string(q.Kind))
	defer func() {
		sp.End(r.nowSec())
		r.observe(r.tel.latQuery, t0)
	}()
	r.mu.Lock()
	r.stats.Queries++
	r.mu.Unlock()
	r.tel.queries.Inc()
	var resp wire.Frame
	switch q.Kind {
	case wire.QueryStats:
		var sum any
		sum, err = r.mergedStats(sp)
		if err == nil {
			resp, err = wire.EncodeResult(q.Kind, sum)
		}
	case wire.QueryAggregate:
		var agg any
		agg, err = r.aggregate(sp)
		if err == nil {
			resp, err = wire.EncodeResult(q.Kind, agg)
		}
	case wire.QueryJobs:
		var sums any
		sums, err = r.jobSummaries(sp)
		if err == nil {
			resp, err = wire.EncodeResult(q.Kind, sums)
		}
	case wire.QueryNodePowers:
		var nps any
		nps, err = r.mergedNodePowers(sp)
		if err == nil {
			resp, err = wire.EncodeResult(q.Kind, nps)
		}
	case wire.QueryRecords:
		db, qerr := r.mergedDB(sp)
		err = qerr
		if err == nil {
			resp, err = wire.EncodeResult(q.Kind, db.Records())
		}
	case wire.QuerySummary:
		var sum any
		sum, err = r.summarize(sp, q.Job, q.Step)
		if err == nil {
			resp, err = wire.EncodeResult(q.Kind, sum)
		}
	case wire.QueryAcctJobs:
		var page any
		page, err = r.acctQuery(sp, accounting.Query{
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
		var recs any
		recs, err = r.acctRecords(sp)
		if err == nil {
			resp, err = wire.EncodeResult(q.Kind, recs)
		}
	case wire.QueryGeneration:
		var gen uint64
		gen, err = r.generation(sp)
		if err == nil {
			resp, err = wire.EncodeResult(q.Kind, wire.Generation{Gen: gen})
		}
	default:
		r.reply(conn, wire.ErrorReply(fmt.Sprintf("unknown query kind %q", q.Kind)))
		return true
	}
	if err != nil {
		r.reply(conn, wire.ErrorReply(err.Error()))
		return true
	}
	return r.reply(conn, resp)
}

// reply best-effort writes a frame; a failed write means the peer is
// gone, which the caller treats as connection end.
func (r *Root) reply(conn net.Conn, f wire.Frame) bool {
	return wire.WriteFrame(conn, f, r.cfg.MaxFramePayload) == nil
}

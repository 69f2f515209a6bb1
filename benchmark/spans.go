package main

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"goear/internal/telemetry"
	"goear/internal/telemetry/trace"
)

// Tracing from outside. The traced run hands the program's own span
// buffer and a wall clock to the components that accept them
// (eardbd.Config, fed.Config, eardbd.ClientConfig), turns the global
// telemetry set on for the simulator and experiment counters, and
// wraps the calls it makes into each layer in spans of its own (kind
// prefix "bench."). Nothing inside the program is changed.

// spanBufferCap bounds the span ring of a traced run. The largest
// traced unit, one ingest burst, ends about 0.4 million spans; a ring
// that overflowed would bias the self times, so runs report the
// dropped count and fail the check when it is not zero.
const spanBufferCap = 1 << 19

// epoch anchors the wall clock handed to the program's Now hooks.
var epoch = time.Now()

// wallNow is a monotonic wall clock in seconds.
func wallNow() float64 { return time.Since(epoch).Seconds() }

// spanKey identifies a span within its trace.
type spanKey struct{ trace, id trace.HexID }

// kindStat aggregates the spans of one kind.
type kindStat struct {
	kind    string
	count   int
	totalS  float64
	selfS   float64
	topLvl  bool // a benchmark span: the root of what it measured
	perCall float64
}

// selfTimes aggregates self time per span kind. A span's self time is
// its duration minus the part of it its children's intervals cover,
// children overlapping each other counted once. adopt may give a root
// span a parent it could not name itself (a client batch adopted by
// the benchmark span around its client session).
func selfTimes(spans []trace.Span, adopt func(trace.Span) (spanKey, bool)) map[string]*kindStat {
	kids := map[spanKey][][2]float64{}
	for _, s := range spans {
		var pk spanKey
		switch {
		case s.Parent != 0:
			pk = spanKey{s.Trace, s.Parent}
		case adopt != nil:
			k, ok := adopt(s)
			if !ok {
				continue
			}
			pk = k
		default:
			continue
		}
		kids[pk] = append(kids[pk], [2]float64{s.Start, s.End})
	}
	out := map[string]*kindStat{}
	for _, s := range spans {
		st := out[s.Kind]
		if st == nil {
			st = &kindStat{kind: s.Kind, topLvl: strings.HasPrefix(s.Kind, "bench.")}
			out[s.Kind] = st
		}
		dur := s.End - s.Start
		st.count++
		st.totalS += dur
		st.selfS += dur - covered(s.Start, s.End, kids[spanKey{s.Trace, s.ID}])
	}
	for _, st := range out {
		st.perCall = st.selfS / float64(st.count)
	}
	return out
}

// covered returns how much of [lo, hi] the intervals cover.
func covered(lo, hi float64, ivs [][2]float64) float64 {
	if len(ivs) == 0 {
		return 0
	}
	clip := make([][2]float64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := iv[0], iv[1]
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			clip = append(clip, [2]float64{a, b})
		}
	}
	sort.Slice(clip, func(i, j int) bool { return clip[i][0] < clip[j][0] })
	total, curA, curB := 0.0, 0.0, -1.0
	for i, iv := range clip {
		if i == 0 || iv[0] > curB {
			if i > 0 {
				total += curB - curA
			}
			curA, curB = iv[0], iv[1]
			continue
		}
		if iv[1] > curB {
			curB = iv[1]
		}
	}
	if len(clip) > 0 {
		total += curB - curA
	}
	return total
}

// selfPerCallUS returns a kind's mean self time per span in µs, 0 when
// the workload produced no such span.
func selfPerCallUS(st map[string]*kindStat, kind string) float64 {
	if s := st[kind]; s != nil {
		return s.perCall * 1e6
	}
	return 0
}

// estimate is one row of the isolated-cost part of the layer table:
// a layer's cost per call measured alone, times how often the
// workload called it.
type estimate struct {
	layer  string
	perOp  float64 // seconds
	calls  float64
	source string // where the call count comes from
}

// printLayerTable writes the per-layer breakdown of one traced unit
// of work: self time per span kind, isolated cost × call count, and
// the comparison of the layer sums with end-to-end wall time.
func printLayerTable(w io.Writer, workload string, wallS float64, lanes int, st map[string]*kindStat, est []estimate, dropped uint64) {
	kinds := make([]*kindStat, 0, len(st))
	for _, s := range st {
		kinds = append(kinds, s)
	}
	sort.Slice(kinds, func(i, j int) bool {
		if kinds[i].selfS != kinds[j].selfS {
			return kinds[i].selfS > kinds[j].selfS
		}
		return kinds[i].kind < kinds[j].kind
	})
	busy := wallS * float64(lanes)
	fmt.Fprintf(w, "== per-layer table: %s (traced unit wall %.1f ms, %d lane(s), %d spans dropped)\n", workload, wallS*1e3, lanes, dropped)
	fmt.Fprintf(w, "%-30s %9s %12s %12s %12s %8s\n", "span kind", "count", "total_ms", "self_ms", "self_us/op", "self%")
	var selfSum, topSum float64
	for _, k := range kinds {
		selfSum += k.selfS
		if k.topLvl {
			topSum += k.totalS
		}
		fmt.Fprintf(w, "%-30s %9d %12.2f %12.2f %12.2f %7.1f%%\n", k.kind, k.count, k.totalS*1e3, k.selfS*1e3, k.perCall*1e6, pct(k.selfS, busy))
	}
	fmt.Fprintf(w, "%-30s %9s %12s %12.2f %12s %7.1f%%\n", "sum of self times", "", "", selfSum*1e3, "", pct(selfSum, busy))
	fmt.Fprintf(w, "%-30s %9s %12.2f %12s %12s %7.1f%%\n", "benchmark spans", "", topSum*1e3, "", "", pct(topSum, busy))
	fmt.Fprintf(w, "%-30s %9s %12.2f %12s %12s %7.1f%%\n", "unexplained", "", (busy-topSum)*1e3, "", "", pct(busy-topSum, busy))
	if len(est) > 0 {
		fmt.Fprintf(w, "%-30s %12s %14s %12s %8s  %s\n", "isolated layer", "cost/op_ns", "calls", "est_ms", "of wall", "call count from")
		var estSum float64
		for _, e := range est {
			ms := e.perOp * e.calls * 1e3
			estSum += ms / 1e3
			fmt.Fprintf(w, "%-30s %12.1f %14.0f %12.2f %7.1f%%  %s\n", e.layer, e.perOp*1e9, e.calls, ms, pct(e.perOp*e.calls, busy), e.source)
		}
		fmt.Fprintf(w, "%-30s %12s %14s %12.2f %7.1f%%  %s\n", "sum of estimates", "", "", estSum*1e3, pct(estSum, busy), "vs end-to-end wall × lanes")
	}
}

func pct(part, whole float64) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * part / whole
}

// counterSnapshot reads every counter and gauge of a telemetry set,
// keyed by name plus label block.
func counterSnapshot(s *telemetry.Set) (map[string]float64, error) {
	out := map[string]float64{}
	if s == nil {
		return out, nil
	}
	var buf bytes.Buffer
	if err := s.Registry.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	samples, err := telemetry.ParseText(&buf)
	if err != nil {
		return nil, err
	}
	for _, sm := range samples {
		out[sm.Name+sm.Labels] += sm.Value
	}
	return out, nil
}

// delta sums the growth of every series whose key starts with prefix.
func delta(before, after map[string]float64, prefix string) float64 {
	var d float64
	for k, v := range after {
		if strings.HasPrefix(k, prefix) {
			d += v - before[k]
		}
	}
	return d
}

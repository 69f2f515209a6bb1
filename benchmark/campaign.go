package main

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"time"

	"goear/internal/experiments"
	"goear/internal/report"
	"goear/internal/telemetry"
	"goear/internal/telemetry/trace"
)

// The paper_campaign workload regenerates every experiment of the
// paper's evaluation at the paper's 3-run protocol, macro-stepped, as
// `benchtables -exp all` does, sharing one context's singleflight
// caches. One campaign is one unit of work; each gets a fresh run
// cache (experiments.NewFrom) over models and calibrations trained
// during set-up. The campaign's inputs are the paper's configurations;
// the seed does not change them.
//
// Experiments run one after another in presentation order, each
// fanning its rows, averaged seeds and cluster nodes out over
// Context.Parallel workers. benchtables also fans whole experiments
// out, but their costs differ by four orders of magnitude, so which
// worker draws which large experiment moved the campaign's wall time
// by about 10% from run to run, noise with no cause in the program.
// The fixed order also fixes which experiment pays for a run several
// of them share, so per-experiment latencies compare across runs.

// campaignParallel is Context.Parallel: nproc on the 2-core machine
// the bounds were set on.
const campaignParallel = 2

type campaignInputs struct {
	base *experiments.Context
	ids  []string // presentation order
}

func buildCampaign() (*campaignInputs, error) {
	// One pass at one run per configuration trains every platform
	// model and calibrates every workload the campaign touches;
	// NewFrom hands both to each measured campaign.
	base := experiments.NewQuick()
	base.Parallel = campaignParallel
	ids := experiments.IDs()
	for _, id := range ids {
		if _, err := base.Generate(id); err != nil {
			return nil, err
		}
	}
	return &campaignInputs{base: base, ids: ids}, nil
}

// campaignOut is one campaign's outputs and timings.
type campaignOut struct {
	wallS   float64
	genS    map[string]float64 // Generate latency per experiment
	tables  map[string][]report.Table
	errs    map[string]error
	allocMB float64
	rssMB   float64
}

// campaign regenerates every experiment in turn with the given
// Context.Parallel. A non-nil tracer wraps each Generate in a
// bench.generate span.
func (in *campaignInputs) campaign(parallel int, bt *trace.Tracer) *campaignOut {
	ctx := experiments.NewFrom(in.base)
	ctx.Runs = 3
	ctx.Parallel = parallel
	tabs := make([][]report.Table, len(in.ids))
	errs := make([]error, len(in.ids))
	lat := make([]float64, len(in.ids))
	freshUnit()
	a0 := allocMB()
	t0 := time.Now()
	for i, id := range in.ids {
		sp := bt.Root("bench.generate", wallNow()).Attr("id", id)
		g0 := time.Now()
		tabs[i], errs[i] = ctx.Generate(id)
		lat[i] = time.Since(g0).Seconds()
		sp.End(wallNow())
	}
	out := &campaignOut{
		wallS:   time.Since(t0).Seconds(),
		allocMB: allocMB() - a0,
		rssMB:   unitPeakRSSMB(),
		genS:    map[string]float64{},
		tables:  map[string][]report.Table{},
		errs:    map[string]error{},
	}
	for i, id := range in.ids {
		out.genS[id], out.tables[id], out.errs[id] = lat[i], tabs[i], errs[i]
	}
	return out
}

// check renders each experiment's tables as benchtables prints them
// and compares them with the pinned digests.
func (in *campaignInputs) check(o *campaignOut) error {
	var bad []string
	for _, id := range in.ids {
		if o.errs[id] != nil {
			continue // counted as a failed Generate
		}
		var buf bytes.Buffer
		for _, t := range o.tables[id] {
			if err := t.Render(&buf); err != nil {
				return err
			}
			buf.WriteByte('\n')
		}
		if err := matchDigest(id, pinnedCampaign[id], buf.Bytes()); err != nil {
			bad = append(bad, err.Error())
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("%d experiments differ: %s", len(bad), strings.Join(bad, "; "))
	}
	return nil
}

// tally counts a campaign's Generate calls and checks its output.
func (b *bench) tallyCampaign(in *campaignInputs, o *campaignOut) {
	for _, id := range in.ids {
		b.op("generate "+id, o.errs[id])
	}
	b.check("campaign tables", in.check(o))
}

func runCampaign(b *bench) error {
	var in *campaignInputs
	if err := b.setup(func() (err error) {
		in, err = buildCampaign()
		return err
	}); err != nil {
		return err
	}
	if b.traced {
		return traceCampaign(b, in)
	}
	var walls, rates, allocs, rss []float64
	perID := map[string][]float64{}
	for start := time.Now(); len(walls) == 0 || b.until(start); {
		o := in.campaign(campaignParallel, nil)
		b.tallyCampaign(in, o)
		walls = append(walls, o.wallS)
		rates = append(rates, float64(len(in.ids))/o.wallS)
		for id, s := range o.genS {
			perID[id] = append(perID[id], s*1e3)
		}
		allocs = append(allocs, o.allocMB)
		rss = append(rss, o.rssMB)
	}
	// Latency percentiles run over each experiment's median: pooling
	// every Generate would let the number of campaigns that fit in the
	// window decide which experiment a percentile lands on.
	lats := make([]float64, 0, len(perID))
	for _, v := range perID {
		lats = append(lats, median(v))
	}
	sort.Float64s(lats)
	b.set("unit_s", "s", median(walls))
	b.set("throughput_per_s", "1/s", median(rates))
	b.set("op_p50_ms", "ms", percentile(lats, 0.50))
	b.set("op_tail_ms", "ms", percentile(lats, 0.90))
	b.resources(allocs, rss)
	b.headline("campaign_s", "s", median(walls))
	b.headline("campaigns", "count", float64(len(walls)))
	return nil
}

// traceCampaign alternates untraced and traced campaigns while the
// window is open, both at Parallel 1 so each experiment's time is its
// own; the traced one has global telemetry on for the simulator and
// experiment-cache counters and a span around every Generate.
func traceCampaign(b *bench, in *campaignInputs) error {
	var plain, traced []float64
	perID := map[string][]float64{}
	var steps, macro, cacheReq, cacheComp float64
	for start := time.Now(); len(traced) == 0 || b.until(start); {
		o := in.campaign(1, nil)
		b.tallyCampaign(in, o)
		plain = append(plain, o.wallS)

		set := telemetry.Enable()
		before, err := counterSnapshot(set)
		if err != nil {
			return err
		}
		tb := trace.NewBuffer(spanBufferCap)
		o = in.campaign(1, trace.New("bench", tb))
		after, err := counterSnapshot(set)
		telemetry.Disable()
		if err != nil {
			return err
		}
		b.tallyCampaign(in, o)
		traced = append(traced, o.wallS)
		for _, s := range tb.Spans() {
			id := s.Attrs.Get("id")
			perID[id] = append(perID[id], s.End-s.Start)
		}
		steps = delta(before, after, "goear_sim_steps_total")
		macro = delta(before, after, "goear_sim_macro_steps_total")
		cacheReq = delta(before, after, "goear_experiments_cache_requests_total")
		cacheComp = delta(before, after, "goear_experiments_cache_computes_total")
	}
	vals := map[string]float64{}
	st := map[string]*kindStat{}
	for _, id := range in.ids {
		vals["experiments."+id+"_s"] = median(perID[id])
		st["bench.generate "+id] = &kindStat{kind: "bench.generate " + id, count: 1, totalS: median(perID[id]), selfS: median(perID[id]), topLvl: true, perCall: median(perID[id])}
	}
	vals["experiments.cache_hit_ratio"] = 1 - cacheComp/cacheReq
	vals["sim.steps"] = steps
	vals["sim.macro_steps"] = macro
	vals["sim.macro_ratio"] = macro / steps
	vals["trace.overhead_ratio"] = median(traced) / median(plain)
	iso, err := isolated(b.seed, nil)
	if err != nil {
		return err
	}
	est := []estimate{{layer: "sim.node_step", perOp: iso["sim.node_step_ns"] * 1e-9, calls: steps, source: "goear_sim_steps_total (exact steps; macro steps cost more)"}}
	printLayerTable(b.out, "paper_campaign", median(traced), 1, st, est, 0)
	return b.finishTraced(vals, iso)
}

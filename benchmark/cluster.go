package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"goear/internal/eargm"
	"goear/internal/model"
	"goear/internal/sim"
	"goear/internal/telemetry"
	"goear/internal/telemetry/trace"
	"goear/internal/workload"
)

// The cluster_sim workload runs BT-MZ.C on 4096 nodes in lock-step
// under min_energy_eufs while an EARGM manager the benchmark builds
// enforces a 1.2 MW site budget — about 95% of the uncapped draw, so
// the manager really caps. Nodes step on the struct-of-arrays batch
// kernels, two shards over two workers, macro-stepped. One run is one
// unit of work. The seed picks the run's noise seed among the content
// variants.
const (
	clusterNodes   = 4096
	clusterBudgetW = 1.2e6
	clusterMaxCap  = 8
	// clusterWorkers is both Workers and Shards: nproc on the 2-core
	// machine the bounds were set on.
	clusterWorkers = 2
)

type clusterInputs struct {
	variant int
	cal     workload.Calibrated
	model   *model.Model
}

func buildCluster(seed int64) (*clusterInputs, error) {
	spec, err := workload.Lookup(workload.BTMZC)
	if err != nil {
		return nil, err
	}
	spec.Nodes = clusterNodes
	cal, err := spec.Calibrate()
	if err != nil {
		return nil, err
	}
	m, err := model.TrainForCPU(cal.Platform.Machine, cal.Platform.Power)
	if err != nil {
		return nil, err
	}
	return &clusterInputs{variant: variant(seed), cal: cal, model: m}, nil
}

// timedManager wraps the EARGM manager, timing the lock-step interval
// that ends in each Update. With a tracer it records spans:
// bench.interval from the previous Update's return to this one's, with
// a bench.update child around the manager's own work.
type timedManager struct {
	gm        *eargm.Manager
	bt        *trace.Tracer
	last      time.Time
	lastWall  float64
	intervals []float64 // seconds, Update return to Update return
	cur, caps int
}

func (p *timedManager) Interval() float64 { return p.gm.Interval() }

func (p *timedManager) Update(now float64, powers []float64) (int, error) {
	isp := p.bt.Root("bench.interval", p.lastWall)
	usp := isp.Child("bench.update", wallNow())
	capP, err := p.gm.Update(now, powers)
	t1, w1 := time.Now(), wallNow()
	usp.End(w1)
	isp.End(w1)
	p.intervals = append(p.intervals, t1.Sub(p.last).Seconds())
	p.last, p.lastWall = t1, w1
	if capP != p.cur {
		p.caps++
		p.cur = capP
	}
	return capP, err
}

type clusterOut struct {
	res     sim.Result
	err     error
	wallS   float64
	allocMB float64
	rssMB   float64
	pm      *timedManager
}

// run executes one coordinated run.
func (in *clusterInputs) run(bt *trace.Tracer) *clusterOut {
	gm, err := eargm.New(eargm.Config{BudgetW: clusterBudgetW, MaxCapPstate: clusterMaxCap})
	if err != nil {
		return &clusterOut{err: err}
	}
	opt := sim.Options{
		Policy:    "min_energy_eufs",
		Model:     in.model,
		Seed:      int64(in.variant) + 1,
		Workers:   clusterWorkers,
		Shards:    clusterWorkers,
		MacroStep: true,
	}
	freshUnit()
	a0 := allocMB()
	pm := &timedManager{gm: gm, bt: bt, last: time.Now(), lastWall: wallNow()}
	t0 := time.Now()
	res, err := sim.RunCoordinated(in.cal, opt, pm)
	wall := time.Since(t0).Seconds()
	return &clusterOut{res: res, err: err, wallS: wall, allocMB: allocMB() - a0, rssMB: unitPeakRSSMB(), pm: pm}
}

// nodeTicks is the run's simulated work: nodes × simulated seconds ×
// 100 ticks per second.
func (o *clusterOut) nodeTicks() float64 { return clusterNodes * o.res.TimeSec * 100 }

// check compares the result with the pinned digest and checks that
// the per-node energies add up to the cluster aggregate.
func (in *clusterInputs) check(o *clusterOut) error {
	if len(o.res.Nodes) != clusterNodes {
		return fmt.Errorf("result has %d nodes, want %d", len(o.res.Nodes), clusterNodes)
	}
	var sum float64
	for _, n := range o.res.Nodes {
		sum += n.EnergyJ
	}
	if mean := sum / clusterNodes; math.Abs(mean-o.res.EnergyJ) > 1e-9*math.Abs(o.res.EnergyJ) {
		return fmt.Errorf("node energies average %.12g J, aggregate says %.12g J", mean, o.res.EnergyJ)
	}
	js, err := json.Marshal(o.res)
	if err != nil {
		return err
	}
	return matchDigest("cluster result", pinnedCluster[in.variant], js)
}

func runCluster(b *bench) error {
	var in *clusterInputs
	if err := b.setup(func() (err error) {
		in, err = buildCluster(b.seed)
		return err
	}); err != nil {
		return err
	}
	if b.traced {
		return traceCluster(b, in)
	}
	var walls, rates, ivs, allocs, rss []float64
	for start := time.Now(); len(walls) == 0 || b.until(start); {
		o := in.run(nil)
		b.op("coordinated run", o.err)
		if o.err != nil {
			continue
		}
		b.check("cluster result", in.check(o))
		walls = append(walls, o.wallS)
		rates = append(rates, o.nodeTicks()/o.wallS)
		for _, s := range o.pm.intervals {
			ivs = append(ivs, s*1e3)
		}
		allocs = append(allocs, o.allocMB)
		rss = append(rss, o.rssMB)
	}
	sort.Float64s(ivs)
	b.set("unit_s", "s", median(walls))
	b.set("throughput_per_s", "1/s", median(rates))
	b.set("op_p50_ms", "ms", percentile(ivs, 0.50))
	b.set("op_tail_ms", "ms", percentile(ivs, 0.90))
	b.resources(allocs, rss)
	b.headline("node_ticks_per_s", "1/s", median(rates))
	b.headline("runs", "count", float64(len(walls)))
	return nil
}

// traceCluster alternates untraced and traced runs while the window
// is open; the traced one has global telemetry on and the manager's
// interval and update spans.
func traceCluster(b *bench, in *clusterInputs) error {
	var plain, traced, nodeTicks []float64
	var st map[string]*kindStat
	var steps, macro, caps, intervals float64
	for start := time.Now(); len(traced) == 0 || b.until(start); {
		o := in.run(nil)
		b.op("coordinated run", o.err)
		if o.err != nil {
			return o.err
		}
		b.check("cluster result", in.check(o))
		plain = append(plain, o.wallS)

		set := telemetry.Enable()
		before, err := counterSnapshot(set)
		if err != nil {
			return err
		}
		tb := trace.NewBuffer(spanBufferCap)
		o = in.run(trace.New("bench", tb))
		after, err := counterSnapshot(set)
		telemetry.Disable()
		if err != nil {
			return err
		}
		b.op("coordinated run", o.err)
		if o.err != nil {
			return o.err
		}
		b.check("cluster result", in.check(o))
		traced = append(traced, o.wallS)
		nodeTicks = append(nodeTicks, o.nodeTicks())
		st = selfTimes(tb.Spans(), nil)
		steps = delta(before, after, "goear_sim_steps_total")
		macro = delta(before, after, "goear_sim_macro_steps_total")
		caps, intervals = float64(o.pm.caps), float64(len(o.pm.intervals))
	}
	iso, err := isolated(b.seed, nil)
	if err != nil {
		return err
	}
	vals := map[string]float64{
		"sim.interval_ms":      selfPerCallUS(st, "bench.interval") / 1e3,
		"eargm.update_us":      selfPerCallUS(st, "bench.update"),
		"eargm.cap_changes":    caps,
		"sim.steps":            steps,
		"sim.macro_steps":      macro,
		"trace.overhead_ratio": median(traced) / median(plain),
	}
	if steps > 0 {
		vals["sim.macro_ratio"] = macro / steps
	}
	est := []estimate{
		{layer: "sim.batch_tick", perOp: iso["sim.batch_tick_ns_per_node"] * 1e-9, calls: median(nodeTicks), source: "nodes × simulated s × 100 (exact ticks; macro steps cost less)"},
		{layer: "eargm.update", perOp: vals["eargm.update_us"] * 1e-6, calls: intervals, source: "Update calls seen by the wrapping manager"},
	}
	printLayerTable(b.out, "cluster_sim", median(traced), 1, st, est, 0)
	return b.finishTraced(vals, iso)
}

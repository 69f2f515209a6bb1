package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"time"

	"goear/internal/accounting"
	"goear/internal/dynais"
	"goear/internal/eardbd/ring"
	"goear/internal/experiments"
	"goear/internal/metrics"
	"goear/internal/model"
	"goear/internal/msr"
	"goear/internal/perf"
	"goear/internal/sim"
	"goear/internal/uncore"
	"goear/internal/wire"
	"goear/internal/workload"
)

// endToEnd lists the metrics of an untraced run; every workload
// reports all of them (README.md maps each to the workload's own
// names).
var endToEnd = []string{"setup_s", "unit_s", "throughput_per_s", "op_p50_ms", "op_tail_ms", "alloc_mb", "peak_rss_mb"}

// perLayer lists the metrics of a traced run with their units. The
// experiments.<id>_s entries follow experiments.IDs().
func perLayer() [][2]string {
	var out [][2]string
	for _, id := range experiments.IDs() {
		out = append(out, [2]string{"experiments." + id + "_s", "s"})
	}
	return append(out, [][2]string{
		{"experiments.cache_hit_ratio", "ratio"},
		{"sim.node_step_ns", "ns"},
		{"sim.steps", "count"},
		{"sim.macro_steps", "count"},
		{"sim.macro_ratio", "ratio"},
		{"sim.batch_tick_ns_per_node", "ns"},
		{"sim.interval_ms", "ms"},
		{"uncore.advance_ns", "ns"},
		{"perf.evaluate_ns", "ns"},
		{"model.predict_ns", "ns"},
		{"model.train_ms", "ms"},
		{"dynais.push_ns", "ns"},
		{"eargm.update_us", "us"},
		{"eargm.cap_changes", "count"},
		{"wire.bytes_per_record", "B"},
		{"wire.encode_ns_per_record", "ns"},
		{"wire.decode_ns_per_record", "ns"},
		{"wire.allocs_per_record", "count"},
		{"server.batch_self_us", "us"},
		{"server.validate_self_us", "us"},
		{"server.dedup_self_us", "us"},
		{"server.store_self_us", "us"},
		{"server.acct_self_us", "us"},
		{"eardbd.allocs_per_record", "count"},
		{"client.session_us", "us"},
		{"ring.owner_ns", "ns"},
		{"accounting.insert_ns", "ns"},
		{"accounting.query_us", "us"},
		{"fed.query_self_us", "us"},
		{"fed.fanout_self_us", "us"},
		{"fed.merge_self_us", "us"},
		{"server.query_self_us", "us"},
		{"fed.cache_hit_ratio", "ratio"},
		{"fed.bytes_per_query", "B"},
		{"fed.rebuild_ms", "ms"},
		{"fed.hit_us", "us"},
		{"trace.overhead_ratio", "ratio"},
	}...)
}

// finishTraced turns a traced run's measurements into the result's
// metrics: exactly the per-layer set. Layers the workload does not
// reach read 0 — no such work happened in it.
func (b *bench) finishTraced(vals ...map[string]float64) error {
	known := map[string]bool{}
	b.metrics = map[string]metric{}
	for _, nu := range perLayer() {
		known[nu[0]] = true
		v := 0.0
		for _, m := range vals {
			if x, ok := m[nu[0]]; ok {
				v = x
			}
		}
		b.set(nu[0], nu[1], v)
	}
	for _, m := range vals {
		for k := range m {
			if !known[k] {
				return fmt.Errorf("measured %s, which is not a per-layer metric", k)
			}
		}
	}
	return b.finite()
}

// finite fails when a metric could not be computed (no samples, or a
// zero base of a ratio).
func (b *bench) finite() error {
	for k, m := range b.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s has no value", k)
		}
	}
	return nil
}

// finishUntraced checks that an untraced run produced exactly the
// end-to-end set.
func (b *bench) finishUntraced() error {
	if len(b.metrics) != len(endToEnd) {
		return fmt.Errorf("reported %d end-to-end metrics, want %d", len(b.metrics), len(endToEnd))
	}
	for _, n := range endToEnd {
		if _, ok := b.metrics[n]; !ok {
			return fmt.Errorf("end-to-end metric %s missing", n)
		}
	}
	return b.finite()
}

// perCall runs fn calls times per repetition and returns the median
// over reps repetitions of the seconds per call.
func perCall(reps, calls int, fn func(i int) error) (float64, error) {
	per := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			if err := fn(i); err != nil {
				return 0, err
			}
		}
		per = append(per, time.Since(t0).Seconds()/float64(calls))
	}
	return median(per), nil
}

// isolated measures each layer alone by timing calls into its public
// functions on inputs built from the seed: the BT-MZ.C node the
// simulation workloads run, and the service workloads' node traffic
// (nodes; nil builds the 500-node traffic of the seed's content
// variant). Values are in the units perLayer names.
func isolated(seed int64, nodes []nodeInput) (map[string]float64, error) {
	v := map[string]float64{}
	spec, err := workload.Lookup(workload.BTMZC)
	if err != nil {
		return nil, err
	}
	cal, err := spec.Calibrate()
	if err != nil {
		return nil, err
	}
	machine := cal.Platform.Machine
	var m *model.Model
	train, err := perCall(3, 1, func(int) (err error) {
		m, err = model.TrainForCPU(machine, cal.Platform.Power)
		return err
	})
	if err != nil {
		return nil, err
	}
	v["model.train_ms"] = train * 1e3
	opt := sim.Options{Policy: "min_energy_eufs", Model: m, Seed: seed}

	var st *sim.Stepper
	s, err := perCall(5, 20000, func(int) (err error) {
		if st == nil || st.Done() {
			if st, err = sim.NewStepper(cal, 0, opt); err != nil {
				return err
			}
		}
		return st.Step()
	})
	if err != nil {
		return nil, err
	}
	v["sim.node_step_ns"] = s * 1e9

	const batchNodes = 1024
	bt, err := sim.NewBatch(cal, opt)
	if err != nil {
		return nil, err
	}
	for id := 0; id < batchNodes; id++ {
		if _, err := bt.Add(id); err != nil {
			return nil, err
		}
	}
	// Two simulated seconds first, so the timed ticks see the steady
	// state (controllers settled, most nodes on the fast path) that
	// dominates a run, not the boot ramp.
	for i := 0; i < 200; i++ {
		if err := bt.Tick(0.01); err != nil {
			return nil, err
		}
	}
	s, err = perCall(5, 40, func(int) error { return bt.Tick(0.01) })
	if err != nil {
		return nil, err
	}
	v["sim.batch_tick_ns_per_node"] = s * 1e9 / batchNodes

	ctl, err := uncore.NewController(msr.NewFile(machine.CPU.UncoreMinRatio, machine.CPU.UncoreMaxRatio), cal.HWUncore)
	if err != nil {
		return nil, err
	}
	s, err = perCall(5, 200000, func(int) error { return ctl.Advance(uncore.TickSeconds, machine.CPU.NominalRatio) })
	if err != nil {
		return nil, err
	}
	v["uncore.advance_ns"] = s * 1e9

	s, err = perCall(5, 200000, func(i int) error {
		_, err := perf.Evaluate(machine, cal.Segs[0].Phase, perf.Operating{CoreRatio: machine.CPU.NominalRatio - uint64(i%4), UncoreRatio: machine.CPU.UncoreMaxRatio - uint64(i%8)})
		return err
	})
	if err != nil {
		return nil, err
	}
	v["perf.evaluate_ns"] = s * 1e9

	sig := metrics.Signature{IterTimeSec: 1, CPI: 0.8, TPI: 0.02, GBs: 40, DCPowerW: 330, VPI: 0.2}
	s, err = perCall(5, 200000, func(i int) error {
		_, err := m.Predict(sig, 1, 1+i%8)
		return err
	})
	if err != nil {
		return nil, err
	}
	v["model.predict_ns"] = s * 1e9

	det, err := dynais.New(64)
	if err != nil {
		return nil, err
	}
	pattern := []uint32{1, 2, 3, 4, 5, 6, 7, 8}
	s, err = perCall(5, 200000, func(i int) error {
		det.Push(pattern[i%len(pattern)])
		return nil
	})
	if err != nil {
		return nil, err
	}
	v["dynais.push_ns"] = s * 1e9

	if nodes == nil {
		if nodes, err = buildNodes(int64(variant(seed))+1, 0, queryPreloadNodes, ingestRecsPerNode, ingestAcctPerNode); err != nil {
			return nil, err
		}
	} else if len(nodes) > queryPreloadNodes {
		nodes = nodes[:queryPreloadNodes]
	}
	if err := isolatedService(v, nodes); err != nil {
		return nil, err
	}
	return v, nil
}

// isolatedService measures the service layers on node traffic.
func isolatedService(v map[string]float64, nodes []nodeInput) error {
	// Batches exactly as clients cut them: job records then accounting
	// records, four at a time.
	var batches []wire.Batch
	records := 0
	for i := range nodes {
		n := &nodes[i]
		for k, seq := 0, 1; k < n.records(); k, seq = k+batchRecords, seq+1 {
			b := wire.Batch{ID: fmt.Sprintf("%s/%d", n.name, seq), Node: n.name}
			for j := k; j < k+batchRecords && j < n.records(); j++ {
				if j < len(n.recs) {
					b.Records = append(b.Records, n.recs[j])
				} else {
					b.Acct = append(b.Acct, n.acct[j-len(n.recs)])
				}
			}
			batches = append(batches, b)
			records += len(b.Records) + len(b.Acct)
		}
	}
	frames := make([][]byte, len(batches))
	m0 := mallocs()
	enc, err := perCall(3, len(batches), func(i int) error {
		f, err := wire.EncodeBatch(batches[i])
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := wire.WriteFrame(&buf, f, maxFrame); err != nil {
			return err
		}
		frames[i] = buf.Bytes()
		return nil
	})
	if err != nil {
		return err
	}
	dec, err := perCall(3, len(batches), func(i int) error {
		f, err := wire.ReadFrame(bytes.NewReader(frames[i]), maxFrame)
		if err != nil {
			return err
		}
		_, err = f.AsBatch()
		return err
	})
	if err != nil {
		return err
	}
	perRecord := float64(len(batches)) / float64(records)
	v["wire.encode_ns_per_record"] = enc * 1e9 * perRecord
	v["wire.decode_ns_per_record"] = dec * 1e9 * perRecord
	v["wire.allocs_per_record"] = float64(mallocs()-m0) / float64(3*records)

	rg := ring.New(0)
	for s := 0; s < serviceShards; s++ {
		if err := rg.Add(fmt.Sprintf("shard%d", s)); err != nil {
			return err
		}
	}
	s, err := perCall(5, 20*len(nodes), func(i int) error {
		if _, ok := rg.Owner(nodes[i%len(nodes)].name); !ok {
			return fmt.Errorf("empty ring")
		}
		return nil
	})
	if err != nil {
		return err
	}
	v["ring.owner_ns"] = s * 1e9

	acct := wantAcct(nodes)
	var store *accounting.Store
	ins := make([]float64, 0, 5)
	for r := 0; r < 5; r++ {
		store = accounting.NewStore(nil)
		t0 := time.Now()
		for _, rec := range acct {
			if _, err := store.Insert(rec); err != nil {
				return err
			}
		}
		ins = append(ins, time.Since(t0).Seconds()/float64(len(acct)))
	}
	v["accounting.insert_ns"] = median(ins) * 1e9
	q := accounting.Query{Limit: queryPageLimit}
	s, err = perCall(5, 50, func(int) error {
		page, err := store.Query(q)
		q.Cursor = page.Next
		return err
	})
	if err != nil {
		return err
	}
	v["accounting.query_us"] = s * 1e6

	cl, err := newCluster(nil)
	if err != nil {
		return err
	}
	defer func() { _ = cl.Close() }()
	if err := preload(cl, nodes); err != nil {
		return err
	}
	var rebuild, hit []float64
	for r := 0; r < 5; r++ {
		root, err := newRoot(cl, nil, nil, nil)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := root.AcctQuery(accounting.Query{Limit: queryPageLimit}); err != nil {
			return err
		}
		rebuild = append(rebuild, time.Since(t0).Seconds())
		for k := 0; k < 20; k++ {
			t0 = time.Now()
			if _, err := root.AcctQuery(accounting.Query{Limit: queryPageLimit}); err != nil {
				return err
			}
			hit = append(hit, time.Since(t0).Seconds())
		}
	}
	sort.Float64s(hit)
	v["fed.rebuild_ms"] = median(rebuild) * 1e3
	v["fed.hit_us"] = median(hit) * 1e6
	return nil
}

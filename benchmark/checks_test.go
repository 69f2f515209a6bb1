package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"goear/internal/accounting"
	"goear/internal/experiments"
	"goear/internal/report"
)

// Each output check passes on the program's real output and fails on
// a perturbed copy of it. Run with `go test .` from this directory.

func TestCampaignCheckCatchesPerturbedTable(t *testing.T) {
	ctx := experiments.New()
	ctx.Parallel = campaignParallel
	tabs, err := ctx.Generate("table3")
	if err != nil {
		t.Fatal(err)
	}
	in := &campaignInputs{ids: []string{"table3"}}
	out := func(tabs []report.Table) *campaignOut {
		return &campaignOut{tables: map[string][]report.Table{"table3": tabs}, errs: map[string]error{}}
	}
	if err := in.check(out(tabs)); err != nil {
		t.Fatalf("real tables: %v", err)
	}
	bad := append([]report.Table(nil), tabs...)
	bad[0].Rows = append([][]string(nil), bad[0].Rows...)
	row := append([]string(nil), bad[0].Rows[0]...)
	row[len(row)-1] += "0"
	bad[0].Rows[0] = row
	if err := in.check(out(bad)); err == nil {
		t.Fatal("perturbed table passed the check")
	}
}

func TestClusterCheckCatchesPerturbedResult(t *testing.T) {
	in, err := buildCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	o := in.run(nil)
	if o.err != nil {
		t.Fatal(o.err)
	}
	if err := in.check(o); err != nil {
		t.Fatalf("real result: %v", err)
	}
	if o.pm.caps == 0 {
		t.Fatal("the budget never capped the cluster")
	}
	nodes := o.res.Nodes
	o.res.Nodes = append(nodes[:0:0], nodes...)
	o.res.Nodes[7].EnergyJ *= 1.000001
	if err := in.check(o); err == nil {
		t.Fatal("node energy no longer matching the aggregate passed the check")
	}
	o.res.Nodes = nodes
	o.res.AvgIMCGHz += 1e-9
	if err := in.check(o); err == nil {
		t.Fatal("perturbed aggregate passed the check")
	}
}

func TestIngestChecksCatchPerturbedBurst(t *testing.T) {
	in, err := buildIngest(2)
	if err != nil {
		t.Fatal(err)
	}
	o, err := in.burst(false)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = o.cluster.Close() }()
	if err := in.checkBurst(o); err != nil {
		t.Fatalf("real burst: %v", err)
	}
	if err := in.checkSnapshot(o); err != nil {
		t.Fatalf("real snapshot: %v", err)
	}
	o.backlog++
	if err := in.checkBurst(o); err == nil {
		t.Fatal("a left-over spilled batch passed the check")
	}
	o.backlog--
	o.stats.RecordsSent--
	if err := in.checkBurst(o); err == nil {
		t.Fatal("a missing record passed the check")
	}
	o.stats.RecordsSent++
	// A record the clients never sent, slipped into one shard's store.
	extra := in.nodes[0].acct[0]
	extra.Node = "intruder"
	o.cluster.Server(o.cluster.Names()[0]).SeedAcct([]accounting.Record{extra})
	if err := in.checkSnapshot(o); err == nil {
		t.Fatal("a snapshot with an extra record passed the check")
	}
}

func TestQueryCheckCatchesMissingRecord(t *testing.T) {
	in, err := buildQuery(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	f, err := in.prepare(false)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.cluster.Close() }()
	o, err := in.phase(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	if o.batchErr != 0 || o.queryErr != 0 {
		t.Fatalf("%d batch and %d query errors", o.batchErr, o.queryErr)
	}
	if err := in.check(o); err != nil {
		t.Fatalf("real walk: %v", err)
	}
	last := len(o.sent) - 1
	o.sent[last] = o.sent[last][1:]
	if err := in.check(o); err == nil {
		t.Fatal("a walk returning an unsent record passed the check")
	}
}

// The metric lists the program reports match BENCHMARK.json.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var e2e []string
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end %v, program reports %v", e2e, endToEnd)
	}
	var layers [][2]string
	for _, m := range doc.PerLayer {
		layers = append(layers, [2]string{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(layers, perLayer()) {
		t.Errorf("per_layer %v, program reports %v", layers, perLayer())
	}
}

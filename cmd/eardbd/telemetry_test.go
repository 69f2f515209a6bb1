package main

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"goear/internal/eard"
	"goear/internal/telemetry"
	"goear/internal/wire"
)

// TestDaemonTelemetryEndpoint boots the daemon with -telemetry, feeds
// it a batch (plus a dedup-window redelivery), and scrapes the HTTP
// endpoint: the closed loop the observability layer exists for.
func TestDaemonTelemetryEndpoint(t *testing.T) {
	addrs, stop := startDaemon(t, "-telemetry", "127.0.0.1:0")
	if len(addrs) != 2 {
		t.Fatalf("ready addrs = %v, want wire + telemetry", addrs)
	}
	wireAddr, telAddr := addrs[0], addrs[1]

	b := wire.Batch{ID: "n01/1", Node: "n01", Records: []eard.JobRecord{
		{JobID: "j1", StepID: "0", Node: "n01", App: "X", TimeSec: 10, EnergyJ: 3000, AvgPower: 300},
		{JobID: "j1", StepID: "0", Node: "n02", App: "X", TimeSec: 10, EnergyJ: 3100, AvgPower: 310},
	}}
	if ack := sendBatch(t, wireAddr, b); ack.Accepted != 2 {
		t.Fatalf("first delivery ack = %+v", ack)
	}
	// Redeliver the same batch ID: the dedup window must absorb it.
	if ack := sendBatch(t, wireAddr, b); ack.Duplicate != 2 {
		t.Fatalf("redelivery ack = %+v", ack)
	}

	resp, err := http.Get("http://" + telAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics Content-Type = %q", ct)
	}
	samples, err := telemetry.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("metrics endpoint served unparseable exposition: %v", err)
	}
	vals := map[string]float64{}
	for _, s := range samples {
		vals[s.Name+s.Labels] = s.Value
	}
	for key, want := range map[string]float64{
		`goear_eardbd_batches_total{result="accepted"}`:  1,
		`goear_eardbd_batches_total{result="duplicate"}`: 1,
		`goear_eardbd_records_total{result="accepted"}`:  2,
		`goear_eardbd_records_total{result="duplicate"}`: 2,
	} {
		if got, ok := vals[key]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", key, got, ok, want)
		}
	}
	if vals["goear_eardbd_connections_total"] < 2 {
		t.Errorf("connections = %v, want >= 2", vals["goear_eardbd_connections_total"])
	}

	evResp, err := http.Get("http://" + telAddr + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer evResp.Body.Close()
	evBody, err := io.ReadAll(evResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	events := string(evBody)
	if !strings.Contains(events, `"kind":"eardbd.batch"`) ||
		!strings.Contains(events, `"result":"duplicate"`) {
		t.Errorf("event log missing batch events:\n%s", events)
	}

	if out := stop(); !strings.Contains(out, "telemetry on http://") {
		t.Errorf("startup output missing telemetry line:\n%s", out)
	}
}

// TestDaemonTraceAndHealthEndpoints boots an ingest daemon with
// tracing on and scrapes the observability surface: the probes must
// answer, and a delivered batch must show up as server-side spans on
// /traces.
func TestDaemonTraceAndHealthEndpoints(t *testing.T) {
	addrs, _ := startDaemon(t, "-telemetry", "127.0.0.1:0", "-trace")
	wireAddr, telAddr := addrs[0], addrs[len(addrs)-1]

	sendBatch(t, wireAddr, wire.Batch{ID: "n05/1", Node: "n05", Records: []eard.JobRecord{
		{JobID: "j9", StepID: "0", Node: "n05", App: "X", TimeSec: 10, EnergyJ: 3000, AvgPower: 300},
	}})

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + telAddr + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, `"status": "ok"`) {
		t.Errorf("/healthz = %d %s", code, body)
	}
	if code, body := get("/readyz"); code != 200 || !strings.Contains(body, `"generation 1"`) {
		t.Errorf("/readyz = %d %s", code, body)
	}
	if code, body := get("/slo"); code != 200 || !strings.Contains(body, `"op": "batch"`) {
		t.Errorf("/slo = %d %s", code, body)
	}
	if code, body := get("/traces"); code != 200 ||
		!strings.Contains(body, `"kind":"server.batch"`) || !strings.Contains(body, `"batch":"n05/1"`) {
		t.Errorf("/traces = %d %s", code, body)
	}
	if code, body := get("/traces?kind=server.store"); code != 200 || strings.Contains(body, "server.batch") {
		t.Errorf("/traces?kind filter leaked: %d %s", code, body)
	}
}

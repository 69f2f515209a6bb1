// Command eardbd runs the EAR database daemon: the aggregation tier
// between per-node reporting clients and the accounting database. It
// listens on TCP and/or a unix socket for wire-framed record batches,
// validates and deduplicates them into an in-memory eard.DB, serves
// snapshot queries (earctl dbd ...), and persists the database as JSON
// on shutdown.
//
// With -fed the daemon runs as a federation root instead: a query-only
// tier over a fleet of shard daemons that merges their snapshots and
// serves the same wire API, so earctl and eargm feeds point at one
// daemon or a sharded cluster interchangeably. A root keeps no
// database and refuses record batches — reports go to the shard that
// owns the node.
//
// A root can additionally run the cascaded global manager in-process:
// -cascade sets a cluster power budget and the root then re-apportions
// it across its shards every control interval, ratcheting per-island
// pstate ceilings from the live merged power view.
//
// The -telemetry HTTP endpoint serves /metrics and /events, plus
// /api/jobs: the per-job energy accounting query API (filter with
// ?user=, ?job=, ?since=; page with ?limit= and ?cursor=).
//
//	eardbd -listen 127.0.0.1:4711 -db /var/lib/ear/jobs.json
//	eardbd -unix /run/eardbd.sock
//	eardbd -listen 127.0.0.1:4700 -fed 127.0.0.1:4711,127.0.0.1:4712
//	eardbd -listen 127.0.0.1:4700 -fed ... -cascade 40000 -cascade-interval 10
//
// Stop with SIGINT/SIGTERM; the database file is written on exit.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"goear/internal/accounting"
	"goear/internal/eard"
	"goear/internal/eardbd"
	"goear/internal/eardbd/fed"
	"goear/internal/eargm"
	"goear/internal/telemetry"
	"goear/internal/telemetry/trace"
	"goear/internal/wire"
)

func main() {
	quit := make(chan struct{})
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		close(quit)
	}()
	if err := run(os.Args[1:], os.Stdout, nil, quit); err != nil {
		fmt.Fprintln(os.Stderr, "eardbd:", err)
		os.Exit(1)
	}
}

// run starts the daemon. The bound addresses are reported on ready
// (when non-nil) so tests can dial ephemeral ports; closing quit shuts
// the daemon down gracefully.
func run(args []string, out io.Writer, ready chan<- []string, quit <-chan struct{}) error {
	fs := flag.NewFlagSet("eardbd", flag.ContinueOnError)
	listen := fs.String("listen", "", "TCP listen address (host:port)")
	unix := fs.String("unix", "", "unix socket path to listen on")
	dbPath := fs.String("db", "", "JSON accounting database to load and persist")
	fedShards := fs.String("fed", "", "comma-separated shard TCP endpoints: run as a federation root (query-only)")
	maxFrame := fs.Int("max-frame", 0, "per-frame payload byte limit (default 1 MiB)")
	maxBatch := fs.Int("max-batch", 0, "records per batch limit (default 1024)")
	acctRetain := fs.Int("acct-retain", 0, "resident accounting record cap: oldest (job, step) groups are evicted past it (0 = unlimited)")
	telAddr := fs.String("telemetry", "", "HTTP address serving /metrics, /events, /healthz, /readyz and /api/jobs (empty = telemetry off)")
	traceOn := fs.Bool("trace", false, "record span traces, served at /traces on the telemetry address (requires -telemetry)")
	staleAfter := fs.Float64("stale-after", 0, "readiness degrades when no record landed for this many seconds (ingest mode, 0 = off)")
	cascadeBudget := fs.Float64("cascade", 0, "cluster DC power budget in watts: run the cascaded EARGM over the shards (fed mode only, 0 = off)")
	cascadeInterval := fs.Float64("cascade-interval", 5, "cascaded EARGM control period in seconds")
	cascadeReserve := fs.Float64("cascade-reserve", 0.2, "budget fraction split equally across islands regardless of draw")
	cascadeMaxP := fs.Int("cascade-max-pstate", 8, "deepest pstate ceiling the cascaded EARGM may impose")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *listen == "" && *unix == "" {
		return fmt.Errorf("nothing to listen on: pass -listen and/or -unix")
	}
	if *cascadeBudget != 0 && *fedShards == "" {
		return fmt.Errorf("-cascade drives islands through a federation root: pass -fed")
	}
	if *traceOn && *telAddr == "" {
		return fmt.Errorf("-trace serves spans over the telemetry endpoint: pass -telemetry")
	}

	// Telemetry must be live before the server is built: instrument
	// handles are resolved in NewServer. The set belongs to this run
	// alone, so counts never leak between daemons in one process. The
	// HTTP server owns its listener from here and closes it on every
	// return path; the service-backed endpoints (/api/jobs, health,
	// SLO) are mounted on its mux once the service exists.
	var telLn net.Listener
	var telSet *telemetry.Set
	var mux *http.ServeMux
	if *telAddr != "" {
		telSet = telemetry.NewSet()
		var err error
		telLn, err = net.Listen("tcp", *telAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "eardbd: telemetry on http://%s/metrics\n", telLn.Addr())
		mux = http.NewServeMux()
		mux.Handle("/", telSet.Handler())
		hs := &http.Server{Handler: mux}
		go func() { _ = hs.Serve(telLn) }()
		defer func() { _ = hs.Close() }()
	}
	var traceBuf *trace.Buffer
	if *traceOn {
		traceBuf = trace.NewBuffer(0)
	}
	// Latency spans and SLO percentiles use a monotonic wall clock; the
	// span tree itself stays deterministic, only the timings are live.
	start := time.Now()
	wallSec := func() float64 { return time.Since(start).Seconds() }

	var svc *wire.Conns
	var db *eard.DB
	var srv *eardbd.Server
	var root *fed.Root
	stopCascade := func() {}
	if *fedShards != "" {
		switch {
		case *dbPath != "":
			return fmt.Errorf("-db is ingest-only: a federation root keeps no database")
		case *maxBatch != 0:
			return fmt.Errorf("-max-batch is ingest-only: a federation root refuses batches")
		case *acctRetain != 0:
			return fmt.Errorf("-acct-retain is ingest-only: a federation root keeps no accounting store")
		}
		cfg := fed.Config{MaxFramePayload: *maxFrame, Telemetry: telSet, Trace: traceBuf, Now: wallSec}
		for _, addr := range splitList(*fedShards) {
			addr := addr
			cfg.Shards = append(cfg.Shards, fed.Shard{
				Name: addr,
				Dial: func() (net.Conn, error) { return net.Dial("tcp", addr) },
			})
		}
		var err error
		root, err = fed.NewRoot(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "eardbd: federation root over %d shards\n", len(cfg.Shards))
		svc = root.Conns

		if *cascadeBudget > 0 {
			var islands []eargm.Island
			for _, sh := range cfg.Shards {
				src, err := root.IslandSource(sh.Name)
				if err != nil {
					return err
				}
				islands = append(islands, eargm.Island{Name: sh.Name, Src: src})
			}
			casc, err := eargm.NewCascade(eargm.CascadeConfig{
				BudgetW:     *cascadeBudget,
				ReserveFrac: *cascadeReserve,
				Island: eargm.Config{
					IntervalSec:  *cascadeInterval,
					MaxCapPstate: *cascadeMaxP,
					Telemetry:    telSet,
				},
				Trace: traceBuf,
			}, islands)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "eardbd: cascaded eargm over %d islands, budget %.0f W, interval %.0fs\n",
				len(islands), *cascadeBudget, casc.Interval())
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				// The controller's logical clock accumulates the control
				// period per tick, so a run's ratchet trace depends only
				// on the observed powers, never on wall time.
				tick := time.NewTicker(time.Duration(casc.Interval() * float64(time.Second)))
				defer tick.Stop()
				now := 0.0
				for {
					select {
					case <-stop:
						return
					case <-tick.C:
						now += casc.Interval()
						if _, err := casc.Update(now); err != nil {
							// A severed shard fails the poll; the next tick
							// retries against whatever is reachable then.
							fmt.Fprintln(out, "eardbd: cascade:", err)
						}
					}
				}
			}()
			stopCascade = func() {
				close(stop)
				wg.Wait()
			}
		}
	} else {
		db = eard.NewDB()
		if *dbPath != "" {
			f, err := os.Open(*dbPath)
			switch {
			case os.IsNotExist(err):
				// First boot: the file appears at shutdown.
			case err != nil:
				return err
			default:
				lerr := db.Load(f)
				cerr := f.Close()
				if lerr != nil {
					return lerr
				}
				if cerr != nil {
					return cerr
				}
				fmt.Fprintf(out, "eardbd: loaded %d records from %s\n", db.Len(), *dbPath)
			}
		}
		srv = eardbd.NewServer(db, eardbd.Config{MaxFramePayload: *maxFrame, MaxBatchRecords: *maxBatch, AcctMaxRecords: *acctRetain, Telemetry: telSet, Trace: traceBuf, Now: wallSec})
		svc = srv.Conns
	}

	if mux != nil {
		var queryFn accounting.QueryFunc
		slo := telemetry.NewSLO()
		health := telemetry.NewHealth()
		if root != nil {
			queryFn = root.AcctQuery
			root.LatencySLO(slo, 0, 0)
			health.Register(root.HealthCheck())
		} else {
			queryFn = srv.Acct().Query
			srv.LatencySLO(slo, 0, 0)
			health.Register(srv.HealthCheck(*staleAfter))
		}
		mux.Handle("/api/jobs", accounting.Handler(queryFn))
		mux.Handle("/slo", slo.Handler())
		mux.Handle("/healthz", health.Healthz())
		mux.Handle("/readyz", health.Readyz())
		if traceBuf != nil {
			mux.Handle("/traces", traceBuf.Handler())
		}
	}

	var addrs []string
	serveErr := make(chan error, 2)
	listenAndServe := func(network, addr string) error {
		l, err := net.Listen(network, addr)
		if err != nil {
			return err
		}
		addrs = append(addrs, l.Addr().String())
		fmt.Fprintf(out, "eardbd: listening on %s %s\n", network, l.Addr())
		go func() { serveErr <- svc.Serve(l) }()
		return nil
	}
	// A listener that fails to bind aborts startup; whatever already
	// serves is shut down with it.
	abort := func(err error) error {
		stopCascade()
		_ = svc.Close()
		return err
	}
	if *listen != "" {
		if err := listenAndServe("tcp", *listen); err != nil {
			return abort(err)
		}
	}
	if *unix != "" {
		if err := listenAndServe("unix", *unix); err != nil {
			return abort(err)
		}
	}
	if ready != nil {
		// The telemetry address (when enabled) rides last so tests can
		// scrape it; wire addresses keep their positions.
		if telLn != nil {
			addrs = append(addrs, telLn.Addr().String())
		}
		ready <- addrs
	}

	var firstErr error
	select {
	case firstErr = <-serveErr:
	case <-quit:
		fmt.Fprintln(out, "eardbd: shutting down")
	}
	stopCascade()
	if err := svc.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	if *unix != "" {
		// A unix socket file outlives its listener.
		if err := os.Remove(*unix); err != nil && !os.IsNotExist(err) && firstErr == nil {
			firstErr = err
		}
	}

	if *dbPath != "" {
		f, err := os.Create(*dbPath)
		if err != nil {
			return err
		}
		serr := db.Save(f)
		cerr := f.Close()
		if serr != nil {
			return serr
		}
		if cerr != nil {
			return cerr
		}
		st := srv.Stats()
		fmt.Fprintf(out, "eardbd: saved %d records to %s (%d batches, %d accepted, %d duplicate, %d replaced)\n",
			db.Len(), *dbPath, st.Batches, st.RecordsAccepted, st.RecordsDuplicate, st.RecordsReplaced)
	}
	return firstErr
}

// splitList splits a comma-separated list, dropping empty elements.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// Command goear-bench is goear's end-to-end benchmark. It drives one
// of four workloads — the paper campaign, a powercapped cluster
// simulation, an EARDBD ingest burst, and ingest beside federation
// queries — through the program's public packages, checks the outputs,
// and prints one JSON result line:
//
//	goear-bench --workload ingest --seed 3 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with every instrument off. With --trace 1 the same workload runs
// with the program's own spans and counters switched on from outside
// and the result carries the per-layer metrics; a per-layer table is
// printed above it. README.md explains each workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result line.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench carries one invocation's settings and tallies.
type bench struct {
	seed    int64
	seconds float64
	traced  bool
	out     io.Writer // per-layer table and the metric summary

	attempted int
	failed    int
	correct   bool
	metrics   map[string]metric
	// summary keeps the workload's headline metrics under the names
	// README.md gives them, printed as one human-readable line.
	summary []string
}

func newBench(seed int64, seconds float64, traced bool, out io.Writer) *bench {
	return &bench{seed: seed, seconds: seconds, traced: traced, out: out, correct: true, metrics: map[string]metric{}}
}

// set records one metric of the result line.
func (b *bench) set(name, unit string, v float64) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// headline records a workload-specific name for a measurement in the
// human-readable summary.
func (b *bench) headline(name, unit string, v float64) {
	b.summary = append(b.summary, fmt.Sprintf("%s=%.6g %s", name, v, unit))
}

// op counts one attempted operation and, when err is set, one failed.
func (b *bench) op(what string, err error) {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "goear-bench: %s: %v\n", what, err)
	}
}

// ops counts n attempted operations of which failed failed.
func (b *bench) ops(n, failed int) {
	b.attempted += n
	b.failed += failed
}

// check records one output check: a failure marks the run incorrect
// and counts as a failed operation.
func (b *bench) check(what string, err error) {
	b.op("check "+what, err)
	if err != nil {
		b.correct = false
	}
}

// Set-up repeats: a workload builds its inputs at least minSetups
// times and, while the set-ups so far took under setupBudget seconds,
// up to maxSetups times; setup_s is the median. Cheap set-ups (tens of
// milliseconds) need the extra repeats for a steady median.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 1.0
)

// setup runs fn repeatedly as above, keeping the state of the last
// call, and records setup_s.
func (b *bench) setup(fn func() error) error {
	var times []float64
	total := 0.0
	for len(times) < minSetups || (len(times) < maxSetups && total < setupBudget) {
		t0 := time.Now()
		if err := fn(); err != nil {
			return err
		}
		times = append(times, time.Since(t0).Seconds())
		total += times[len(times)-1]
	}
	b.set("setup_s", "s", median(times))
	return nil
}

// until reports whether the measuring window that opened at start is
// still open.
func (b *bench) until(start time.Time) bool {
	return time.Since(start).Seconds() < b.seconds
}

// allocMB returns the heap bytes allocated so far, in MB.
func allocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / 1e6
}

// mallocs returns the heap objects allocated so far.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// freshUnit prepares the process for one unit of work: it collects
// and returns all free memory to the OS, then clears the kernel's
// resident high-water mark (Linux clear_refs "5"), so unitPeakRSSMB
// afterwards reads the peak of that unit alone, from the same
// starting point every time. Where the mark cannot be cleared, the
// reading covers the whole process so far.
func freshUnit() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// unitPeakRSSMB reads the resident high-water mark (VmHWM) in MB, or
// the process's peak from getrusage where /proc is unavailable.
func unitPeakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// resources records the two memory metrics every workload reports,
// each the median over the run's units of work.
func (b *bench) resources(allocPerUnit, peakRSS []float64) {
	b.set("alloc_mb", "MB", median(allocPerUnit))
	b.set("peak_rss_mb", "MB", median(peakRSS))
}

// median returns the middle value (mean of the middle two for even
// counts); NaN for no samples.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of
// sorted samples.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// workloads maps each --workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"paper_campaign": runCampaign,
	"cluster_sim":    runCluster,
	"ingest":         runIngest,
	"ingest_query":   runIngestQuery,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("goear-bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: paper_campaign, cluster_sim, ingest or ingest_query")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "length of the measuring window")
	traced := fs.Int("trace", 0, "1 runs with the program's spans and counters on and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "goear-bench: need --workload one of %s, --seconds >= 1 and --trace 0 or 1\n", strings.Join(names, ", "))
		return 2
	}
	b := newBench(*seed, float64(*seconds), *traced == 1, stdout)
	if err := drive(b); err != nil {
		fmt.Fprintf(os.Stderr, "goear-bench: %s: %v\n", *name, err)
		return 1
	}
	if !b.traced {
		if err := b.finishUntraced(); err != nil {
			fmt.Fprintf(os.Stderr, "goear-bench: %s: %v\n", *name, err)
			return 1
		}
	}
	if b.attempted < 1 {
		fmt.Fprintf(os.Stderr, "goear-bench: %s attempted nothing\n", *name)
		return 1
	}
	if len(b.summary) > 0 {
		fmt.Fprintf(stdout, "%s: %s\n", *name, strings.Join(b.summary, " "))
	}
	line, err := json.Marshal(outcome{Correct: b.correct, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "goear-bench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// Command matrix is the repository's benchmark: it drives the served system
// (paper objects, pid leases, kind drivers, registry, batch pipeline, HTTP
// server) from one process with two closed-loop clients on at most two
// cores, through four workloads that load different layers, checks that
// what the system answered is correct, and prints every metric by name.
//
//	matrix [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-out DIR] [-results FILE]
//	matrix -compare A.json B.json
//
// Without -workload it runs all four in turn. With -trace 1 it adds the
// traced pass, which drives each layer's entry point with the same calls and
// prints the per-layer metrics. The last line of standard output of every
// workload is one JSON object with the run's verdict and metrics. README.md
// in this directory defines the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	_ "slmem/internal/bag" // registers the bag kind
)

// metric is one named number with its unit.
type metric struct {
	name  string
	unit  string
	value float64
}

// value is the JSON form of a metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one run of one workload, as -results stores it and -compare
// reads it. Metrics holds the end-to-end metrics and fail_share, and the
// per-layer metrics too when the run was traced.
type record struct {
	Workload   string           `json:"workload"`
	Seed       int64            `json:"seed"`
	Seconds    int              `json:"seconds"`
	Trace      bool             `json:"trace"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	NProc      int              `json:"nproc"`
	Go         string           `json:"go"`
	Correct    bool             `json:"correct"`
	Attempted  uint64           `json:"attempted"`
	Failed     uint64           `json:"failed"`
	Metrics    map[string]value `json:"metrics"`
	// SliceRates, SliceStolen and SliceP50 describe the window slice by
	// slice: operations per second, the share of CPU time the hypervisor
	// stole, and the median latency in microseconds.
	SliceRates  []float64 `json:"slice_rates"`
	SliceStolen []float64 `json:"slice_stolen,omitempty"`
	SliceP50    []float64 `json:"slice_p50_us"`
}

// verdict is the last line a workload prints.
type verdict struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// Exit codes.
const (
	exitOK       = 0
	exitWrong    = 1 // an operation failed, an invariant did, or -compare found a metric worse
	exitWatchdog = 2 // the watchdog had to stop a phase
	exitUsage    = 64
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("matrix", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload to run (default: all four in turn)")
		seed    = fs.Int64("seed", 1, "seed of the generated calls")
		seconds = fs.Int("seconds", 20, "length of the measure window in seconds")
		trace   = fs.Int("trace", 0, "1 adds the traced pass and prints the per-layer metrics")
		out     = fs.String("out", ".bench_build/trace", "directory the traced pass writes its spans to")
		results = fs.String("results", "", "file to append one JSON record per workload to")
		compare = fs.Bool("compare", false, "compare two result files: matrix -compare A.json B.json")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "matrix: -compare takes two result files")
			return exitUsage
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout)
	}
	if fs.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "matrix: bad arguments; see -help")
		return exitUsage
	}
	todo := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "matrix: unknown workload %q\n", *name)
			return exitUsage
		}
		todo = []*workload{w}
	}

	// Clients and server share at most two cores, whatever the machine has,
	// so that numbers from different machines describe the same experiment.
	runtime.GOMAXPROCS(min(clients, runtime.NumCPU()))

	code := exitOK
	for _, w := range todo {
		c, err := runWorkload(w, *seed, *seconds, *trace == 1, *out, *results, stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "matrix: %s: %v\n", w.name, err)
			return exitWrong
		}
		if c == exitWatchdog {
			// A goroutine is stuck inside the system: nothing measured after
			// this point would mean anything.
			return c
		}
		code = max(code, c)
	}
	return code
}

// runWorkload measures one workload, prints its metrics and verdict, and
// returns the exit code it earned.
func runWorkload(w *workload, seed int64, seconds int, traced bool, outDir, resultsPath string, stdout io.Writer) (int, error) {
	fmt.Fprintf(stdout, "workload %s: seed %d, %d closed-loop clients, GOMAXPROCS %d of %d cpus, %s, window %d s\n",
		w.name, seed, clients, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), seconds)

	// The set-up is repeated so that setup_s is a median; the traced run does
	// not report it and sets up once.
	setups := 3
	if traced {
		setups = 1
	}
	m, err := measure(w, seed, time.Duration(seconds)*time.Second, setups)
	if err != nil {
		return 0, err
	}
	endToEnd := m.endToEnd()
	for _, mt := range endToEnd {
		note := ""
		switch mt.name {
		case "ops_s":
			note = fmt.Sprintf("(median of the %d undisturbed slices of %d, %d operations in the window)", len(m.clean), slices, m.windowN)
		case "p50_us":
			note = fmt.Sprintf("(median of the same slices' medians, %d calls in them)", m.hist.n)
		case "setup_s":
			note = fmt.Sprintf("(median of %d set-ups)", len(m.setups))
		}
		printMetric(stdout, mt, note)
	}
	fmt.Fprintf(stdout, "  slice rates, ops/s: %.0f\n", m.rates)
	if m.stolen != nil {
		fmt.Fprintf(stdout, "  stolen by the hypervisor, per slice: %.2f\n", m.stolen)
	}
	printMetric(stdout, metric{"fail_share", "share", m.failShare()},
		fmt.Sprintf("(%d of %d operations)", m.failed(), m.attempted))
	if m.firstErr != nil {
		fmt.Fprintf(stdout, "  first error: %v\n", m.firstErr)
	}
	for i, v := range m.violations {
		if i == 10 {
			fmt.Fprintf(stdout, "  ... and %d more violations\n", len(m.violations)-i)
			break
		}
		fmt.Fprintf(stdout, "  violation: %v\n", v)
	}

	reported := endToEnd
	var layers []metric
	if traced && !m.watchdog {
		if layers, err = tracedPass(w, seed, m, outDir, stdout); err != nil {
			return 0, err
		}
		reported = layers
	}

	rec := record{
		Workload: w.name, Seed: seed, Seconds: seconds, Trace: traced,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), Go: runtime.Version(),
		Correct: m.correct(), Attempted: max(m.attempted, 1), Failed: m.failed(),
		Metrics:    toValues(append(append(endToEnd, metric{"fail_share", "share", m.failShare()}), layers...)),
		SliceRates: m.rates, SliceStolen: m.stolen, SliceP50: m.sliceP50,
	}
	if resultsPath != "" {
		if err := appendRecord(resultsPath, rec); err != nil {
			return 0, err
		}
	}
	line, err := json.Marshal(verdict{rec.Correct, rec.Attempted, rec.Failed, toValues(reported)})
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(stdout, "%s\n", line)

	switch {
	case m.watchdog:
		dumpStacks()
		return exitWatchdog, nil
	case !m.correct():
		return exitWrong, nil
	}
	return exitOK, nil
}

// endToEnd lists the metrics a user of the system would see.
func (m *measurement) endToEnd() []metric {
	return []metric{
		{"ops_s", "ops/s", m.opsPerSec()},
		{"p50_us", "us", m.p50()},
		{"setup_s", "s", median(m.setups)},
	}
}

// tracedPass runs the ladder and the probes and returns the per-layer
// metrics.
func tracedPass(w *workload, seed int64, m *measurement, outDir string, stdout io.Writer) ([]metric, error) {
	tr := newTracer(w.name)
	lr, err := tr.ladder(w, seed)
	if err != nil {
		return nil, err
	}
	gen := genCost(w, seed)
	floor := memoryFloor()
	path, err := tr.write(outDir, seed)
	if err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	var idleOps, idleLive float64
	if w.names[kindObject] > 0 {
		idleOps, idleLive = idlePidProbe(seed)
	}
	layers := layerMetrics(w, m, lr, gen, floor, idleOps, idleLive)
	fmt.Fprintf(stdout, "  traced pass: %d rungs of %v, spans in %s\n", len(w.ladder()), rungTime, path)
	for _, mt := range layers {
		printMetric(stdout, mt, "")
		if mt.name == "trace.ladder_closure" && (mt.value < 0.85 || mt.value > 1.15) {
			fmt.Fprintf(stdout, "  warning: ladder closure %.2f is outside 0.85-1.15: the ladder no longer accounts for the end-to-end time\n", mt.value)
		}
	}
	return layers, nil
}

// layerMetrics assembles the per-layer metrics. A metric of a layer the
// workload does not use is 0.
func layerMetrics(w *workload, m *measurement, lr *ladderResult, gen, floor, idleOps, idleLive float64) []metric {
	self := lr.selfTimes(w)
	lc, ps := m.counters, m.process
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	tail := func(q float64) float64 {
		ns, _ := m.hist.tail(q)
		return ns / 1e3
	}
	perOpNS := ratio(clients*1e9, m.opsPerSec()) // a client's time per operation, end to end
	return []metric{
		{"memory.rw_ns", "ns", floor},
		{"core.self_ns", "ns", self["core"]},
		{"core.update_ns", "ns", lr.part[partUpdate].perOp()},
		{"core.scan_ns", "ns", lr.part[partScan].perOp()},
		{"core.base_ops_per_scan", "count", ratio(float64(lr.opsInScan), float64(lr.part[partScan].ops))},
		{"core.max_scan_iters", "count", float64(lr.maxScanIters)},
		{"universal.self_ns", "ns", self["universal"]},
		{"universal.cache_miss_share", "share", ratio(float64(lc.cacheMisses), float64(lc.cacheHits+lc.cacheMisses))},
		{"universal.live_nodes", "count", lc.liveNodes},
		{"universal.truncations", "count", float64(lc.truncations)},
		{"universal.gc_failures", "count", float64(lc.gcFailures)},
		{"universal.idle_pid_ops_s", "ops/s", idleOps},
		{"universal.idle_pid_live_nodes", "count", idleLive},
		{"bag.self_ns", "ns", self["bag"]},
		{"bag.live_cells", "count", float64(lc.bagLiveCells)},
		{"bag.migrated_cells", "count", float64(lc.bagMigrated)},
		{"bag.recycled_chunks", "count", float64(lc.bagRecycled)},
		{"runtime.self_ns", "ns", self[rungRuntime]},
		{"runtime.fast_path_share", "share", ratio(float64(lc.fastPath), float64(lc.acquires))},
		{"runtime.steals", "count", float64(lc.steals)},
		{"runtime.blocks", "count", float64(lc.blocks)},
		{"kind.self_ns", "ns", self[rungKind]},
		{"registry.self_ns", "ns", self[rungRegistry]},
		{"registry.objects", "count", float64(lc.objects)},
		{"server.self_ns", "ns", self[rungServer]},
		{"server.max_in_flight", "count", float64(lc.maxInFlight)},
		{"server.failures", "count", float64(lc.serverFailures)},
		{"net.self_ns", "ns", self[rungNet]},
		{"load.p95_us", "us", tail(0.95)},
		{"load.p99_us", "us", tail(0.99)},
		{"load.max_us", "us", float64(m.hist.max) / 1e3},
		{"load.slice_spread", "share", spread(m.rates)},
		{"load.gen_ns", "ns", gen},
		{"process.allocs_op", "count", ratio(float64(ps.mallocs), float64(m.attempted))},
		{"process.alloc_b_op", "B", ratio(float64(ps.allocBytes), float64(m.attempted))},
		{"process.gc_pause_ms", "ms", float64(ps.gcPause.Nanoseconds()) / 1e6},
		{"process.heap_live_mb", "MB", float64(ps.heapLive) / (1 << 20)},
		{"process.cpu_share", "share", ratio(ps.cpu.Seconds(), ps.wall.Seconds()*float64(runtime.GOMAXPROCS(0)))},
		{"process.steal_share", "share", m.stealShare()},
		{"trace.overhead_share", "share", 1 - ratio(lr.topOpsPerSec, m.opsPerSec())},
		{"trace.ladder_closure", "share", ratio(gen+lr.rung[w.top()].perOp(), perOpNS)},
	}
}

func printMetric(w io.Writer, m metric, note string) {
	fmt.Fprintf(w, "  %-30s %14.4f %-6s %s\n", m.name, m.value, m.unit, note)
}

func toValues(ms []metric) map[string]value {
	vs := make(map[string]value, len(ms))
	for _, m := range ms {
		vs[m.name] = value{m.value, m.unit}
	}
	return vs
}

// appendRecord adds rec to the result file, one JSON object per line.
func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

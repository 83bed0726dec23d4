// Command slload is the open/closed-loop load harness: it offers a
// configurable workload — key distribution (uniform, hot-key, zipfian),
// arrival mode (closed-loop workers or open-loop paced arrivals), batch
// size — against the in-process registry or a live slserve endpoint over
// TCP, and emits one machine-readable Summary line (schema slload/v5) with
// p50/p95/p99 latency, throughput, and error counts. benchmarks/sweep.sh
// sweeps it into consolidated TSV; CI's bench-smoke job gates p99 with it.
//
// Usage:
//
//	slload [flags]
//
//	-target inproc          drive the registry directly (no HTTP)
//	-target self            start an in-process HTTP server on a loopback
//	                        TCP listener and drive it over real TCP
//	-target http://host:p   drive a live slserve endpoint
//
//	-kind counter -op inc   the workload operation (any registered kind/op;
//	                        -value/-type/-invocation fill the request body)
//	-dist uniform           key distribution: uniform | hotkey | zipfian
//	-keys 1024              keyspace size (distinct object names)
//	-mode closed            closed (worker-paced) | open (arrival-paced)
//	-rate 5000              open-loop offered rate, ops/s
//	-poisson                open-loop exponential inter-arrival gaps
//	-batch 1                ops per call (>1 uses the batch pipeline)
//	-workers 16             concurrency
//	-warmup 1s -duration 5s phases
//	-seed 1                 deterministic keys and schedules
//	-pprof DIR              capture cpu.pprof/heap.pprof for the measure phase
//
// The Summary line goes to stdout; a human digest goes to stderr. Against
// self/HTTP targets, slload also diffs the server's /v1/stats operation
// counters across the run and records the delta as server_ops_delta —
// asserting the server actually saw the offered load (exit status 1 when it
// undercounts, which catches silently refused connections).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"slmem"
	_ "slmem/internal/bag" // register the bag kind
	"slmem/internal/kind"
	"slmem/internal/load"
	"slmem/internal/registry"
	"slmem/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "slload:", err)
		os.Exit(1)
	}
}

// config is the parsed flag set of one slload invocation.
type config struct {
	target     string
	kindName   string
	opName     string
	value      string
	typeName   string
	invocation string
	prefix     string
	procs      int
	load       load.Config
	pprofDir   string
	quiet      bool
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("slload", flag.ContinueOnError)
	var (
		target     = fs.String("target", "inproc", "what to drive: inproc | self | http(s)://host:port")
		kindName   = fs.String("kind", "counter", "object kind of the workload op")
		opName     = fs.String("op", "inc", "operation name within -kind")
		value      = fs.String("value", "", "request value operand (maxreg write, snapshot update, bag insert)")
		typeName   = fs.String("type", "", "object type (object kind only)")
		invocation = fs.String("invocation", "", "object invocation (object kind only)")
		prefix     = fs.String("prefix", "load-", "object name prefix; key k targets <prefix><k>")
		keys       = fs.Int("keys", 1024, "keyspace size (distinct object names)")
		dist       = fs.String("dist", "uniform", "key distribution: uniform | hotkey | zipfian")
		hotFrac    = fs.Float64("hotfrac", 0.9, "hotkey: fraction of traffic on the hot set")
		hotKeys    = fs.Int("hotkeys", 1, "hotkey: hot-set size")
		zipfS      = fs.Float64("zipfs", 1.1, "zipfian: exponent s > 1")
		mode       = fs.String("mode", "closed", "load mode: closed | open")
		rate       = fs.Float64("rate", 0, "open-loop offered rate, ops/s")
		poisson    = fs.Bool("poisson", false, "open-loop: Poisson (exponential-gap) arrivals")
		batch      = fs.Int("batch", 1, "ops per call; >1 drives the batch pipeline")
		workers    = fs.Int("workers", 16, "concurrency (loops in closed mode, executors in open mode)")
		warmup     = fs.Duration("warmup", 1*time.Second, "warmup phase (not measured)")
		duration   = fs.Duration("duration", 5*time.Second, "measurement window")
		seed       = fs.Int64("seed", 1, "deterministic seed for keys and schedules")
		samples    = fs.Int("samples", 4096, "per-worker latency reservoir capacity")
		procs      = fs.Int("procs", 16, "pid pool size for inproc/self targets")
		pprofDir   = fs.String("pprof", "", "directory to write cpu.pprof/heap.pprof covering the measure phase")
		quiet      = fs.Bool("quiet", false, "suppress the human digest on stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := config{
		target:   *target,
		kindName: *kindName, opName: *opName,
		value: *value, typeName: *typeName, invocation: *invocation,
		prefix: *prefix, procs: *procs, pprofDir: *pprofDir, quiet: *quiet,
		load: load.Config{
			Mode:    load.Mode(*mode),
			Workers: *workers,
			Rate:    *rate,
			Poisson: *poisson,
			Warmup:  *warmup,
			Measure: *duration,
			Keys: load.KeySpec{
				Dist: load.Dist(*dist), Keys: *keys,
				HotFrac: *hotFrac, HotKeys: *hotKeys, ZipfS: *zipfS,
			},
			Seed:       *seed,
			OpsPerCall: *batch,
			SampleCap:  *samples,
		},
	}
	return cfg.execute(context.Background(), stdout, stderr)
}

// execute validates the workload, builds the target driver, runs the load,
// and emits the Summary.
func (c *config) execute(ctx context.Context, stdout, stderr io.Writer) error {
	d, ok := kind.Lookup(c.kindName)
	if !ok {
		return kind.UnknownKind(c.kindName)
	}
	kreq := kind.Request{Op: c.opName, Value: c.value, Type: c.typeName, Invocation: c.invocation}
	if err := d.Validate(kreq); err != nil {
		return fmt.Errorf("workload %s/%s: %w", c.kindName, c.opName, err)
	}

	names := make([]string, c.load.Keys.Keys)
	for i := range names {
		names[i] = fmt.Sprintf("%s%06d", c.prefix, i)
	}

	var (
		op       load.Op
		statsURL string
		shutdown func()
	)
	switch {
	case c.target == "inproc":
		var err error
		if op, err = c.inprocOp(kreq, names); err != nil {
			return err
		}
	case c.target == "self":
		base, stop, err := c.selfServe()
		if err != nil {
			return err
		}
		shutdown = stop
		op = c.httpOp(base, kreq, names)
		statsURL = base + "/v1/stats"
	case strings.HasPrefix(c.target, "http://") || strings.HasPrefix(c.target, "https://"):
		base := strings.TrimSuffix(c.target, "/")
		op = c.httpOp(base, kreq, names)
		statsURL = base + "/v1/stats"
	default:
		return fmt.Errorf("unknown -target %q (want inproc, self, or an http(s) URL)", c.target)
	}
	if shutdown != nil {
		defer shutdown()
	}

	if c.pprofDir != "" {
		stop, err := c.armProfiles(stderr)
		if err != nil {
			return err
		}
		defer stop()
	}

	opsBefore, err := fetchServerOps(statsURL, c.kindName)
	if err != nil {
		return fmt.Errorf("pre-run stats fetch: %w", err)
	}

	res, err := load.Run(ctx, c.load, op)
	if err != nil {
		return err
	}

	sum := load.NewSummary(c.load, res, c.target, c.kindName, c.opName)
	var undercount error
	if statsURL != "" {
		opsAfter, err := fetchServerOps(statsURL, c.kindName)
		if err != nil {
			return fmt.Errorf("post-run stats fetch: %w", err)
		}
		sum.ServerOpsDelta = opsAfter - opsBefore
		// Every call that did not fail delivered Batch ops the server must
		// have counted; a smaller delta means offered load silently vanished
		// (refused connections, a proxy eating requests).
		expected := (res.TotalCalls - res.Errors) * int64(c.load.OpsPerCall)
		if sum.ServerOpsDelta < expected {
			undercount = fmt.Errorf("server undercounted load: /v1/stats ops[%s] grew %d, client delivered >= %d",
				c.kindName, sum.ServerOpsDelta, expected)
		}
	}
	if err := sum.Emit(stdout); err != nil {
		return err
	}
	if !c.quiet {
		fmt.Fprintln(stderr, sum.Human())
	}
	return undercount
}

// inprocOp drives the registry directly through the driver codec. Batches
// (>1 op per call) go through BatchExecute, the path every server request
// takes (a single operation is a one-entry batch there). One op per call
// resolves the instance and compiled step once per key up front, so its hot
// loop is lease+run: the floor under the server's per-request cost, not a
// copy of it.
func (c *config) inprocOp(kreq kind.Request, names []string) (load.Op, error) {
	reg := registry.New(registry.Options{Procs: c.procs})
	if c.load.OpsPerCall > 1 {
		template := registry.BatchOp{
			Kind: registry.Kind(c.kindName), Op: registry.Op(c.opName),
			Value: c.value, Type: c.typeName, Invocation: c.invocation,
		}
		return func(ctx context.Context, keys []int) error {
			ops := make([]registry.BatchOp, len(keys))
			for i, k := range keys {
				ops[i] = template
				ops[i].Name = names[k]
			}
			out, err := reg.BatchExecute(ctx, ops)
			if err != nil {
				return err
			}
			for _, r := range out.Results {
				if r.Err != nil {
					return r.Err
				}
			}
			return nil
		}, nil
	}

	type resolved struct {
		compiled kind.Compiled
		pool     *slmem.PIDPool
	}
	entries := make([]resolved, len(names))
	for i, name := range names {
		inst, pool, err := reg.Get(registry.Kind(c.kindName), name, kreq)
		if err != nil {
			return nil, fmt.Errorf("resolve %s/%s: %w", c.kindName, name, err)
		}
		compiled, err := inst.Compile(kreq)
		if err != nil {
			return nil, fmt.Errorf("compile %s/%s: %w", c.kindName, name, err)
		}
		entries[i] = resolved{compiled: compiled, pool: pool}
	}
	return func(ctx context.Context, keys []int) error {
		e := entries[keys[0]]
		return e.pool.With(ctx, func(pid int) error {
			_, err := e.compiled.Run(pid)
			return err
		})
	}, nil
}

// selfServe starts the HTTP server on an in-process loopback TCP listener
// and returns its base URL plus a shutdown function — real TCP, real HTTP,
// zero external dependencies, which is what CI's smoke drives.
func (c *config) selfServe() (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("self target: %w", err)
	}
	httpSrv := &http.Server{Handler: server.New(registry.Options{Procs: c.procs})}
	go func() { _ = httpSrv.Serve(ln) }()
	stop := func() {
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shutdownCtx)
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// httpOp drives a server over TCP: one POST per call to the single-op
// endpoint, or to /v1/batch when the batch size exceeds one. Bodies and URLs
// are precomputed where the workload shape allows.
func (c *config) httpOp(base string, kreq kind.Request, names []string) load.Op {
	client := &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        c.load.Workers * 2,
			MaxIdleConnsPerHost: c.load.Workers * 2,
		},
		Timeout: 30 * time.Second,
	}

	if c.load.OpsPerCall > 1 {
		template := registry.BatchOp{
			Kind: registry.Kind(c.kindName), Op: registry.Op(c.opName),
			Value: c.value, Type: c.typeName, Invocation: c.invocation,
		}
		url := base + "/v1/batch"
		return func(ctx context.Context, keys []int) error {
			ops := make([]registry.BatchOp, len(keys))
			for i, k := range keys {
				ops[i] = template
				ops[i].Name = names[k]
			}
			body, err := json.Marshal(ops)
			if err != nil {
				return err
			}
			return post(ctx, client, url, body)
		}
	}

	var body []byte
	if kreq.Value != "" || kreq.Type != "" || kreq.Invocation != "" {
		body, _ = json.Marshal(server.Request{Value: kreq.Value, Type: kreq.Type, Invocation: kreq.Invocation})
	}
	urls := make([]string, len(names))
	for i, name := range names {
		urls[i] = base + "/v1/" + c.kindName + "/" + name + "/" + c.opName
	}
	return func(ctx context.Context, keys []int) error {
		return post(ctx, client, urls[keys[0]], body)
	}
}

// post issues one POST and treats any non-200 as a call failure.
func post(ctx context.Context, client *http.Client, url string, body []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if len(body) > 0 {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// statsDoc is the slice of /v1/stats slload reads.
type statsDoc struct {
	Ops map[string]int64 `json:"ops"`
}

// fetchServerOps returns the server's operation count for kindName, or 0
// when statsURL is empty (inproc target).
func fetchServerOps(statsURL, kindName string) (int64, error) {
	if statsURL == "" {
		return 0, nil
	}
	resp, err := http.Get(statsURL)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET %s: %s", statsURL, resp.Status)
	}
	var doc statsDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return 0, err
	}
	return doc.Ops[kindName], nil
}

// armProfiles wires CPU/heap profile capture to the measure phase: the CPU
// profile starts when the window opens and stops when it closes, and a heap
// profile is written at close, so profiles see exactly the measured load.
func (c *config) armProfiles(stderr io.Writer) (stop func(), err error) {
	if err := os.MkdirAll(c.pprofDir, 0o755); err != nil {
		return nil, err
	}
	cpuPath := filepath.Join(c.pprofDir, "cpu.pprof")
	heapPath := filepath.Join(c.pprofDir, "heap.pprof")
	cpuFile, err := os.Create(cpuPath)
	if err != nil {
		return nil, err
	}
	c.load.OnMeasureStart = func() {
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			fmt.Fprintln(stderr, "slload: cpu profile:", err)
		}
	}
	c.load.OnMeasureEnd = func() {
		pprof.StopCPUProfile()
		heapFile, err := os.Create(heapPath)
		if err != nil {
			fmt.Fprintln(stderr, "slload: heap profile:", err)
			return
		}
		defer heapFile.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(heapFile); err != nil {
			fmt.Fprintln(stderr, "slload: heap profile:", err)
		}
	}
	return func() {
		cpuFile.Close()
		if !c.quiet {
			fmt.Fprintf(stderr, "slload: profiles written to %s and %s\n", cpuPath, heapPath)
		}
	}, nil
}

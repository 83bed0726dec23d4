package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"slmem"
	"slmem/internal/bag"
	"slmem/internal/kind"
)

// measurement is what one end-to-end run of one workload produced.
type measurement struct {
	w      *workload
	seed   int64
	window time.Duration
	setups []float64 // seconds from workload start to the window opening, per set-up
	rates  []float64 // operations per second, per slice
	stolen []float64 // share of CPU time the hypervisor stole, per slice; nil when unknown
	clean  []int     // the slices measured from
	hist   histogram // per-call latency over the clean slices, both clients
	// sliceP50 is the median latency of each slice, in microseconds.
	sliceP50 []float64
	windowN  uint64 // operations completed inside the window

	attempted uint64 // operations issued, warm-up included
	errOps    uint64 // operations whose call returned an error or a status other than 200
	stuckOps  uint64 // operations still in flight when the watchdog fired
	badOps    uint64 // operations on objects whose invariant failed
	firstErr  error
	// violations are the failed invariants of the verify phase.
	violations []violation
	// watchdog is set when the watchdog had to stop the run.
	watchdog bool

	counters layerCounters
	process  processStats
}

// failed is the number of operations that count against the run.
func (m *measurement) failed() uint64 {
	return min(m.errOps+m.stuckOps+m.badOps, m.attempted)
}

func (m *measurement) failShare() float64 {
	if m.attempted == 0 {
		return 0
	}
	return float64(m.failed()) / float64(m.attempted)
}

func (m *measurement) correct() bool {
	return m.failed() == 0 && len(m.violations) == 0 && !m.watchdog
}

// opsPerSec is the median over the clean slices of the operations completed
// per second; a batch of 64 counts 64.
func (m *measurement) opsPerSec() float64 { return median(m.ofClean(m.rates)) }

// ofClean picks the clean slices' values out of a per-slice series.
func (m *measurement) ofClean(series []float64) []float64 {
	vs := make([]float64, 0, len(m.clean))
	for _, s := range m.clean {
		vs = append(vs, series[s])
	}
	return vs
}

// p50 is the median over the clean slices of each slice's median per-call
// latency, in microseconds. Like ops_s it is a median of slice values, so a
// few slow slices do not move it; the median of the merged histogram does
// move, because a workload whose latency has two modes flips between them.
func (m *measurement) p50() float64 { return median(m.ofClean(m.sliceP50)) }

// stealShare is the share of the window's CPU time the hypervisor stole.
func (m *measurement) stealShare() float64 {
	var sum float64
	for _, s := range m.stolen {
		sum += s / float64(len(m.stolen))
	}
	return sum
}

// sliceRates turns per-slice operation counts of all clients into rates.
func sliceRates(cs []*client, slice time.Duration) []float64 {
	rates := make([]float64, len(cs[0].slices))
	for _, c := range cs {
		for s, n := range c.slices {
			rates[s] += float64(n) / slice.Seconds()
		}
	}
	return rates
}

// layerCounters are the layers' own public counters, read when the window
// has closed and before the verify phase touches anything.
type layerCounters struct {
	cacheHits, cacheMisses  int64
	liveNodes               float64 // mean per universal object
	truncations, gcFailures int64

	bagLiveCells, bagMigrated, bagRecycled int

	acquires, fastPath, steals, blocks int64

	objects                     int64
	maxInFlight, serverFailures int64
}

// processStats are the Go runtime's and the kernel's account of the process
// from the start of the last warm-up to the close of the window.
type processStats struct {
	mallocs, allocBytes uint64
	gcPause             time.Duration
	heapLive            uint64 // after a forced collection
	cpu, wall           time.Duration
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure runs workload w end to end: set-up (construction, resolving every
// object, fixed warm-up) setups times, the measure window after the last of
// them, and the verify phase. Every phase runs under the watchdog.
func measure(w *workload, seed int64, win time.Duration, setups int) (*measurement, error) {
	m := &measurement{w: w, seed: seed, window: win}
	for i := 0; i < setups; i++ {
		last := i == setups-1
		t0 := time.Now()
		e, err := newEnv(w)
		if err != nil {
			return nil, err
		}
		cs := newClients(w, seed)
		targets := make([]target, clients)
		for c := range targets {
			targets[c] = e.target(w.top())
		}
		var opsBefore int64
		if w.http {
			if opsBefore, err = e.serverOps(); err != nil {
				e.close()
				return nil, err
			}
		}
		wd := window{start: time.Now().Add(warmup), slice: win / slices}
		if last {
			wd.n = slices
		}
		m.setups = append(m.setups, wd.start.Sub(t0).Seconds())

		var ms0 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		cpu0, wall0 := cpuTime(), time.Now()

		var stop atomic.Bool
		var meter stealMeter
		finished := drive(clients+1, wd.end().Add(watchdogGrace), &stop, func(c int) {
			if c == clients {
				meter.run(wd, &stop)
				return
			}
			cs[c].run(targets[c], wd, &stop)
		})
		if !last && finished && !stop.Load() {
			e.close()
			continue
		}

		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		m.process = processStats{
			mallocs: ms1.Mallocs - ms0.Mallocs, allocBytes: ms1.TotalAlloc - ms0.TotalAlloc,
			gcPause: time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs),
			cpu:     cpuTime() - cpu0, wall: time.Since(wall0),
		}
		m.collect(cs, wd, meter.stolen(wd.n))
		if stop.Load() {
			// A client that has not returned may still be writing its
			// tally; the run is lost either way, so report what there is.
			m.watchdog = true
			for _, c := range cs {
				m.stuckOps += uint64(c.inflight.Load())
			}
			m.attempted += m.stuckOps
			return m, nil
		}

		runtime.GC()
		runtime.ReadMemStats(&ms1)
		m.process.heapLive = ms1.HeapAlloc

		// The verify phase calls into the system too, so it runs under the
		// watchdog as well.
		var verr error
		stop.Store(false)
		finished = drive(1, time.Now().Add(watchdogGrace), &stop, func(int) {
			verr = m.verify(e, cs, opsBefore)
		})
		if !finished || stop.Load() {
			m.watchdog = true
			return m, nil
		}
		e.close()
		return m, verr
	}
	return m, nil
}

// collect gathers what the clients measured.
func (m *measurement) collect(cs []*client, wd window, stolen []float64) {
	if wd.n > 0 {
		m.rates = sliceRates(cs, wd.slice)
		m.stolen = stolen
		m.clean = cleanSlices(stolen, wd.n)
	}
	for s := 0; s < wd.n; s++ {
		var h histogram
		for _, c := range cs {
			h.merge(&c.hists[s])
		}
		m.sliceP50 = append(m.sliceP50, h.quantile(0.5)/1e3)
	}
	for _, c := range cs {
		for _, s := range m.clean {
			m.hist.merge(&c.hists[s])
		}
		for _, n := range c.slices {
			m.windowN += n
		}
		m.attempted += c.tally.attempted
		m.errOps += c.tally.errOps
		if m.firstErr == nil {
			m.firstErr = c.tally.firstErr
		}
	}
}

// verify reads the layers' counters, then reads every object back and checks
// the invariants.
func (m *measurement) verify(e *env, cs []*client, opsBefore int64) error {
	ctx, cancel := context.WithTimeout(context.Background(), watchdogGrace)
	defer cancel()
	if err := m.counters.read(ctx, e); err != nil {
		return err
	}
	fs, err := e.readFinal(ctx)
	if err != nil {
		return fmt.Errorf("verify phase: %w", err)
	}
	ts := make([]*tally, len(cs))
	var acked uint64
	for i, c := range cs {
		ts[i] = c.tally
		acked += c.tally.acked
	}
	m.violations = verify(ts, fs)
	m.badOps = failedOps(ts, m.violations)

	if e.w.http {
		// As slload does: the server must have counted at least the
		// operations it acknowledged, or load went missing on the way.
		opsAfter, err := e.serverOps()
		if err != nil {
			return err
		}
		if delta := opsAfter - opsBefore; delta < int64(acked) {
			m.badOps += acked - uint64(delta)
			m.violations = append(m.violations, violation{kindCounter, 0,
				fmt.Sprintf("/v1/stats ops grew by %d, clients were acknowledged %d operations", delta, acked)})
		}
	}
	return nil
}

// serverOps fetches /v1/stats and sums the per-kind operation counters.
func (e *env) serverOps() (int64, error) {
	resp, err := e.client.Get(e.base + "/v1/stats")
	if err != nil {
		return 0, fmt.Errorf("fetch /v1/stats: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("fetch /v1/stats: %s", resp.Status)
	}
	var doc struct {
		Ops map[string]int64 `json:"ops"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return 0, fmt.Errorf("decode /v1/stats: %w", err)
	}
	var n int64
	for _, v := range doc.Ops {
		n += v
	}
	return n, nil
}

// unwrap returns the typed object behind instance key of kind k.
func unwrap[T any](e *env, k objKind, key int) (T, error) {
	var zero T
	u, ok := e.insts[k][key].(kind.Unwrapper)
	if !ok {
		return zero, fmt.Errorf("%s instance does not expose its object", kindNames[k])
	}
	obj, ok := u.Unwrap().(T)
	if !ok {
		return zero, fmt.Errorf("%s instance wraps a %T", kindNames[k], u.Unwrap())
	}
	return obj, nil
}

// read fills the counters from the layers' public stats.
func (lc *layerCounters) read(ctx context.Context, e *env) error {
	for key := range e.insts[kindObject] {
		obj, err := unwrap[*slmem.PooledObject](e, kindObject, key)
		if err != nil {
			return err
		}
		cache := obj.Unpooled().CacheStats()
		lc.cacheHits += cache.Hits
		lc.cacheMisses += cache.Misses
		gc, err := obj.GCStats(ctx)
		if err != nil {
			return fmt.Errorf("object GC stats: %w", err)
		}
		lc.liveNodes += float64(gc.LiveNodes) / float64(len(e.insts[kindObject]))
		lc.truncations += gc.Truncations
		lc.gcFailures += gc.CoverageFailures + gc.ReplayFailures
	}
	for key := range e.insts[kindBag] {
		b, err := unwrap[*bag.PooledBag](e, kindBag, key)
		if err != nil {
			return err
		}
		st, err := b.Stats(ctx)
		if err != nil {
			return fmt.Errorf("bag stats: %w", err)
		}
		lc.bagLiveCells += st.LiveCells
		lc.bagMigrated += st.MigratedCells
		lc.bagRecycled += st.RecycledChunks
	}
	rs := e.reg.Stats()
	addPool := func(p slmem.PoolStats) {
		lc.acquires += p.Acquires
		lc.fastPath += p.FastPath
		lc.steals += p.Steals
		lc.blocks += p.Blocks
	}
	addPool(rs.Pool)
	for _, kp := range rs.KindPools {
		addPool(kp.Pool)
	}
	for _, n := range rs.Objects {
		lc.objects += n
	}
	if e.srv != nil {
		ss := e.srv.Stats()
		lc.maxInFlight, lc.serverFailures = ss.MaxInFlight, ss.Failures
	}
	return nil
}

// readFinal reads every object back through the registry's typed accessors.
func (e *env) readFinal(ctx context.Context) (finalState, error) {
	fs := finalState{procs: e.w.procs}
	for _, name := range e.names[kindCounter] {
		v, err := e.reg.Counter(name).Read(ctx)
		if err != nil {
			return fs, err
		}
		fs.counters = append(fs.counters, v)
	}
	for _, name := range e.names[kindMaxreg] {
		v, err := e.reg.MaxRegister(name).MaxRead(ctx)
		if err != nil {
			return fs, err
		}
		fs.maxregs = append(fs.maxregs, v)
	}
	for _, name := range e.names[kindSnapshot] {
		view, err := e.reg.Snapshot(name).Scan(ctx)
		if err != nil {
			return fs, err
		}
		fs.snapshots = append(fs.snapshots, view)
	}
	for key := range e.names[kindBag] {
		b, err := unwrap[*bag.PooledBag](e, kindBag, key)
		if err != nil {
			return fs, err
		}
		var items []string
		for {
			it, ok, err := b.Remove(ctx)
			if err != nil {
				return fs, err
			}
			if !ok {
				break
			}
			items = append(items, it)
		}
		fs.bags = append(fs.bags, items)
	}
	for _, name := range e.names[kindObject] {
		obj, err := e.reg.Object(name, objectType)
		if err != nil {
			return fs, err
		}
		resp, err := obj.Execute(ctx, objectRead)
		if err != nil {
			return fs, err
		}
		v, err := strconv.ParseUint(resp, 10, 64)
		if err != nil {
			return fs, fmt.Errorf("object %s read() = %q: %w", name, resp, err)
		}
		fs.objects = append(fs.objects, v)
	}
	return fs, nil
}

package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"slmem"
	"slmem/internal/kind"
	"slmem/internal/memory"
	"slmem/internal/registry"
)

const (
	// rungTime is how long the traced pass measures each entry point.
	rungTime = 2 * time.Second
	// blockOps is the number of operations one span covers: two clock reads
	// per 256 operations keep the cost of timing under 1 %.
	blockOps = 256
)

// span is one timed block of operations at one entry point. Blocks are
// children of their rung's span, and rungs of the workload's span. Times are
// nanoseconds since the tracer was made.
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"`
	Workload string `json:"workload"`
	Rung     string `json:"rung"`
	// Part names the layer a core-rung block belongs to; other rungs run
	// the workload's calls as they come and leave it empty.
	Part    string `json:"part,omitempty"`
	Client  int    `json:"client"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Ops     int    `json:"ops"`
}

// tracer keeps the spans in memory until the run ends.
type tracer struct {
	workload string
	epoch    time.Time
	nextID   atomic.Int64
	root     int64
	// perClient holds each client's spans, appended by that client alone.
	perClient [clients][]span
	rungs     []span
}

func newTracer(workload string) *tracer {
	t := &tracer{workload: workload, epoch: time.Now()}
	t.root = t.nextID.Add(1)
	return t
}

func (t *tracer) block(client int, parent int64, rung, part string, t0, t1 time.Time, ops int) {
	t.perClient[client] = append(t.perClient[client], span{
		ID: t.nextID.Add(1), Parent: parent, Workload: t.workload, Rung: rung, Part: part, Client: client,
		StartNS: t0.Sub(t.epoch).Nanoseconds(), EndNS: t1.Sub(t.epoch).Nanoseconds(), Ops: ops,
	})
}

// write stores the spans as JSON lines in dir and returns the file's path.
func (t *tracer) write(dir string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.jsonl", t.workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	all := append([]span{{ID: t.root, Workload: t.workload, Client: -1,
		EndNS: time.Since(t.epoch).Nanoseconds()}}, t.rungs...)
	for _, spans := range t.perClient {
		all = append(all, spans...)
	}
	for _, s := range all {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// The core rung times each layer's operations apart, so that one pass gives
// the paper objects' update and scan costs and the bag's and the universal
// object's own.
const (
	partUpdate = iota
	partScan
	partBag
	partUniversal
	numParts
)

var partNames = [numParts]string{"core.update", "core.scan", "bag", "universal"}

var partOf = [numOpCodes]int{
	opCounterInc:  partUpdate,
	opCounterRead: partScan,
	opMaxWrite:    partUpdate,
	opSnapUpdate:  partUpdate,
	opSnapScan:    partScan,
	opBagInsert:   partBag,
	opBagRemove:   partBag,
	opObjInc:      partUniversal,
}

// cost is time spent on a number of operations, summed over the clients.
type cost struct {
	ns  int64
	ops int64
}

func (c cost) perOp() float64 {
	if c.ops == 0 {
		return 0
	}
	return float64(c.ns) / float64(c.ops)
}

func (c cost) plus(o cost) cost { return cost{c.ns + o.ns, c.ops + o.ops} }

// ladderResult is what the traced pass measured for one workload.
type ladderResult struct {
	rung map[string]cost // time inside each entry point
	part [numParts]cost  // the core rung, by layer
	// opsInScan and maxScanIters are internal/core's counters over the core
	// rung.
	opsInScan, maxScanIters int64
	// topOpsPerSec is the throughput of the top rung, generation included:
	// the traced counterpart of ops_s.
	topOpsPerSec float64
}

// rungState is one entry point of the ladder, built and ready: its objects or
// its system, and each client's generator and target.
type rungState struct {
	name    string
	id      int64 // the rung's span
	b       *bare // core and runtime rungs
	e       *env  // the rungs above
	gens    [clients]*generator
	targets [clients]target
	done    [clients]int64 // operations completed inside recorded spans
}

func newRungState(w *workload, seed int64, rung string) (*rungState, error) {
	rs := &rungState{name: rung}
	switch rung {
	case rungCore, rungRuntime:
		rs.b = newBare(w)
	default:
		var err error
		if rs.e, err = newEnv(w); err != nil {
			return nil, err
		}
	}
	for c := range rs.gens {
		rs.gens[c] = newGenerator(w, seed, c)
		switch rung {
		case rungCore:
		case rungRuntime:
			rs.targets[c] = rs.b.runtimeTarget()
		default:
			rs.targets[c] = rs.e.target(rung)
		}
	}
	return rs, nil
}

// ladder drives each entry point of w's ladder with the workload's own calls
// (same seed, same clients), timing blocks of blockOps operations.
// Generating a block happens outside its span, so a span holds the time of
// the layers below the entry point and nothing else. Every rung gets the
// warm-up the end-to-end run gets, since bags and heaps take seconds to reach
// their working size; then the rungs take turns in short bursts until each
// has run for rungTime, so that a drift in the machine's speed falls on all
// of them alike and cancels in their differences.
func (t *tracer) ladder(w *workload, seed int64) (*ladderResult, error) {
	const bursts = 8
	var rungs []*rungState
	defer func() {
		for _, rs := range rungs {
			if rs.e != nil {
				rs.e.close()
			}
		}
	}()
	for _, rung := range w.ladder() {
		rs, err := newRungState(w, seed, rung)
		if err != nil {
			return nil, err
		}
		rs.id = t.nextID.Add(1)
		rungs = append(rungs, rs)
		begin := time.Now()
		if err := t.burst(w, rs, warmup, false); err != nil {
			return nil, err
		}
		t.rungs = append(t.rungs, span{ID: rs.id, Parent: t.root, Workload: w.name, Rung: rung, Client: -1,
			StartNS: begin.Sub(t.epoch).Nanoseconds()})
	}
	for i := 0; i < bursts; i++ {
		for _, rs := range rungs {
			if err := t.burst(w, rs, rungTime/bursts, true); err != nil {
				return nil, err
			}
		}
	}
	end := time.Since(t.epoch).Nanoseconds()
	for i := range t.rungs {
		t.rungs[i].EndNS = end
	}

	lr := &ladderResult{rung: make(map[string]cost)}
	for _, rs := range rungs {
		if rs.name == rungCore {
			lr.opsInScan, lr.maxScanIters = rs.b.coreStats()
		}
		if rs.name == w.top() {
			lr.topOpsPerSec = float64(rs.done[0]+rs.done[1]) / rungTime.Seconds()
		}
	}
	for _, spans := range t.perClient {
		for _, s := range spans {
			c := cost{ns: s.EndNS - s.StartNS, ops: int64(s.Ops)}
			lr.rung[s.Rung] = lr.rung[s.Rung].plus(c)
			for p, name := range partNames {
				if s.Part == name {
					lr.part[p] = lr.part[p].plus(c)
				}
			}
		}
	}
	return lr, nil
}

// burst runs both clients against rung rs for d, recording a span per block
// when record is set.
func (t *tracer) burst(w *workload, rs *rungState, d time.Duration, record bool) error {
	until := time.Now().Add(d)
	calls := max(1, blockOps/w.opsPerCall())
	per := w.opsPerCall()
	var stop atomic.Bool
	var firstErr atomic.Pointer[error]
	finished := drive(clients, until.Add(watchdogGrace), &stop, func(c int) {
		var ops []op
		var res results
		var parts [numParts][]op
		// timed runs the operations of one span.
		timed := func(part string, n int, run func() error) bool {
			t0 := time.Now()
			err := run()
			t1 := time.Now()
			if err != nil {
				firstErr.CompareAndSwap(nil, &err)
				return false
			}
			if record && !t1.After(until) && !stop.Load() {
				t.block(c, rs.id, rs.name, part, t0, t1, n)
				rs.done[c] += int64(n)
			}
			return !t1.After(until)
		}
		for !stop.Load() {
			ops = ops[:0]
			for i := 0; i < calls; i++ {
				ops = rs.gens[c].next(ops)
			}
			if rs.name != rungCore {
				more := timed("", len(ops), func() error {
					for i := 0; i < calls && !stop.Load(); i++ {
						res.reset()
						if err := rs.targets[c](ops[i*per:(i+1)*per], &res); err != nil {
							return err
						}
					}
					return nil
				})
				if !more {
					return
				}
				continue
			}
			for p := range parts {
				parts[p] = parts[p][:0]
			}
			for _, o := range ops {
				parts[partOf[o.code]] = append(parts[partOf[o.code]], o)
			}
			for p, part := range parts {
				if len(part) == 0 {
					continue
				}
				res.reset()
				more := timed(partNames[p], len(part), func() error {
					for _, o := range part {
						if stop.Load() {
							break
						}
						if err := rs.b.apply(c, o, &res); err != nil {
							return err
						}
					}
					return nil
				})
				if !more {
					return
				}
			}
		}
	})
	if !finished || stop.Load() {
		return fmt.Errorf("traced pass: rung %s did not finish within its watchdog bound", rs.name)
	}
	if errp := firstErr.Load(); errp != nil {
		return fmt.Errorf("traced pass: rung %s: %w", rs.name, *errp)
	}
	return nil
}

// selfTimes is each layer's own time per operation: its rung minus the rung
// below. At the core rung the operations divide among the modules that
// execute them, so each module's figure is the mean cost of its own
// operations, and what the runtime rung adds is measured against the mean
// over all of them.
func (lr *ladderResult) selfTimes(w *workload) map[string]float64 {
	self := make(map[string]float64)
	prev := 0.0
	for _, rung := range w.ladder() {
		at := lr.rung[rung].perOp()
		if rung != rungCore {
			self[rung] = at - prev
		}
		prev = at
	}
	self["core"] = lr.part[partUpdate].plus(lr.part[partScan]).perOp()
	self["bag"] = lr.part[partBag].perOp()
	self["universal"] = lr.part[partUniversal].perOp()
	return self
}

// genCost is the clients' own cost per operation: generating the call,
// reading the clock, the histogram and the tally, against a target that does
// nothing.
func genCost(w *workload, seed int64) float64 {
	const d = 500 * time.Millisecond
	cs := newClients(w, seed)
	wd := window{start: time.Now(), slice: d / slices, n: slices}
	var stop atomic.Bool
	drive(clients, wd.end().Add(watchdogGrace), &stop, func(c int) {
		cs[c].run(func([]op, *results) error { return nil }, wd, &stop)
	})
	var ops uint64
	for _, c := range cs {
		for _, n := range c.slices {
			ops += n
		}
	}
	if ops == 0 {
		return 0
	}
	return float64(clients) * float64(d.Nanoseconds()) / float64(ops)
}

// memoryFloor is the cost of one write and one read of a memory.Reg that
// only the calling client touches: what the hardware charges for the
// primitive everything else is built from.
func memoryFloor() float64 {
	const rounds = 1 << 21
	var alloc memory.NativeAllocator
	var ns [clients]int64
	var sink [clients]uint64
	var stop atomic.Bool
	drive(clients, time.Now().Add(watchdogGrace), &stop, func(c int) {
		reg := memory.NewReg[uint64](&alloc, fmt.Sprintf("floor%d", c), 0)
		t0 := time.Now()
		for i := uint64(0); i < rounds; i++ {
			reg.Write(c, i)
			sink[c] += reg.Read(c)
		}
		ns[c] = time.Since(t0).Nanoseconds()
	})
	return float64(ns[0]+ns[1]) / float64(clients*rounds)
}

// idlePidProbe measures the universal object in the server's default
// configuration, where the pool has 16 pids and two callers leave most of
// them idle: a fresh registry, 8 objects, each client doing 4000 inc() per
// episode. It reports the median episode rate and the live nodes per object
// after the last finished episode. The configuration can collapse to a few
// operations per second, so the probe is cut off after 10 s whatever it has
// done, and a client stuck inside Execute is abandoned: callers run it last.
func idlePidProbe(seed int64) (opsPerSec, liveNodes float64) {
	const (
		objects    = 8
		perClient  = 4000
		episodes   = 10
		probeLimit = 10 * time.Second
	)
	ctx := context.Background()
	deadline := time.Now().Add(probeLimit)
	var rates []float64
	for ep := 0; ep < episodes && time.Now().Before(deadline); ep++ {
		reg := registry.New(registry.Options{})
		var compiled [objects]kind.Compiled
		var pools [objects]*slmem.PIDPool
		for i := range compiled {
			req := createRequest(kindObject)
			inst, pool, err := reg.Get(registry.KindObject, objectName(kindObject, i), req)
			if err == nil {
				compiled[i], err = inst.Compile(req)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "matrix: idle-pid probe:", err)
				return 0, 0
			}
			pools[i] = pool
		}
		var done [clients]atomic.Int64
		var stop atomic.Bool
		t0 := time.Now()
		finished := drive(clients, deadline, &stop, func(c int) {
			keys := mustKeyGen(objects, seed+int64(ep)*101+int64(c)*1000003)
			for i := 0; i < perClient && !stop.Load(); i++ {
				key := keys.Next()
				err := pools[key].With(ctx, func(pid int) error {
					_, err := compiled[key].Run(pid)
					return err
				})
				if err != nil {
					return
				}
				done[c].Add(1)
			}
		})
		elapsed := time.Since(t0).Seconds()
		rates = append(rates, float64(done[0].Load()+done[1].Load())/elapsed)
		if !finished {
			break
		}
		liveNodes = 0
		for i := range pools {
			obj, err := reg.Object(objectName(kindObject, i), objectType)
			if err != nil {
				continue
			}
			if gc, err := obj.GCStats(ctx); err == nil {
				liveNodes += float64(gc.LiveNodes) / objects
			}
		}
	}
	return median(rates), liveNodes
}

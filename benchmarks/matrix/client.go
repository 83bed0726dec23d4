package main

import (
	"fmt"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// warmup is the fixed part of set-up during which the clients already
	// run but nothing is measured.
	warmup = 3 * time.Second
	// slices is the number of equal parts the measure window is cut into;
	// ops_s is the median of the rates of the undisturbed ones (steal.go).
	slices = 20
	// watchdogGrace is how long past the end of its window a phase may run
	// before the watchdog stops it.
	watchdogGrace = 15 * time.Second
	// stopGrace is how long clients get to notice the stop flag.
	stopGrace = 2 * time.Second
	// heapLimit aborts a run whose live heap balloons (the universal
	// object's history is unbounded when its collector stalls).
	heapLimit = 2 << 30
)

// window places the measure window on the clock: it starts at start and has n
// slices of length slice. With n = 0 the clients stop when warm-up ends.
type window struct {
	start time.Time
	slice time.Duration
	n     int
}

func (w window) end() time.Time { return w.start.Add(time.Duration(w.n) * w.slice) }

// client is one closed-loop caller: it generates a call, sends it, waits for
// the reply, books it, and only then generates the next.
type client struct {
	gen   *generator
	tally *tally
	// slices counts the operations completed in each slice of the window,
	// and hists holds the latency of the calls completed in it.
	slices []uint64
	hists  []histogram
	// inflight is the size of the call the client is waiting on, 0 between
	// calls; the watchdog reads it to count operations that never finished.
	inflight atomic.Int64

	ops []op
	res results
}

func newClients(w *workload, seed int64) []*client {
	cs := make([]*client, clients)
	for c := range cs {
		cs[c] = &client{gen: newGenerator(w, seed, c), tally: newTally(w),
			slices: make([]uint64, slices), hists: make([]histogram, slices)}
	}
	return cs
}

// run issues calls until the window closes or stop is raised. Calls that
// complete before the window opens warm the system up: they are booked for
// the verify phase but not measured.
func (c *client) run(do target, win window, stop *atomic.Bool) {
	for !stop.Load() {
		c.ops = c.gen.next(c.ops[:0])
		c.res.reset()
		c.inflight.Store(int64(len(c.ops)))
		t0 := time.Now()
		err := do(c.ops, &c.res)
		t1 := time.Now()
		c.inflight.Store(0)
		c.tally.record(c.ops, &c.res, err)

		since := t1.Sub(win.start)
		if since < 0 {
			continue
		}
		s := int(since / win.slice)
		if s >= win.n {
			return
		}
		c.slices[s] += uint64(len(c.ops))
		c.hists[s].add(uint64(t1.Sub(t0)))
	}
}

// drive runs fn on n goroutines and waits for them, watching the clock and
// the heap. Past deadline it raises stop and allows stopGrace more; it
// reports whether every goroutine returned. A goroutine that did not is
// stuck inside the system under test and is abandoned: the caller reports
// the run as failed and exits.
func drive(n int, deadline time.Time, stop *atomic.Bool, fn func(i int)) (finished bool) {
	var wg sync.WaitGroup
	done := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	go func() {
		wg.Wait()
		close(done)
	}()

	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	for {
		select {
		case <-done:
			return true
		case now := <-tick.C:
			metrics.Read(heap)
			if live := heap[0].Value.Uint64(); live > heapLimit {
				fmt.Fprintf(os.Stderr, "matrix: live heap is %d MiB, over the %d MiB limit: aborting before the machine swaps\n",
					live>>20, heapLimit>>20)
				os.Exit(3)
			}
			if !now.Before(deadline) {
				stop.Store(true)
				select {
				case <-done:
					return true
				case <-time.After(stopGrace):
					return false
				}
			}
		}
	}
}

// dumpStacks writes every goroutine's stack to standard error, so that a run
// the watchdog stopped shows where the system was stuck.
func dumpStacks() {
	fmt.Fprintln(os.Stderr, "matrix: watchdog fired; goroutine stacks follow")
	_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
}

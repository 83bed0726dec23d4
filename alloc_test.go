// Allocation accounting for the hot paths (the -benchmem companion
// assertions): the pid-lease layer must be allocation-free, and the direct
// counter Inc path must stay at its three-publication floor.
package slmem

import (
	"context"
	"runtime"
	"testing"
)

// TestPooledCounterIncAllocs pins the allocation budget of the counter Inc
// hot path with typed registers and per-pid collect buffers:
//
//   - The pooled path (lease + Inc + release) adds at most 1 allocation
//     over the direct path — in practice 0: Acquire, the closure, and
//     Release all stay on the stack.
//   - The direct path itself performs exactly 3 allocations, one per
//     shared-value publication: the snapshot component cell (S.update),
//     the copy of the scan handed to R (the scan itself is the pid's
//     buffer), and R's tagged cell (R.DWrite). Register values are
//     immutable and shared with readers indefinitely, so these cannot be
//     pooled; this is the floor for a register-based implementation.
//
// (Before that work the direct path was 7 allocs/op: interface boxing on
// every register write and two fresh collect buffers per scan.)
func TestPooledCounterIncAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	const n = 4
	ctx := context.Background()
	direct := NewCounter(n)
	pooled := NewPooledCounter(n)
	// Warm both paths (first ops populate the pid pool's hints).
	for i := 0; i < 8; i++ {
		direct.Inc(0)
		if err := pooled.Inc(ctx); err != nil {
			t.Fatal(err)
		}
	}

	directAllocs := testing.AllocsPerRun(500, func() { direct.Inc(0) })
	pooledAllocs := testing.AllocsPerRun(500, func() {
		if err := pooled.Inc(ctx); err != nil {
			t.Fatal(err)
		}
	})

	if directAllocs > 3 {
		t.Errorf("direct Inc = %.2f allocs/op, want <= 3 (one per shared-value publication)", directAllocs)
	}
	if overhead := pooledAllocs - directAllocs; overhead > 1 {
		t.Errorf("pooled Inc adds %.2f allocs/op over direct (%.2f vs %.2f), want <= 1",
			overhead, pooledAllocs, directAllocs)
	}
}

// TestSnapshotScanAllocs pins the read paths: a scan of S is the scanning
// pid's own buffer and R's announcement writes are packed words, so a solo
// Scan allocates exactly the copy it returns, and the derived reads, which
// fold R's stored view without keeping it, allocate nothing.
func TestSnapshotScanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	const n = 4
	s := NewSnapshot[uint64](n, 0)
	c := NewCounter(n)
	m := NewMaxRegister(n)
	for pid := 0; pid < n; pid++ {
		s.Update(pid, uint64(pid))
		c.Inc(pid)
		m.MaxWrite(pid, uint64(pid))
	}
	for name, tc := range map[string]struct {
		read func()
		want float64
	}{
		"Snapshot.Scan":       {func() { s.Scan(0) }, 1},
		"Counter.Read":        {func() { c.Read(0) }, 0},
		"MaxRegister.MaxRead": {func() { m.MaxRead(0) }, 0},
	} {
		tc.read()
		if allocs := testing.AllocsPerRun(500, tc.read); allocs > tc.want {
			t.Errorf("solo %s = %.2f allocs/op, want <= %.0f", name, allocs, tc.want)
		}
	}
}

// TestObjectExecuteAllocs pins the warm universal-object Execute at n = 2,
// pids alternating (delta 1), with truncation on (a collector pass every
// window) and off: the root scan is R's stored view, kept uncopied as the
// node's preceding vector; the root update publishes its three shared values;
// the operation publishes its node, which its process keeps among its last
// nine as its anchor, and publishes a copy of that anchor for the collector
// once every sixteen operations; and the scanned view's newest node covers the
// rest of it, so its state is the graph's and nothing is extracted or
// replayed. The runs measure 5 allocations and about 153 bytes: the node
// carries its state (80 bytes, 64 without it) and the replay's intermediate
// state is gone (6 and 148 when every operation replayed the other's node;
// 245 when every operation carved a new anchor and the node and R's cell
// carried 16 dead bytes each). The allocation floor leaves room for a spec
// whose states cost more than the counter's, and none for the 32 of the
// map-based linearization.
func TestObjectExecuteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	for _, gc := range []bool{true, false} {
		o := NewObject(CounterType{}, 2)
		if gc {
			o.SetGC(ObjectGCOptions{Window: DefaultObjectGCWindow})
		}
		pid := 0
		step := func() {
			if _, err := o.Execute(pid, "inc()"); err != nil {
				t.Fatal(err)
			}
			pid = 1 - pid
		}
		for i := 0; i < 4*DefaultObjectGCWindow; i++ {
			step()
		}
		if allocs := testing.AllocsPerRun(4*DefaultObjectGCWindow, step); allocs > 12 {
			t.Errorf("warm Execute, GC %v = %.2f allocs/op, want <= 12", gc, allocs)
		}
		const runs = 16 * DefaultObjectGCWindow
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			step()
		}
		runtime.ReadMemStats(&after)
		if bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs; bytes > 160 {
			t.Errorf("warm Execute, GC %v = %.1f B/op, want <= 160", gc, bytes)
		}
	}
}

// TestObjectIdlePidPassAllocs pins what a collector pass costs when it cannot
// proceed: with one pid that executed once and then idles, every pass ends at
// that pid's record once the truncation root has reached it, and must end
// there before it allocates. A window of one runs a pass per operation; the
// same operations with passes out of reach allocate exactly as much.
func TestObjectIdlePidPassAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	perOp := func(window int) float64 {
		o := NewObject(CounterType{}, 3)
		o.SetGC(ObjectGCOptions{Window: window})
		if _, err := o.Execute(2, "inc()"); err != nil { // pid 2 publishes a record and then stays idle
			t.Fatal(err)
		}
		pid := 0
		step := func() {
			if _, err := o.Execute(pid, "inc()"); err != nil {
				t.Fatal(err)
			}
			pid = 1 - pid
		}
		for i := 0; i < 8; i++ { // the root reaches pid 2's record
			step()
		}
		return testing.AllocsPerRun(64, step)
	}
	if passes, none := perOp(1), perOp(1<<30); passes != none {
		t.Errorf("an operation with a refused pass = %.2f allocs, without a pass %.2f", passes, none)
	}
}

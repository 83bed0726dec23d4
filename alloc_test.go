// Allocation accounting for the hot paths (the -benchmem companion
// assertions): the pid-lease layer must be allocation-free, and the direct
// counter Inc path must stay at its three-publication floor.
package slmem

import (
	"context"
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
//     the scanned view handed to R (S.scan), and R's tagged cell
//     (R.DWrite). Register values are immutable and shared with readers
//     indefinitely, so these cannot be pooled; this is the floor for a
//     register-based implementation.
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
	// Warm both paths (first ops populate the lease stripes' hints).
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

// TestSnapshotScanAllocs pins the Scan path: the collect buffers are the
// scanning pid's own and R's announcement writes are packed words, so a solo
// Scan costs S's view and the returned copy of R's — 2 allocations.
func TestSnapshotScanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	const n = 4
	s := NewSnapshot[uint64](n, 0)
	for pid := 0; pid < n; pid++ {
		s.Update(pid, uint64(pid))
	}
	s.Scan(0)
	allocs := testing.AllocsPerRun(500, func() { s.Scan(0) })
	if allocs > 2 {
		t.Errorf("solo Scan = %.2f allocs/op, want <= 2", allocs)
	}
}

// TestObjectExecuteAllocs pins the warm universal-object Execute at n = 2
// with truncation on, pids alternating (delta 1, a collector pass every
// window): the root scan and update publish their shared values, the
// operation publishes its node and checkpoints its state, and extraction,
// linearization and the watermark run in per-pid memory that is reused. The
// run measures 9; the floor leaves room for a spec whose states cost more
// than the counter's, and none for the 32 of the map-based linearization.
func TestObjectExecuteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	o := NewObject(CounterType{}, 2)
	o.SetGC(ObjectGCOptions{Window: DefaultObjectGCWindow})
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
	if allocs := testing.AllocsPerRun(4*DefaultObjectGCWindow, step); allocs > 16 {
		t.Errorf("warm Execute = %.2f allocs/op, want <= 16", allocs)
	}
}

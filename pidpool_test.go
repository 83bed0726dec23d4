package slmem

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPIDPoolHandsOutDistinctPids(t *testing.T) {
	pool := NewPIDPool(8)
	seen := make(map[int]bool)
	for i := 0; i < 8; i++ {
		pid, ok := pool.TryAcquire()
		if !ok {
			t.Fatalf("TryAcquire %d failed with %d free", i, 8-i)
		}
		if pid < 0 || pid >= 8 {
			t.Fatalf("pid %d out of range", pid)
		}
		if seen[pid] {
			t.Fatalf("pid %d handed out twice", pid)
		}
		seen[pid] = true
	}
	if _, ok := pool.TryAcquire(); ok {
		t.Fatal("TryAcquire succeeded with pool exhausted")
	}
	if got := pool.InUse(); got != 8 {
		t.Fatalf("InUse = %d, want 8", got)
	}
	for pid := range seen {
		pool.Release(pid)
	}
	if got := pool.InUse(); got != 0 {
		t.Fatalf("InUse after releases = %d, want 0", got)
	}
	if held := pool.Held(); len(held) != 0 {
		t.Fatalf("Held after releases = %v, want empty", held)
	}
}

func TestPIDPoolAcquireBlocksUntilRelease(t *testing.T) {
	pool := NewPIDPool(1)
	pid, err := pool.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	got := make(chan int)
	go func() {
		p, err := pool.Acquire(context.Background())
		if err != nil {
			t.Error(err)
		}
		got <- p
	}()

	select {
	case p := <-got:
		t.Fatalf("second Acquire returned %d before release", p)
	case <-time.After(20 * time.Millisecond):
	}

	pool.Release(pid)
	select {
	case p := <-got:
		if p != pid {
			t.Fatalf("handed pid %d, want %d", p, pid)
		}
		pool.Release(p)
	case <-time.After(2 * time.Second):
		t.Fatal("blocked Acquire never woke after Release")
	}
}

func TestPIDPoolAcquireRespectsContext(t *testing.T) {
	pool := NewPIDPool(1)
	pid, _ := pool.TryAcquire()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := pool.Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Acquire error = %v, want DeadlineExceeded", err)
	}

	pool.Release(pid)
	// The cancelled waiter must not have consumed the release.
	if p, ok := pool.TryAcquire(); !ok {
		t.Fatal("pid lost after cancelled Acquire")
	} else {
		pool.Release(p)
	}
}

func TestPIDPoolFIFOWakeup(t *testing.T) {
	pool := NewPIDPool(1)
	pid, _ := pool.TryAcquire()

	const waiters = 4
	order := make(chan int, waiters)
	var started sync.WaitGroup
	for i := 0; i < waiters; i++ {
		i := i
		started.Add(1)
		go func() {
			// Stagger queueing so the FIFO order is deterministic.
			time.Sleep(time.Duration(i+1) * 20 * time.Millisecond)
			started.Done()
			p, err := pool.Acquire(context.Background())
			if err != nil {
				t.Error(err)
				return
			}
			order <- i
			pool.Release(p)
		}()
	}
	started.Wait()
	time.Sleep(120 * time.Millisecond) // let every waiter enqueue
	pool.Release(pid)
	for want := 0; want < waiters; want++ {
		select {
		case got := <-order:
			if got != want {
				t.Fatalf("waiter %d woke before waiter %d", got, want)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("waiter %d never woke", want)
		}
	}
}

func TestPIDPoolDoubleReleasePanics(t *testing.T) {
	pool := NewPIDPool(2)
	pid, _ := pool.TryAcquire()
	pool.Release(pid)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	pool.Release(pid)
}

func TestPIDPoolReleaseOutOfRangePanics(t *testing.T) {
	pool := NewPIDPool(2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range release did not panic")
		}
	}()
	pool.Release(7)
}

func TestPIDPoolWithReleasesOnPanic(t *testing.T) {
	pool := NewPIDPool(1)
	func() {
		defer func() { recover() }()
		_ = pool.With(context.Background(), func(pid int) error {
			panic("boom")
		})
	}()
	if got := pool.InUse(); got != 0 {
		t.Fatalf("InUse after panicking With = %d, want 0", got)
	}
}

// TestPIDPoolExhaustion drains pools of several sizes through TryAcquire: the
// words are the free list, so n leases are exactly the ids 0..n-1, the next
// one is refused, and the counters add up.
func TestPIDPoolExhaustion(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 64, 200} {
		pool := NewPIDPool(n)
		if got := pool.Size(); got != n {
			t.Fatalf("Size = %d, want %d", got, n)
		}
		seen := make(map[int]bool, n)
		for i := 0; i < n; i++ {
			pid, ok := pool.TryAcquire()
			if !ok {
				t.Fatalf("n=%d: TryAcquire %d failed with %d free", n, i, n-i)
			}
			if pid < 0 || pid >= n || seen[pid] {
				t.Fatalf("n=%d: pid %d out of range or handed out twice", n, pid)
			}
			seen[pid] = true
		}
		if pid, ok := pool.TryAcquire(); ok {
			t.Fatalf("n=%d: TryAcquire returned %d with the pool exhausted", n, pid)
		}
		if got := pool.InUse(); got != n {
			t.Fatalf("n=%d: InUse = %d", n, got)
		}
		held := pool.Held()
		if len(held) != n {
			t.Fatalf("n=%d: Held has %d ids", n, len(held))
		}
		for i, pid := range held {
			if pid != i {
				t.Fatalf("n=%d: Held = %v, want 0..%d in order", n, held, n-1)
			}
		}
		for pid := range seen {
			pool.Release(pid)
		}
		if got := pool.InUse(); got != 0 {
			t.Fatalf("n=%d: InUse after releases = %d", n, got)
		}
		st := pool.Stats()
		if st.Acquires != int64(n) || st.Acquires != st.FastPath+st.Steals+pool.handoffs.Load() {
			t.Fatalf("n=%d: Acquires %d, want %d = FastPath %d + Steals %d + hand-offs %d",
				n, st.Acquires, n, st.FastPath, st.Steals, pool.handoffs.Load())
		}
	}
}

// TestReleaseUnleasedPanicsEvenWithWaiter pins that ownership is asserted on
// the hand-off path too: a release of a pid nobody leased must not reach the
// queued waiter, who would run as a process it shares with the real holder.
func TestReleaseUnleasedPanicsEvenWithWaiter(t *testing.T) {
	pool := NewPIDPool(2)
	a, _ := pool.TryAcquire()
	b, _ := pool.TryAcquire()
	pool.Release(b) // b is free again; a keeps the waiter below from finding it
	w := &waiter{ch: make(chan int, 1)}
	pool.qmu.Lock()
	pool.waiters.push(w)
	pool.nwait.Add(1)
	pool.qmu.Unlock()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("release of an unleased pid did not panic with a waiter queued")
			}
		}()
		pool.Release(b)
	}()
	select {
	case pid := <-w.ch:
		t.Fatalf("the waiter was handed pid %d by a release of an unleased pid", pid)
	default:
	}
	if pool.Holds(b) || pool.nwait.Load() != 1 {
		t.Fatalf("holds(%d) = %v, waiters %d after the refused release", b, pool.Holds(b), pool.nwait.Load())
	}
	pool.Release(a) // a real release still reaches the waiter
	if pid := <-w.ch; pid != a || !pool.Holds(a) {
		t.Fatalf("handed %d (holds %v), want %d still leased", pid, pool.Holds(a), a)
	}
	pool.Release(a)
}

// TestPIDPoolSoakChurn is the race-detector soak: far more goroutines than
// pids, each repeatedly leasing, doing a little work, and releasing, with a
// fraction abandoning acquisition via context cancellation. It checks the
// ownership invariant directly (two holders of one pid would trip the
// per-pid CAS panic and usually the race detector too) and that no pid leaks.
func TestPIDPoolSoakChurn(t *testing.T) {
	const pids = 8
	goroutines, rounds := 64, 200
	if testing.Short() {
		goroutines, rounds = 32, 50
	}
	pool := NewPIDPool(pids)
	owners := make([]atomic.Int32, pids) // goroutine id + 1, for the invariant check

	var wg sync.WaitGroup
	var granted, cancelled atomic.Int64
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				ctx := context.Background()
				cancel := context.CancelFunc(func() {})
				if r%8 == 7 {
					// Contended cancellation: a deadline short enough to
					// fire while queued, sometimes racing the handoff.
					ctx, cancel = context.WithTimeout(ctx, time.Duration(r%3)*time.Microsecond)
				}
				pid, err := pool.Acquire(ctx)
				cancel()
				if err != nil {
					cancelled.Add(1)
					continue
				}
				if !owners[pid].CompareAndSwap(0, int32(g)+1) {
					t.Errorf("pid %d acquired by %d while owned by %d", pid, g, owners[pid].Load()-1)
					pool.Release(pid)
					return
				}
				granted.Add(1)
				if !owners[pid].CompareAndSwap(int32(g)+1, 0) {
					t.Errorf("pid %d stolen from %d mid-lease", pid, g)
					return
				}
				pool.Release(pid)
			}
		}()
	}
	wg.Wait()

	if held := pool.Held(); len(held) != 0 {
		t.Fatalf("leaked pids after soak: %v", held)
	}
	if got := pool.InUse(); got != 0 {
		t.Fatalf("InUse after soak = %d, want 0", got)
	}
	st := pool.Stats()
	if st.Acquires < granted.Load() {
		t.Fatalf("stats.Acquires = %d < %d grants observed", st.Acquires, granted.Load())
	}
	t.Logf("soak: %d grants, %d cancels, stats=%+v", granted.Load(), cancelled.Load(), st)
}

// TestPIDPoolIdsFollowConcurrency pins which ids a pool hands out to how many
// leases are held at once. Acquiring while the id one's hint names is out —
// what an acquirer sees when that id's holder was preempted — is a miss, and a
// hint that moved on from wherever it missed walked through all 64 ids here.
func TestPIDPoolIdsFollowConcurrency(t *testing.T) {
	pool := NewPIDPool(64)
	used := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		a, okA := pool.TryAcquire()
		b, okB := pool.TryAcquire() // the hinted id, a, is leased now
		if !okA || !okB {
			t.Fatalf("round %d: pool of 64 ran dry with two leases out", i)
		}
		used[a], used[b] = true, true
		pool.Release(a)
		pool.Release(b)
	}
	// One base per P, and one step up from it for the second lease.
	if bound := runtime.GOMAXPROCS(0) + 1; len(used) > bound {
		t.Fatalf("two leases at a time used %d ids, want at most %d: %v", len(used), bound, used)
	}
}

// TestPIDPoolHoldsAcrossReuse checks Holds against ids outside [0, n) and
// across a lease reused for many operations, as a batch caller does.
func TestPIDPoolHoldsAcrossReuse(t *testing.T) {
	pool := NewPIDPool(4)
	for pid := 0; pid < 4; pid++ {
		if pool.Holds(pid) {
			t.Fatalf("fresh pool holds pid %d", pid)
		}
	}
	if pool.Holds(-1) || pool.Holds(4) {
		t.Fatal("Holds reported an id outside [0, n) as leased")
	}
	pid, err := pool.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// A batch-style caller reuses the lease across many operations; Holds
	// must stay true throughout and flip only on Release.
	for i := 0; i < 100; i++ {
		if !pool.Holds(pid) {
			t.Fatalf("Holds(%d) flipped mid-reuse at op %d", pid, i)
		}
	}
	pool.Release(pid)
	if pool.Holds(pid) {
		t.Fatalf("Holds(%d) = true after release", pid)
	}
}

func TestPIDPoolHoldsDuringHandoff(t *testing.T) {
	// When a release hands the pid directly to a FIFO waiter, the id never
	// becomes free: Holds must remain true across the ownership transfer.
	pool := NewPIDPool(1)
	pid, err := pool.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan int)
	go func() {
		p, err := pool.Acquire(context.Background())
		if err != nil {
			t.Error(err)
			close(got)
			return
		}
		got <- p
	}()
	// Wait for the second acquirer to queue, then hand off.
	for i := 0; pool.Stats().Blocks == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	pool.Release(pid)
	p := <-got
	if !pool.Holds(p) {
		t.Fatalf("Holds(%d) = false after direct handoff", p)
	}
	pool.Release(p)
	if pool.Holds(p) {
		t.Fatalf("Holds(%d) = true after final release", p)
	}
}

// TestPIDPoolNoLostWakeup hammers a one-id pool from two goroutines. Before
// Release re-checked the waiter count after freeing the word, this hung: a
// release looks at the (empty) queue, a waiter then queues and re-scans the
// (still leased) word, the release frees the id — and the waiter sleeps on a
// free id that no later release will ever hand it. Run under -cpu 2,4; a
// watchdog turns the hang into a failure with the pool's state.
func TestPIDPoolNoLostWakeup(t *testing.T) {
	const workers = 2
	perWorker := 200_000
	if testing.Short() {
		perWorker = 50_000
	}
	pool := NewPIDPool(1)
	ctx := context.Background()
	var inside atomic.Int32
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for i := 0; i < perWorker; i++ {
				err := pool.With(ctx, func(pid int) error {
					if inside.Add(1) != 1 {
						return errors.New("two holders of the only pid")
					}
					inside.Add(-1)
					return nil
				})
				if err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	watchdog := time.After(2 * time.Minute)
	for w := 0; w < workers; w++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-watchdog:
			t.Fatalf("lost wake-up: a waiter sleeps while the pid is free (in use %d, held %v, stats %+v)",
				pool.InUse(), pool.Held(), pool.Stats())
		}
	}
	st := pool.Stats()
	if want := int64(workers * perWorker); st.Acquires != want {
		t.Errorf("Acquires = %d, want %d: every With is one acquisition, hand-off or not", st.Acquires, want)
	}
	if st.FastPath+st.Steals > st.Acquires || st.Blocks > st.Acquires {
		t.Errorf("counters out of meaning: %+v", st)
	}
	if pool.InUse() != 0 {
		t.Errorf("InUse = %d after quiesce", pool.InUse())
	}
}

// TestPIDPoolReleaseRechecksWaiters replays the lost wake-up step by step: the
// releaser has looked at the queue and found it empty; only then does the
// waiter queue and re-scan the still-leased words; the releaser frees the
// id. The release must notice the waiter and hand the id over — otherwise the
// waiter sleeps on a free id until some later release, which on a one-id
// pool never comes.
func TestPIDPoolReleaseRechecksWaiters(t *testing.T) {
	pool := NewPIDPool(1)
	pid, ok := pool.TryAcquire()
	if !ok {
		t.Fatal("fresh pool refused its only id")
	}
	if w := pool.popWaiter(); w != nil { // Release's look at the queue
		t.Fatal("waiter on a fresh pool")
	}
	w := &waiter{ch: make(chan int, 1)} // Acquire's slow path, up to its block
	pool.qmu.Lock()
	pool.waiters.push(w)
	pool.nwait.Add(1)
	pool.qmu.Unlock()
	if _, ok := pool.TryAcquire(); ok {
		t.Fatal("re-scan found an id that is still leased")
	}
	pool.free(pid) // the rest of Release
	select {
	case got := <-w.ch:
		if got != pid || !pool.Holds(pid) || pool.InUse() != 1 {
			t.Fatalf("handed %d (holds %v, in use %d), want the released pid %d still leased", got, pool.Holds(pid), pool.InUse(), pid)
		}
	default:
		t.Fatal("the waiter was left asleep with the pid free")
	}
	pool.Release(pid)
	if pool.InUse() != 0 || pool.nwait.Load() != 0 {
		t.Fatalf("in use %d, waiters %d after the hand-off was released", pool.InUse(), pool.nwait.Load())
	}
}

// BenchmarkPIDPoolWith is one lease around an empty operation from every P at
// once. Read it at -cpu 1,2,4: a lease that touches only its own pid's line
// costs the same or less per op as cores are added, one that shares a mutex
// or a counter line costs more — which a single-core reading cannot show.
func BenchmarkPIDPoolWith(b *testing.B) {
	pool := NewPIDPool(16)
	ctx := context.Background()
	nop := func(int) error { return nil }
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := pool.With(ctx, nop); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

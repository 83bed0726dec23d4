package bag

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// TestChurnBoundedSpace pins the recycling bound: under sustained
// insert/remove churn the number of reachable cells stays bounded by a
// small constant, no matter how many items pass through the bag.
func TestChurnBoundedSpace(t *testing.T) {
	const rounds = 50 * chunkSize // ~3200 items through a 1-process bag
	b := New(1)
	for i := 0; i < rounds; i++ {
		b.Insert(0, "x")
		if _, ok := b.Remove(0); !ok {
			t.Fatalf("round %d: remove found the bag empty", i)
		}
	}
	st := b.Stats(0)
	if st.Published != rounds {
		t.Fatalf("Published = %d, want %d", st.Published, rounds)
	}
	// Everything removed: only the open tail chunk (and at most one
	// not-yet-compacted predecessor) may still be reachable.
	if st.LiveCells > 2*chunkSize {
		t.Errorf("LiveCells = %d after full churn, want <= %d (recycling failed to bound space)",
			st.LiveCells, 2*chunkSize)
	}
	if st.RecycledChunks < rounds/chunkSize-2 {
		t.Errorf("RecycledChunks = %d, want >= %d", st.RecycledChunks, rounds/chunkSize-2)
	}
	if got := b.Size(0); got != 0 {
		t.Errorf("Size = %d, want 0", got)
	}
}

// TestChurnWithResidentItems keeps a fixed population of live items while
// churning many more through: live space must track the population, not
// the insert total.
func TestChurnWithResidentItems(t *testing.T) {
	const resident = 10
	const rounds = 30 * chunkSize
	b := New(2)
	for i := 0; i < resident; i++ {
		b.Insert(0, fmt.Sprintf("resident-%d", i))
	}
	for i := 0; i < rounds; i++ {
		b.Insert(i%2, "transient")
		if _, ok := b.Remove((i + 1) % 2); !ok {
			t.Fatalf("round %d: remove found the bag empty", i)
		}
	}
	if got := b.Size(0); got != resident {
		t.Fatalf("Size = %d, want %d", got, resident)
	}
	st := b.Stats(1)
	// The resident items pin their chunks; everything else recycles up to
	// per-process tails and fragmentation.
	limit := (resident + 2*2) * chunkSize
	if st.LiveCells > limit {
		t.Errorf("LiveCells = %d, want <= %d (%d residents should pin O(resident+tails) chunks)",
			st.LiveCells, limit, resident)
	}
	if st.RecycledChunks == 0 {
		t.Error("no chunks recycled despite heavy churn")
	}
}

// TestRecycledValuesNeverResurface drains a churned bag and checks every
// removed item is one that was inserted and never handed out twice —
// recycling must not let a TAS win land on a reused cell.
func TestRecycledValuesNeverResurface(t *testing.T) {
	const rounds = 10 * chunkSize
	b := New(1)
	seen := make(map[string]bool)
	for i := 0; i < rounds; i++ {
		v := fmt.Sprintf("item-%d", i)
		b.Insert(0, v)
		got, ok := b.Remove(0)
		if !ok {
			t.Fatalf("round %d: bag empty", i)
		}
		if seen[got] {
			t.Fatalf("round %d: item %q removed twice", i, got)
		}
		seen[got] = true
	}
	if len(seen) != rounds {
		t.Fatalf("removed %d distinct items, want %d", len(seen), rounds)
	}
}

// TestConcurrentChurnRecycling races removers and a sizer against inserting
// owners (run with -race): recycling steps run concurrently with walkers
// holding unlinked chunks, and every item must be removed exactly once.
func TestConcurrentChurnRecycling(t *testing.T) {
	const n = 4
	const perProc = 8 * chunkSize
	b := New(n)
	var wg sync.WaitGroup
	removed := make([][]string, n/2)

	// Two inserting owners, one remover, one sizer/stats walker.
	for p := 0; p < n/2; p++ {
		p := p
		wg.Add(2)
		go func() { // inserter on pid p
			defer wg.Done()
			for i := 0; i < perProc; i++ {
				b.Insert(p, fmt.Sprintf("p%d-%d", p, i))
			}
		}()
		go func() { // remover on pid n/2+p
			defer wg.Done()
			pid := n/2 + p
			for len(removed[p]) < perProc {
				if v, ok := b.Remove(pid); ok {
					removed[p] = append(removed[p], v)
				} else if pid == n-1 {
					b.Stats(pid) // exercise the stats walker under race too
				}
			}
		}()
	}
	wg.Wait()

	seen := make(map[string]bool)
	for _, batch := range removed {
		for _, v := range batch {
			if seen[v] {
				t.Fatalf("item %q removed twice", v)
			}
			seen[v] = true
		}
	}
	if len(seen) != n/2*perProc {
		t.Fatalf("removed %d distinct items, want %d", len(seen), n/2*perProc)
	}
	if got := b.Size(0); got != 0 {
		t.Errorf("Size = %d after draining, want 0", got)
	}
	// Insert-time recycling stops with the last insert; an explicit Compact by
	// each idle producer reclaims everything except its open tail chunk.
	for p := 0; p < n/2; p++ {
		b.Compact(p)
	}
	st := b.Stats(0)
	if st.LiveCells > n/2*chunkSize {
		t.Errorf("LiveCells = %d after drain+compact, want <= %d (one tail chunk per producer)",
			st.LiveCells, n/2*chunkSize)
	}
	if st.RecycledChunks < (n/2)*(perProc/chunkSize-1) {
		t.Errorf("RecycledChunks = %d, want >= %d", st.RecycledChunks, (n/2)*(perProc/chunkSize-1))
	}
}

// TestStatsAccounting cross-checks Stats fields against a known sequence.
func TestStatsAccounting(t *testing.T) {
	b := New(2)
	for i := 0; i < 5; i++ {
		b.Insert(0, "a")
	}
	b.Insert(1, "b")
	st := b.Stats(0)
	if st.Published != 6 || st.LiveCells != 6 || st.LiveClaimed != 0 || st.RecycledChunks != 0 {
		t.Fatalf("after 6 inserts: %+v", st)
	}
	if st.LiveChunks != 2 {
		t.Fatalf("LiveChunks = %d, want 2 (one per inserting process)", st.LiveChunks)
	}
	if _, ok := b.Remove(0); !ok {
		t.Fatal("remove failed")
	}
	st = b.Stats(0)
	if st.LiveClaimed != 1 || st.LiveCells != 6 {
		t.Fatalf("after one remove: %+v", st)
	}
}

// TestClaimedCellsFormPrefix pins the invariant recycling rests on: in
// every log the claimed cells are a prefix of the published cells, because
// Remove passes a cell only once it is claimed. A checker reads each owner's
// published cells from the highest index down while owners insert and
// removers drain; once it has seen a claimed cell, every cell below it must
// read claimed too. The scan runs downward because claimed bits are
// monotone: an unclaimed cell read after a claimed one above it was already
// unclaimed when that one was read, so the gap was real. Read upward, the
// lower cell could be claimed between the two reads and a gap that never
// existed would show.
func TestClaimedCellsFormPrefix(t *testing.T) {
	const owners, removers = 2, 2
	perOwner := 32 * chunkSize
	if testing.Short() {
		perOwner = 8 * chunkSize
	}
	checker := owners + removers
	b := New(checker + 1)
	var wg sync.WaitGroup
	for p := 0; p < owners; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perOwner; i++ {
				b.Insert(p, fmt.Sprintf("p%d-%d", p, i))
			}
		}()
	}
	var removed atomic.Int64
	for r := 0; r < removers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for removed.Load() < int64(owners*perOwner) {
				if _, ok := b.Remove(owners + r); ok {
					removed.Add(1)
				}
				runtime.Gosched() // take turns with the checker on one core too
			}
		}()
	}
	var done atomic.Bool
	gap := make(chan string, 1)
	go func() {
		defer close(gap)
		var chunks []*chunk
		for ; !done.Load(); runtime.Gosched() {
			view := b.pub.View(checker)
			for p := 0; p < owners; p++ {
				chunks = chunks[:0]
				for c := b.logs[p].head.Load(); c != nil && c.base < view[p]; c = c.next.Load() {
					chunks = append(chunks, c)
				}
				seen := -1 // lowest claimed index read so far
				for _, c := range slices.Backward(chunks) {
					for i := min(view[p]-c.base, chunkSize) - 1; i >= 0; i-- {
						switch {
						case c.taken(i):
							seen = c.base + i
						case seen >= 0:
							gap <- fmt.Sprintf("log %d: cell %d unclaimed below claimed cell %d", p, c.base+i, seen)
							return
						}
					}
				}
			}
		}
	}()
	wg.Wait()
	done.Store(true)
	if msg, ok := <-gap; ok {
		t.Fatal(msg)
	}
}

// TestChurnWithStragglersBoundedSpace drives churn that leaves one survivor
// per round and checks no survivor is stranded: Remove claims each log
// lowest first, so the survivors are the newest cells, packed at the end of
// the log, and reachable space tracks the survivor count, not the churn
// total.
func TestChurnWithStragglersBoundedSpace(t *testing.T) {
	const rounds = 40
	b := New(1)
	next := 0
	for r := 0; r < rounds; r++ {
		// Fill two chunks and drain all but one cell through Remove.
		for i := 0; i < 2*chunkSize; i++ {
			b.Insert(0, fmt.Sprintf("item-%d", next))
			next++
		}
		for i := 0; i < 2*chunkSize-1; i++ {
			if _, ok := b.Remove(0); !ok {
				t.Fatalf("round %d: bag empty early", r)
			}
		}
	}
	b.Compact(0)
	st := b.Stats(0)
	if got := b.Size(0); got != rounds {
		t.Fatalf("Size = %d, want %d survivors", got, rounds)
	}
	// rounds survivors fit in O(rounds/chunkSize) chunks; allow generous
	// slack for the open tail and the chunk holding the oldest survivor.
	limit := (rounds/chunkSize + 4) * chunkSize
	if st.LiveCells > limit {
		t.Errorf("LiveCells = %d, want <= %d (a survivor stranded its chunk)", st.LiveCells, limit)
	}
}

package bag

import (
	"fmt"
	"sync"
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
// owners (run with -race): recycling sweeps run concurrently with walkers
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
	// Insert-time sweeps stop with the last insert; an explicit Compact by
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

// claimFiat marks cell (c, i) claimed outside any Remove, standing in for a
// remover that happened to claim exactly that cell: the bag's invariants
// only require claimed bits to be monotone, never contiguous.
func claimFiat(t *testing.T, c *chunk, i int) {
	t.Helper()
	if !c.tas(i) {
		t.Fatalf("cell %d already claimed", i)
	}
}

// TestStragglerChunkMigratesAndUnlinks pins the fragmentation fix: a chunk
// left with a single unclaimed cell is migrated — the owner claims the
// straggler and republishes it at the tail — and then unlinks, instead of
// pinning chunkSize cells forever.
func TestStragglerChunkMigratesAndUnlinks(t *testing.T) {
	b := New(1)
	for i := 0; i < 2*chunkSize; i++ {
		b.Insert(0, fmt.Sprintf("item-%d", i))
	}
	// Strand one straggler: claim every cell of the head chunk except the
	// last. Before the fix this chunk could never recycle.
	head := b.logs[0].head.Load()
	for i := 0; i < chunkSize-1; i++ {
		claimFiat(t, head, i)
	}
	if freed := b.Compact(0); freed < 1 {
		t.Fatalf("Compact freed %d chunks, want >= 1 (straggler chunk should migrate and unlink)", freed)
	}
	st := b.Stats(0)
	if st.MigratedCells != 1 {
		t.Errorf("MigratedCells = %d, want 1", st.MigratedCells)
	}
	if st.RecycledChunks < 1 {
		t.Errorf("RecycledChunks = %d, want >= 1", st.RecycledChunks)
	}
	if b.logs[0].head.Load() == head {
		t.Error("straggler chunk still linked as head after Compact")
	}
	if tc := b.logs[0].transit.Load(); tc%2 != 0 {
		t.Errorf("transit counter = %d after Compact, want even", tc)
	}
	// The migrated item and the second chunk's items are all still here,
	// exactly once each.
	want := chunkSize + 1
	if got := b.Size(0); got != want {
		t.Fatalf("Size = %d after migration, want %d", got, want)
	}
	seen := make(map[string]bool)
	for i := 0; i < want; i++ {
		v, ok := b.Remove(0)
		if !ok {
			t.Fatalf("drain %d: bag empty early", i)
		}
		if seen[v] {
			t.Fatalf("item %q removed twice (migration duplicated it)", v)
		}
		seen[v] = true
	}
	if !seen[fmt.Sprintf("item-%d", chunkSize-1)] {
		t.Error("the migrated straggler was never removed")
	}
	if _, ok := b.Remove(0); ok {
		t.Error("bag should be empty after draining")
	}
}

// TestMigrationRacesRemovers races the owner's migrating Compact against a
// remover gunning for the same straggler cell (run with -race): exactly one
// of them wins the item, nothing is duplicated or lost, and the empty/size
// double collects never linearize against the half-moved item.
func TestMigrationRacesRemovers(t *testing.T) {
	iters := 200
	if testing.Short() {
		iters = 40
	}
	for it := 0; it < iters; it++ {
		b := New(2)
		for i := 0; i < chunkSize+1; i++ {
			b.Insert(0, fmt.Sprintf("item-%d", i))
		}
		head := b.logs[0].head.Load()
		for i := 0; i < chunkSize-1; i++ {
			claimFiat(t, head, i)
		}
		// Bag now holds the straggler and the one tail item.
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { // owner: migrating sweeps
			defer wg.Done()
			b.Compact(0)
			b.Compact(0)
		}()
		removed := make([]string, 0, 2)
		go func() { // remover: drain both items
			defer wg.Done()
			for len(removed) < 2 {
				if v, ok := b.Remove(1); ok {
					removed = append(removed, v)
				}
			}
		}()
		wg.Wait()
		if removed[0] == removed[1] {
			t.Fatalf("iter %d: item %q removed twice", it, removed[0])
		}
		if got := b.Size(0); got != 0 {
			t.Fatalf("iter %d: Size = %d after drain, want 0", it, got)
		}
		if tc := b.logs[0].transit.Load(); tc%2 != 0 {
			t.Fatalf("iter %d: transit counter = %d, want even", it, tc)
		}
		b.Compact(0)
		if st := b.Stats(0); st.LiveCells > chunkSize {
			t.Fatalf("iter %d: LiveCells = %d after drain+compact, want <= one tail chunk", it, st.LiveCells)
		}
	}
}

// TestDoubleCollectWaitsOutTransit pins the transit validation of a clean
// collect, which no native race reliably reaches: a collect that began while
// an owner's counter was odd is retried, so is one across which a counter
// moved, and the first one bracketed by two equal all-even reads stands.
func TestDoubleCollectWaitsOutTransit(t *testing.T) {
	for _, c := range []struct {
		name     string
		initial  int64
		during   map[int]int64 // collect number -> owner 1's counter after it
		collects int
	}{
		{"in flight at the first read", 1, map[int]int64{2: 2}, 3},
		{"whole migration inside a collect", 0, map[int]int64{1: 2}, 2},
	} {
		b := New(2)
		b.logs[1].transit.Store(c.initial)
		collects := 0
		b.doubleCollect(0, func([]int) (done, stands bool) {
			collects++
			if v, ok := c.during[collects]; ok {
				b.logs[1].transit.Store(v)
			}
			return false, true
		})
		if collects != c.collects {
			t.Errorf("%s: %d collects, want %d", c.name, collects, c.collects)
		}
	}
}

// TestChurnWithStragglersBoundedSpace drives churn that continually strands
// stragglers and checks migration keeps reachable space bounded: without
// it, every stranded chunk would stay live and space would grow with the
// churn total.
func TestChurnWithStragglersBoundedSpace(t *testing.T) {
	const rounds = 40
	b := New(1)
	next := 0
	for r := 0; r < rounds; r++ {
		// Fill two chunks, strand one straggler in the first by claiming
		// around it, drain the rest through Remove.
		for i := 0; i < 2*chunkSize; i++ {
			b.Insert(0, fmt.Sprintf("item-%d", next))
			next++
		}
		for i := 0; i < 2*chunkSize-1; i++ {
			if _, ok := b.Remove(0); !ok {
				t.Fatalf("round %d: bag empty early", r)
			}
		}
		// One item per round survives; migration must keep repacking the
		// survivors so live space tracks the survivor count, not rounds.
	}
	b.Compact(0)
	st := b.Stats(0)
	if got := b.Size(0); got != rounds {
		t.Fatalf("Size = %d, want %d survivors", got, rounds)
	}
	// rounds survivors fit in O(rounds/chunkSize) chunks once migrated;
	// allow generous slack for the open tail and not-yet-migrated chunks.
	limit := (rounds/chunkSize + 4) * chunkSize
	if st.LiveCells > limit {
		t.Errorf("LiveCells = %d, want <= %d (migration failed to repack stragglers)", st.LiveCells, limit)
	}
	if st.MigratedCells == 0 {
		t.Error("no cells migrated despite stranded survivors")
	}
}

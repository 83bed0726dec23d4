// Package bag implements a lock-free strongly linearizable bag (multiset)
// of strings, following the approach of Ellen and Sela, "Strong
// Linearizability without Compare&Swap: The Case of Bags" (2024): strong
// linearizability is achieved from primitives strictly weaker than
// compare-and-swap — atomic registers (here, the repo's own strongly
// linearizable snapshot, itself built from registers) plus per-item
// test-and-set bits (implemented with atomic swap, i.e. fetch-and-store).
// Like Ovens and Woelfel's snapshot, the point is that the strong guarantee
// composed randomized clients need does not require the strongest
// synchronization primitive.
//
// # Structure
//
// Each process p owns an append-only log of the items it inserted, stored
// in chunks whose cells carry the value and a test-and-set "claimed" bit.
// How many items p has published is component p of an n-component strongly
// linearizable snapshot (core.Snapshot[int]): Insert writes the value
// into the log and then publishes the new count with Update; Remove and
// Size learn about items only through its scans — View, the stored view
// uncopied, since they only read the counts — so a cell is read only after
// the Update that published it (the snapshot's internal synchronization
// makes the value write visible).
//
// # Linearization points (proof sketch)
//
//   - Insert linearizes at the linearization point of its snapshot Update.
//     The substrate is strongly linearizable, so this point is fixed once
//     reached and never revised.
//   - A successful Remove linearizes at its winning test-and-set — a single
//     atomic instruction on the item's claimed bit, fixed in the past the
//     moment it executes. The TAS arbitrates racing removers without CAS;
//     a won item was published (only scanned items are tried) and
//     unclaimed (the TAS returned the clear bit), so it is in the bag at
//     that instant.
//   - An empty Remove and a Size linearize inside a clean double collect:
//     Scan (view v), read the claimed bits of every item published in v,
//     Scan again, and require the second view to equal v. Publication
//     counts are monotone, so an unchanged view means no insert linearized
//     between the two scans; claimed bits are monotone (set once, never
//     cleared), so a bit read as set stays set. At the time τ of the last
//     bit read, therefore, the published items are exactly those of v, and
//     — for the empty case — every one of them was already claimed, i.e.
//     the bag was empty at τ. For Size, the count "published(v) − bits
//     read as set" is sandwiched between the bag's true size at the first
//     and last bit read; removals shrink the bag one item at a time and no
//     insert intervenes, so some instant in that window has exactly the
//     returned size. Both points lie in the operation's own execution
//     interval and depend only on events already in the past, which is
//     what prefix preservation requires.
//
// Because every operation's linearization point is fixed by its own past —
// never chosen retroactively when later operations complete — the
// composed implementation is strongly linearizable; strong linearizability
// is preserved under composition of strongly linearizable base objects
// (Golab, Higham, Woelfel 2011), which the tests in this package check
// mechanically with internal/lincheck over recorded histories.
//
// # Progress and space
//
// All operations are lock-free: a Remove retries only when another
// process's insert published or another remover's TAS won, and Size
// retries only when an insert published.
//
// Claims form a prefix of each log. Remove walks a log from its head and
// passes a cell only once that cell is claimed (its bit read set, or its TAS
// lost to another remover), so it test-and-sets a cell only after every
// cell below it was claimed; claimed bits are monotone, and Remove is the
// only claimer. In every log, then, the claimed cells are always a prefix of
// the published cells, and a non-tail chunk holding an unclaimed cell is the
// log's first such chunk, with only unclaimed items after it.
//
// Space is bounded by chunk recycling in the style of Ellen and Sela's
// Section on memory reclamation: a claimed cell is a tombstone, and the
// owner advances its log's head past the fully claimed chunks at the front
// (during Insert, at chunk boundaries), making their tombstones unreachable
// so the garbage collector reclaims them. By the prefix invariant that step
// stops at the first chunk not fully claimed and costs O(chunks freed).
// Every chunk carries the absolute index of its first cell, and walkers
// account the cells below the head as recycled — hence claimed — cells; the
// claimed bits of unlinked chunks were observed set before the unlink and
// bits are monotone, so the linearization arguments above are unchanged. A
// reader that raced the unlink and still holds a dead chunk just walks its
// claimed cells one last time. Right after the owner's recycling step, a
// log's reachable published cells are therefore its items plus at most
// chunkSize tombstones (those of its first chunk), and its chunks hold at
// most one more chunk of cells (the open tail): about the item count plus
// 2·chunkSize per process. Stats reports the reachable-cell counts and the
// package's churn tests pin the bound.
package bag

import (
	"slices"
	"sync/atomic"

	"slmem/internal/core"
	"slmem/internal/memory"
)

// chunkSize is the cell count of one log chunk.
const chunkSize = 64

// chunk is one block of a process's append-only item log. vals[i] is
// written by the owner before the cell is published through the snapshot
// and is immutable afterwards; claimed[i] is the item's test-and-set bit.
// base is the absolute index of vals[0] in the owner's insert sequence,
// fixed at allocation.
type chunk struct {
	base     int
	vals     [chunkSize]string
	claimed  [chunkSize]atomic.Uint32
	nclaimed atomic.Int32 // cells claimed so far; full chunks are recyclable
	next     atomic.Pointer[chunk]
}

// tas test-and-sets cell i via atomic swap (fetch-and-store — weaker than
// compare-and-swap), reporting whether this caller claimed it. The winner
// bumps nclaimed, so the owner's recycling step can recognize a fully
// claimed chunk in O(1).
func (c *chunk) tas(i int) bool {
	if c.claimed[i].Swap(1) == 0 {
		c.nclaimed.Add(1)
		return true
	}
	return false
}

// taken reports whether cell i has been claimed.
func (c *chunk) taken(i int) bool { return c.claimed[i].Load() != 0 }

// ownerLog is process p's append cursor. head is read by every walker and
// advanced by the owner's recycling step, so it is atomic; tail and count
// are per-process local state, used only by the current holder of pid p
// (the lease hand-off provides the happens-before edge, as for all per-pid
// state in this repo). Padded so adjacent per-process entries do not
// false-share.
type ownerLog struct {
	head     atomic.Pointer[chunk] // walkers start here
	tail     *chunk                // owner's append position
	count    int                   // items appended == published count after each Insert
	recycled atomic.Int64          // chunks unlinked over the log's lifetime
	_        [96]byte              // pad to two cache lines (4 words above)
}

// Bag is a lock-free strongly linearizable bag of strings for n processes.
// Every method takes the calling process id (0 <= pid < n); at most one
// goroutine may use a given pid at a time. Use Pooled for lease-per-call
// access.
type Bag struct {
	n    int
	pub  *core.Snapshot[int] // component p: #items p has published
	logs []ownerLog
}

// New constructs a bag for n processes, initially empty.
func New(n int) *Bag {
	var alloc memory.NativeAllocator
	b := &Bag{
		n:    n,
		pub:  core.New[int](&alloc, n, 0),
		logs: make([]ownerLog, n),
	}
	for p := range b.logs {
		c := &chunk{}
		b.logs[p].head.Store(c)
		b.logs[p].tail = c
	}
	return b
}

// N returns the number of processes the bag was constructed for.
func (b *Bag) N() int { return b.n }

// Insert adds x to the bag, as process pid. Wait-free given the snapshot's
// wait-free update: one cell write plus one Update, and at chunk boundaries
// the recycling step, O(chunks it frees).
func (b *Bag) Insert(pid int, x string) {
	l := &b.logs[pid]
	i := l.count % chunkSize
	if l.count > 0 && i == 0 {
		// The tail is full and published: link a fresh chunk past it, then
		// recycle the claimed chunks at the front of the log.
		next := &chunk{base: l.count}
		l.tail.next.Store(next)
		l.tail = next
		compact(l)
	}
	l.tail.vals[i] = x
	l.count++
	// Publication: the Update's linearization point is Insert's.
	b.pub.Update(pid, l.count)
}

// compact advances l's head past the fully claimed chunks at the front of
// the log, stopping at the tail or at the first chunk not fully claimed —
// the recycling step bounding tombstone growth — and returns how many
// chunks it unlinked. Claims form a prefix of the log (package comment), so
// no fully claimed chunk lies past that first one. Owner-only. A walker
// racing the step either already holds a dead chunk (and visits its claimed
// cells one last time through its untouched next pointer) or starts at the
// new head; both walks see the same claimed bits.
func compact(l *ownerLog) int {
	h, freed := l.head.Load(), 0
	// Non-tail chunks are complete and published (the owner fills a chunk
	// and publishes its last cell before linking a successor).
	for h != l.tail && h.nclaimed.Load() == chunkSize {
		h = h.next.Load()
		freed++
	}
	if freed > 0 {
		l.head.Store(h)
		l.recycled.Add(int64(freed))
	}
	return freed
}

// Compact runs pid's recycling step immediately, unlinking the fully
// claimed published chunks at the front of its log without waiting for the
// next chunk-boundary Insert. Like every method it runs as process pid and
// recycles only that process's log; an idle producer can call it after
// removers drain its items. Returns how many chunks it unlinked.
func (b *Bag) Compact(pid int) int { return compact(&b.logs[pid]) }

// walkPublished iterates the still-reachable published cells of process
// p's log below limit (an absolute index from a publication view), in index
// order, calling visit(c, i) for each. Cells in recycled chunks are
// skipped; they are claimed by construction, and the per-chunk base indexes
// let callers account them (skipped = limit - visited when every visited
// cell counts).
func (b *Bag) walkPublished(p int, limit int, visit func(c *chunk, i int) bool) (visited int) {
	for c := b.logs[p].head.Load(); c != nil && c.base < limit; c = c.next.Load() {
		end := limit - c.base
		if end > chunkSize {
			end = chunkSize
		}
		for i := 0; i < end; i++ {
			visited++
			if !visit(c, i) {
				return visited
			}
		}
	}
	return visited
}

// Remove takes some item out of the bag, as process pid. It returns
// (item, true) on success — linearized at the winning test-and-set — or
// ("", false) when the bag is observed empty: a clean double collect in
// which every published item was already claimed (cells recycled out of
// reach were observed claimed before their unlink, and claimed bits are
// monotone). It tries each log's cells lowest first and passes a cell only
// once it is claimed, which keeps each log's claims a prefix of it — the
// invariant the recycling bound rests on (package comment). Lock-free:
// every retry is caused by another process's insert publishing or another
// remover's test-and-set winning.
func (b *Bag) Remove(pid int) (string, bool) {
	var won *chunk
	wonIdx := 0
	b.doubleCollect(pid, func(view []int) (done, stands bool) {
		allClaimed := true
		for p := 0; p < b.n && won == nil; p++ {
			b.walkPublished(p, view[p], func(c *chunk, i int) bool {
				if c.taken(i) {
					return true
				}
				allClaimed = false
				if c.tas(i) {
					// Linearization point: this TAS. The item was published
					// (it is in view) and unclaimed an instant ago.
					won, wonIdx = c, i
					return false
				}
				return true
			})
		}
		return won != nil, allClaimed
	})
	if won != nil {
		return won.vals[wonIdx], true
	}
	// Empty case: at the last claimed-bit read, every item published then
	// (= view, unchanged through the second scan) was already claimed, so
	// the bag was empty at that instant.
	return "", false
}

// Size returns the number of items in the bag, as process pid: published
// inserts minus claimed items, observed in a clean double collect (see the
// package comment for where it linearizes). Cells no longer reachable
// (recycled chunks) count as claimed. Lock-free: it retries only when an
// insert publishes between the two scans.
func (b *Bag) Size(pid int) int {
	size := 0
	b.doubleCollect(pid, func(view []int) (done, stands bool) {
		// Published cells not visited were recycled, so claimed: the items
		// are the visited cells not yet claimed.
		size = 0
		for p := 0; p < b.n; p++ {
			b.walkPublished(p, view[p], func(c *chunk, i int) bool {
				if !c.taken(i) {
					size++
				}
				return true
			})
		}
		return false, true
	})
	return size
}

// doubleCollect runs collect as process pid over publication views until
// one run is clean: the view read after it equals the one it walked. Each
// retry walks the newer view. collect reports done when it has its answer
// without validation (Remove's winning test-and-set), which ends the loop
// at once, and otherwise whether its result stands if the run is clean.
func (b *Bag) doubleCollect(pid int, collect func(view []int) (done, stands bool)) {
	view := b.pub.View(pid)
	for {
		done, stands := collect(view)
		if done {
			return
		}
		view2 := b.pub.View(pid)
		if stands && slices.Equal(view, view2) {
			return
		}
		view = view2
	}
}

// BagStats describes a bag's space at one instant, as observed by pid:
// what has been published, what is still reachable, and what recycling has
// reclaimed. LiveCells-LiveClaimed is the item count; LiveClaimed is the
// tombstones not yet recycled, at most chunkSize per process right after
// its owner's recycling step (package comment).
type BagStats struct {
	// Published is the total number of inserts published, ever.
	Published int
	// LiveChunks is the number of reachable chunks holding published cells.
	LiveChunks int
	// LiveCells is the number of reachable published cells.
	LiveCells int
	// LiveClaimed is how many reachable published cells are claimed
	// (tombstones awaiting their chunk's recycling).
	LiveClaimed int
	// RecycledChunks is how many fully claimed chunks have been unlinked
	// over the bag's lifetime (RecycledChunks*chunkSize cells reclaimed).
	RecycledChunks int
	// MigratedCells is always 0: claims form a prefix of each log, so no
	// cell is ever moved. It is kept only because benchmarks/matrix reads
	// it (bag.migrated_cells).
	MigratedCells int
}

// Stats reports the bag's space counters, as process pid. One scan plus a
// walk of the reachable chunks; counters are monotone except the Live*
// fields, which can shrink as recycling runs.
func (b *Bag) Stats(pid int) BagStats {
	view := b.pub.View(pid)
	var st BagStats
	for p := 0; p < b.n; p++ {
		st.Published += view[p]
		st.RecycledChunks += int(b.logs[p].recycled.Load())
		lastChunk := (*chunk)(nil)
		st.LiveCells += b.walkPublished(p, view[p], func(c *chunk, i int) bool {
			if c != lastChunk {
				lastChunk = c
				st.LiveChunks++
			}
			if c.taken(i) {
				st.LiveClaimed++
			}
			return true
		})
	}
	return st
}

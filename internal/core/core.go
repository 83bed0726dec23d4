// Package core implements the paper's primary contribution: the first
// bounded-space lock-free strongly linearizable single-writer snapshot
// (Section 4, Algorithm 3), its sequence-numbered analysis variant
// (Algorithm 4), and the derived strongly linearizable counter and
// max-register of Section 4.5.
//
// The construction composes two objects:
//
//   - S, any linearizable single-writer snapshot (internal/snapshot), which
//     always holds the most recent state; and
//   - R, a strongly linearizable ABA-detecting register (internal/aba)
//     holding a recently observed view of S.
//
// SLupdate(p, x) updates S, scans it, and publishes the scanned view to R.
// SLscan repeats [R.DRead; S.scan; R.DRead] until all three agree and R was
// quiet, helping laggards by republishing its scan of S whenever it observes
// disagreement. Every SLscan linearizes at its final shared step and every
// SLupdate linearizes when some view containing it reaches R (or at its own
// R.DWrite), which makes the linearization order prefix-preserving
// (Theorem 25). Lock-freedom and the O(s + n³u) total-work bound are
// Theorem 32.
//
// Those base operations are all an operation does to shared memory, and the
// local work around them is kept to one comparison and at most one copy. A
// scan of S is the calling process's buffer inside S (see internal/snapshot);
// a view written to R is never written again. So a view is copied exactly
// where it is published to R (SLupdate's line 45, SLscan's helping line 51)
// or returned to a caller (Scan), and two views read from R that share their
// backing array are equal without being compared — which is how line 50's
// test of s1 against s2 is almost always decided. Its test of l against s2
// is decided by S's version when nothing moved: each process remembers the
// stored view it last found equal to S's scan and that scan's version (see
// slScan). View is Scan without the
// copy: the readers that only fold a view (Counter.Read, MaxRegister.MaxRead,
// the bag, the universal object's root scan) allocate nothing.
package core

import (
	"fmt"
	"slices"
	"sync/atomic"

	"slmem/internal/aba"
	"slmem/internal/memory"
	"slmem/internal/snapshot"
)

// ABARegister is the interface of the ABA-detecting register R. It is
// satisfied by *aba.Strong (the strongly linearizable implementation the
// construction needs for Theorem 2); tests may inject doubles.
type ABARegister[V any] interface {
	DWrite(p int, v V)
	DRead(q int) (V, bool)
}

// Stats counts base-object operations, supporting the Theorem 32 claims
// (E3/E4/E8 of the claim index in docs/ARCHITECTURE.md). A Stats value is a reading: Snapshot.Stats
// sums the per-process counters into a fresh one on each call, so a caller
// that wants later counts asks again.
type Stats struct {
	// SUpdates, SScans, RDWrites, RDReads count operations on S and R.
	SUpdates atomic.Int64
	SScans   atomic.Int64
	RDWrites atomic.Int64
	RDReads  atomic.Int64
	// OpsInUpdate and OpsInScan partition the above by whether they were
	// issued during an SLupdate or an SLscan (Theorem 32 bounds the latter).
	OpsInUpdate atomic.Int64
	OpsInScan   atomic.Int64
	// MaxScanIters is the maximum number of main-loop iterations any single
	// SLscan performed (lock-freedom experiments).
	MaxScanIters atomic.Int64
}

// TotalScanOps returns the number of base-object operations issued during
// SLscan operations — the quantity Theorem 32(b) bounds by O(s + n³u).
func (st *Stats) TotalScanOps() int64 { return st.OpsInScan.Load() }

// pidState is one process's share of the counters, written by the goroutine
// driving that pid only and padded to its own cache lines: indexed by pid,
// never shared, so that counting does not turn a read-only scan into a
// writer of a line every process writes. Single-writer also means a count
// goes up by a load and a store, no read-modify-write. What Stats reports
// follows from three counts, because the algorithm's operations come in fixed
// bundles: an SLupdate is one S.update, one S.scan and one R.DWrite; a scan
// iteration is two R.DReads and one S.scan; a helping write is one R.DWrite.
//
// local is the process's state in the object built on the snapshot — the
// increments a Counter's process has made, the largest value a MaxRegister's
// process has written, a SeqSnapshot's process's sequence number — kept here
// because it is written on every update and belongs on the writer's own line.
//
// agreed and agreedVersion are line 50's memo (see agrees): the stored view
// of R this process last found equal to its scan of S, and that scan's
// version.
type pidState[C any] struct {
	updates       atomic.Int64 // SLupdates completed
	scanIters     atomic.Int64 // SLscan main-loop iterations
	helps         atomic.Int64 // R.DWrites issued by SLscans (lines 50-52)
	maxIters      atomic.Int64 // most iterations in one SLscan
	local         uint64
	agreed        []C
	agreedVersion uint64
	_             [56]byte
}

// bump adds one to a counter only this process writes.
func bump(c *atomic.Int64) { c.Store(c.Load() + 1) }

// scanned records a completed SLscan of iters iterations.
func (c *pidState[C]) scanned(iters int64) {
	if iters > c.maxIters.Load() {
		c.maxIters.Store(iters) // single writer: no other store can intervene
	}
}

// sumStats folds the per-process counters into one reading.
func sumStats[C any](per []pidState[C]) *Stats {
	var updates, iters, helps, maxIters int64
	for p := range per {
		updates += per[p].updates.Load()
		iters += per[p].scanIters.Load()
		helps += per[p].helps.Load()
		maxIters = max(maxIters, per[p].maxIters.Load())
	}
	st := new(Stats)
	st.SUpdates.Store(updates)
	st.SScans.Store(updates + iters)
	st.RDWrites.Store(updates + helps)
	st.RDReads.Store(2 * iters)
	st.OpsInUpdate.Store(3 * updates)
	st.OpsInScan.Store(3*iters + helps)
	st.MaxScanIters.Store(maxIters)
	return st
}

// sameView reports whether a and b are one stored view: same backing array,
// same length. A view is immutable once it is written to R, so one stored
// view read twice is equal to itself without looking at its contents.
func sameView[C any](a, b []C) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// slUpdate is SLupdate after its S.update (Algorithm 3, lines 44-45): scan S
// and publish a copy of the scan — the scan itself is p's buffer inside S.
func slUpdate[C any](p int, s snapshot.Snapshot[C], r ABARegister[[]C], st *pidState[C]) {
	r.DWrite(p, slices.Clone(s.Scan(p)))
	bump(&st.updates)
}

// agrees decides line 50's l = s2, for a scan l of S of the given version,
// named or not. A version names one linearized state of S — every Update
// adds exactly 1 to it — so a scan of the version of the remembered one saw
// the same state, and it equals the stored view that one was found equal
// to: if s2 is that view, they agree without a comparison. Otherwise l is
// compared with s2 by value, and a named scan that agrees becomes the memo.
// R's view is never the memo's key alone: an Update can move S and leave R
// where it was, and the scanner that finds it so must help.
func (c *pidState[C]) agrees(l []C, version uint64, named bool, s2 []C, eq func(a, b []C) bool) bool {
	if named && version == c.agreedVersion && sameView(s2, c.agreed) {
		return true
	}
	if !eq(l, s2) {
		return false
	}
	if named {
		c.agreed, c.agreedVersion = s2, version
	}
	return true
}

// slScan is SLscan (Algorithm 3, lines 46-54; Algorithm 4, lines 59-67, which
// differs only in the equality eq of line 63). It returns the view as R
// stores it: shared with every other reader, never to be written. Lock-free:
// the loop repeats only when a concurrent Update or helping write landed.
func slScan[C any](p int, s snapshot.Snapshot[C], r ABARegister[[]C], st *pidState[C], eq func(a, b []C) bool) []C {
	var iters int64
	for { // line 46
		iters++
		bump(&st.scanIters)
		s1, _ := r.DRead(p)                     // line 47
		l, version, named := s.ScanVersioned(p) // line 48: p's buffer inside S
		s2, c2 := r.DRead(p)                    // line 49

		// Line 50, s1 = l = s2: s1 and s2 are stored views and almost always
		// the same one; l is decided by S's version when neither S nor R
		// moved since this process last compared, and compared once if not.
		if !(sameView(s1, s2) || eq(s1, s2)) || !st.agrees(l, version, named, s2, eq) {
			r.DWrite(p, slices.Clone(l)) // lines 50-52: help pending updates by publishing l
			bump(&st.helps)
			continue
		}
		if c2 { // line 53: R changed during the read sequence; retry
			continue
		}
		st.scanned(iters)
		return s2 // line 54
	}
}

// Snapshot is the strongly linearizable snapshot of Algorithm 3. Component p
// is writable only by process p. Views are vectors of V.
//
// Methods take the calling process id; at most one goroutine may drive a
// given pid at a time.
type Snapshot[V comparable] struct {
	n    int
	s    snapshot.Snapshot[V]
	r    ABARegister[[]V]
	pids []pidState[V]
}

// New constructs the snapshot for n processes over comparable values using
// the default substrates: a lock-free double-collect linearizable snapshot
// for S and the strongly linearizable ABA-detecting register (Algorithm 2)
// for R. All components start as initial (the paper's ⊥).
func New[V comparable](alloc memory.Allocator, n int, initial V) *Snapshot[V] {
	checkN(n)
	return NewOver[V](alloc, n, initial, snapshot.NewDoubleCollect[V](alloc, n, initial))
}

// NewOver is New over an explicit substrate s, which must hold initial in
// every component.
func NewOver[V comparable](alloc memory.Allocator, n int, initial V, s snapshot.Snapshot[V]) *Snapshot[V] {
	checkN(n)
	initView := slices.Repeat([]V{initial}, n)
	return NewWith[V](n, s, aba.NewStrongFunc(alloc, n, initView, viewsEqual[V]))
}

// NewWith constructs the snapshot over explicit substrates. The composition
// is strongly linearizable iff r is (strong linearizability is composable;
// paper Sections 1.1 and 4.3).
func NewWith[V comparable](n int, s snapshot.Snapshot[V], r ABARegister[[]V]) *Snapshot[V] {
	checkN(n)
	return &Snapshot[V]{n: n, s: s, r: r, pids: make([]pidState[V], n)}
}

// checkN refuses an object for fewer than one process, before any substrate
// is built: a constructor panics with this package's message, not a
// substrate's.
func checkN(n int) {
	if n < 1 {
		panic(fmt.Sprintf("core: n = %d, need at least 1 process", n))
	}
}

// Stats returns a reading of the base-object operation counters.
func (o *Snapshot[V]) Stats() *Stats { return sumStats(o.pids) }

// N returns the number of components.
func (o *Snapshot[V]) N() int { return o.n }

// viewsEqual is the equality of views, and the one R is given for its values:
// one stored view is equal to itself (sameView), anything else is compared
// component by component.
func viewsEqual[V comparable](a, b []V) bool {
	return sameView(a, b) || slices.Equal(a, b)
}

// Update sets component p to x (Algorithm 3, SLupdate, lines 43-45):
// exactly one S.update, one S.scan, and one R.DWrite (Theorem 32a).
func (o *Snapshot[V]) Update(p int, x V) {
	o.s.Update(p, x) // line 43
	slUpdate(p, o.s, o.r, &o.pids[p])
}

// Scan returns a consistent view of all components (Algorithm 3, SLscan,
// lines 46-54) as a copy the caller owns.
func (o *Snapshot[V]) Scan(p int) []V { return slices.Clone(o.View(p)) }

// View is Scan without the copy: the view as R stores it, shared with every
// process that reads it. The caller must not write to it; it may keep it.
func (o *Snapshot[V]) View(p int) []V {
	return slScan(p, o.s, o.r, &o.pids[p], viewsEqual[V])
}

// --- Algorithm 4: sequence-numbered variant ------------------------------------

// SeqCell is a component of the Algorithm 4 snapshot: a value paired with
// the writer's per-process sequence number.
type SeqCell[V comparable] struct {
	Val V
	Seq uint64
}

// SeqSnapshot is Algorithm 4: Algorithm 3 with a sequence number attached to
// every update. The paper uses it for the complexity analysis (its seq
// function makes views totally ordered); it performs exactly the same
// shared-memory operations as Algorithm 3 but needs unbounded sequence
// numbers.
type SeqSnapshot[V comparable] struct {
	n    int
	s    snapshot.Snapshot[SeqCell[V]]
	r    ABARegister[[]SeqCell[V]]
	pids []pidState[SeqCell[V]] // local is the process's sequence number
}

// NewSeq constructs Algorithm 4 with the default substrates.
func NewSeq[V comparable](alloc memory.Allocator, n int, initial V) *SeqSnapshot[V] {
	checkN(n)
	s := snapshot.NewDoubleCollect[SeqCell[V]](alloc, n, SeqCell[V]{Val: initial})
	initView := make([]SeqCell[V], n)
	for i := range initView {
		initView[i] = SeqCell[V]{Val: initial}
	}
	r := aba.NewStrongFunc(alloc, n, initView, viewsEqual[SeqCell[V]])
	return &SeqSnapshot[V]{n: n, s: s, r: r, pids: make([]pidState[SeqCell[V]], n)}
}

// Stats returns a reading of the base-object operation counters.
func (o *SeqSnapshot[V]) Stats() *Stats { return sumStats(o.pids) }

// Vals projects a sequence-numbered view onto its values (the paper's
// vals(X)).
func Vals[V comparable](view []SeqCell[V]) []V {
	out := make([]V, len(view))
	for i, c := range view {
		out[i] = c.Val
	}
	return out
}

// Seq sums the sequence numbers of a view (the paper's seq(X)); it is
// non-decreasing over the linearization order of S's scans (Observation 26).
func Seq[V comparable](view []SeqCell[V]) uint64 {
	var sum uint64
	for _, c := range view {
		sum += c.Seq
	}
	return sum
}

func valsEqual[V comparable](a, b []SeqCell[V]) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Val != b[i].Val {
			return false
		}
	}
	return true
}

// Update sets component p to x (Algorithm 4, lines 55-58).
func (o *SeqSnapshot[V]) Update(p int, x V) {
	st := &o.pids[p]
	st.local++                                       // line 55
	o.s.Update(p, SeqCell[V]{Val: x, Seq: st.local}) // line 56
	slUpdate(p, o.s, o.r, st)                        // lines 57-58
}

// Scan returns a consistent view of component values (Algorithm 4, lines
// 59-67). Agreement is on values only (the paper's vals), matching line 63.
func (o *SeqSnapshot[V]) Scan(p int) []V {
	return Vals(slScan(p, o.s, o.r, &o.pids[p], valsEqual[V])) // line 67
}

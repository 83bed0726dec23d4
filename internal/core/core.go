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
package core

import (
	"fmt"
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

// Stats counts base-object operations, supporting the Theorem 32 experiments
// (E3/E4/E8 in DESIGN.md). A Stats value is a reading: Snapshot.Stats sums
// the per-process counters into a fresh one on each call, so a caller that
// wants later counts asks again.
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

// pidStats is one process's share of the counters, written by the goroutine
// driving that pid only and padded to its own cache lines: indexed by pid,
// never shared, so that counting does not turn a read-only scan into a
// writer of a line every process writes. What Stats reports follows from
// three counts, because the algorithm's operations come in fixed bundles: an
// SLupdate is one S.update, one S.scan and one R.DWrite; a scan iteration is
// two R.DReads and one S.scan; a helping write is one R.DWrite.
type pidStats struct {
	updates   atomic.Int64 // SLupdates completed
	scanIters atomic.Int64 // SLscan main-loop iterations
	helps     atomic.Int64 // R.DWrites issued by SLscans (lines 50-52)
	maxIters  atomic.Int64 // most iterations in one SLscan
	_         [96]byte
}

// scanned records a completed SLscan of iters iterations.
func (c *pidStats) scanned(iters int64) {
	if iters > c.maxIters.Load() {
		c.maxIters.Store(iters) // single writer: no other store can intervene
	}
}

// sumStats folds the per-process counters into one reading.
func sumStats(per []pidStats) *Stats {
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

// Snapshot is the strongly linearizable snapshot of Algorithm 3. Component p
// is writable only by process p. Views are vectors of V.
//
// Methods take the calling process id; at most one goroutine may drive a
// given pid at a time.
type Snapshot[V comparable] struct {
	n     int
	s     snapshot.Snapshot[V]
	r     ABARegister[[]V]
	stats []pidStats
}

// New constructs the snapshot for n processes over comparable values using
// the default substrates: a lock-free double-collect linearizable snapshot
// for S and the strongly linearizable ABA-detecting register (Algorithm 2)
// for R. All components start as initial (the paper's ⊥).
func New[V comparable](alloc memory.Allocator, n int, initial V) *Snapshot[V] {
	s := snapshot.NewDoubleCollect[V](alloc, n, initial)
	initView := make([]V, n)
	for i := range initView {
		initView[i] = initial
	}
	r := aba.NewStrongFunc(alloc, n, initView, viewsEqual[V])
	return NewWith[V](n, s, r)
}

// NewWith constructs the snapshot over explicit substrates. The composition
// is strongly linearizable iff r is (strong linearizability is composable;
// paper Sections 1.1 and 4.3).
func NewWith[V comparable](n int, s snapshot.Snapshot[V], r ABARegister[[]V]) *Snapshot[V] {
	if n < 1 {
		panic(fmt.Sprintf("core: n = %d, need at least 1 process", n))
	}
	return &Snapshot[V]{n: n, s: s, r: r, stats: make([]pidStats, n)}
}

// Stats returns a reading of the base-object operation counters.
func (o *Snapshot[V]) Stats() *Stats { return sumStats(o.stats) }

// N returns the number of components.
func (o *Snapshot[V]) N() int { return o.n }

func viewsEqual[V comparable](a, b []V) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Update sets component p to x (Algorithm 3, SLupdate, lines 43-45):
// exactly one S.update, one S.scan, and one R.DWrite (Theorem 32a).
func (o *Snapshot[V]) Update(p int, x V) {
	o.s.Update(p, x) // line 43
	s := o.s.Scan(p) // line 44
	o.r.DWrite(p, s) // line 45
	o.stats[p].updates.Add(1)
}

// Scan returns a consistent view of all components (Algorithm 3, SLscan,
// lines 46-54). Lock-free: the loop repeats only when a concurrent Update
// or helping write landed.
func (o *Snapshot[V]) Scan(p int) []V {
	st := &o.stats[p]
	var iters int64
	for { // line 46
		iters++
		st.scanIters.Add(1)
		s1, _ := o.r.DRead(p)  // line 47
		l := o.s.Scan(p)       // line 48
		s2, c2 := o.r.DRead(p) // line 49

		agree := viewsEqual(s1, l) && viewsEqual(l, s2)
		if !agree { // lines 50-52: help pending updates by publishing l
			o.r.DWrite(p, l)
			st.helps.Add(1)
			continue
		}
		if c2 { // line 53: R changed during the read sequence; retry
			continue
		}
		st.scanned(iters)
		out := make([]V, len(s2))
		copy(out, s2) // copy at the boundary; R's stored view is shared
		return out    // line 54
	}
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
	n     int
	s     snapshot.Snapshot[SeqCell[V]]
	r     ABARegister[[]SeqCell[V]]
	seq   []uint64
	stats []pidStats
}

// NewSeq constructs Algorithm 4 with the default substrates.
func NewSeq[V comparable](alloc memory.Allocator, n int, initial V) *SeqSnapshot[V] {
	s := snapshot.NewDoubleCollect[SeqCell[V]](alloc, n, SeqCell[V]{Val: initial})
	initView := make([]SeqCell[V], n)
	for i := range initView {
		initView[i] = SeqCell[V]{Val: initial}
	}
	r := aba.NewStrongFunc(alloc, n, initView, viewsEqual[SeqCell[V]])
	if n < 1 {
		panic(fmt.Sprintf("core: n = %d, need at least 1 process", n))
	}
	return &SeqSnapshot[V]{
		n:     n,
		s:     s,
		r:     r,
		seq:   make([]uint64, n),
		stats: make([]pidStats, n),
	}
}

// Stats returns a reading of the base-object operation counters.
func (o *SeqSnapshot[V]) Stats() *Stats { return sumStats(o.stats) }

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
	o.seq[p]++                                       // line 55
	o.s.Update(p, SeqCell[V]{Val: x, Seq: o.seq[p]}) // line 56
	s := o.s.Scan(p)                                 // line 57
	o.r.DWrite(p, s)                                 // line 58
	o.stats[p].updates.Add(1)
}

// Scan returns a consistent view of component values (Algorithm 4, lines
// 59-67). Agreement is on values only (the paper's vals), matching line 63.
func (o *SeqSnapshot[V]) Scan(p int) []V {
	st := &o.stats[p]
	var iters int64
	for { // line 59
		iters++
		st.scanIters.Add(1)
		s1, _ := o.r.DRead(p)  // line 60
		l := o.s.Scan(p)       // line 61
		s2, c2 := o.r.DRead(p) // line 62

		agree := valsEqual(s1, l) && valsEqual(l, s2)
		if !agree { // lines 63-65
			o.r.DWrite(p, l)
			st.helps.Add(1)
			continue
		}
		if c2 { // line 66
			continue
		}
		st.scanned(iters)
		return Vals(s2) // line 67
	}
}

// Package versioned implements the Denysyuk–Woelfel lock-free strongly
// linearizable construction for versioned objects (paper Section 4.1) —
// the unbounded-space predecessor that the paper's Algorithm 3 improves on.
//
// A versioned object pairs each state with a version number that increases
// with every update. The construction composes:
//
//   - a versioned linearizable snapshot S (the double-collect snapshot with
//     per-component sequence numbers; its version is their sum), and
//   - an augmented strongly linearizable max-register R storing
//     (version, state) pairs.
//
// Update(x): S.update(x); read (state, v) from S; R.maxWrite(v, state).
// Read(): R.maxRead() and return the payload state.
//
// Because the version grows forever, R needs unboundedly many registers —
// this growth is measurable through the allocator and is the baseline side
// of experiment E5 (bounded vs. unbounded space), contrasted with
// internal/core's O(n)-register snapshot.
package versioned

import (
	"fmt"
	"slices"

	"slmem/internal/maxreg"
	"slmem/internal/memory"
	"slmem/internal/snapshot"
)

// Snapshot is a strongly linearizable single-writer snapshot built with the
// Denysyuk–Woelfel versioned-object construction. It is lock-free but uses
// space that grows with the number of updates.
//
// Methods take the calling process id.
type Snapshot[V any] struct {
	n int
	s *snapshot.DoubleCollect[V]
	r *maxreg.Bounded[[]V]
}

// New constructs the versioned snapshot for n processes, with every
// component initialized to initial.
func New[V any](alloc memory.Allocator, n int, initial V) *Snapshot[V] {
	if n < 1 {
		panic(fmt.Sprintf("versioned: n = %d, need at least 1 process", n))
	}
	initView := make([]V, n)
	for i := range initView {
		initView[i] = initial
	}
	return &Snapshot[V]{
		n: n,
		s: snapshot.NewDoubleCollect[V](alloc, n, initial),
		r: maxreg.NewUnbounded[[]V](alloc, initView),
	}
}

// N returns the number of components.
func (o *Snapshot[V]) N() int { return o.n }

// Update sets component p to x, as process p: an S.update, a versioned
// S.scan, and an R.maxWrite of (version, state).
func (o *Snapshot[V]) Update(p int, x V) {
	o.s.Update(p, x)
	state, version := o.s.ScanVersioned(p)
	// The max-register ignores stale versions; equal versions denote equal
	// states (two scans with the same version saw the same writes). The
	// state is p's scan buffer, so what is published is a copy.
	if err := o.r.MaxWrite(p, version, slices.Clone(state)); err != nil {
		// Unreachable: versions are sums of uint64 sequence numbers and the
		// register spans the full uint64 range.
		panic(fmt.Sprintf("versioned: %v", err))
	}
}

// Scan returns the state attached to the highest version in R, as process p.
func (o *Snapshot[V]) Scan(p int) []V {
	_, state := o.r.MaxRead(p)
	out := make([]V, len(state))
	copy(out, state)
	return out
}

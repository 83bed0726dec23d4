// Package snapshot provides linearizable single-writer snapshot objects
// built from atomic registers. These are the substrate "S" of the paper's
// Algorithm 3/4 (Section 4.3), which treats S as a black-box linearizable
// snapshot ("any lock-free or wait-free linearizable implementation").
//
// Two classic implementations are provided:
//
//   - DoubleCollect: the lock-free clean-double-collect algorithm of Afek,
//     Attiya, Dolev, Gafni, Merritt, and Shavit. A scan repeatedly collects
//     all components until two consecutive collects agree.
//   - Afek: the wait-free variant with embedded scans (helping): an updater
//     first performs a scan and publishes the view with its write, and a
//     scanner that observes some process move twice borrows that process's
//     published view.
//
// The paper uses the bounded Attiya–Rachman snapshot for concrete space
// bounds; both algorithms here are behaviourally interchangeable with it as
// the substrate.
//
// Ownership of views: a Scan allocates nothing and copies nothing. Each
// process keeps one scan buffer per object — its latest collect, as a
// pointer-free vector of sequence numbers (or handshake bits) beside the
// vector of values — and Scan returns that buffer, or the immutable view an
// updater embedded when the scan borrows one. The result is the object's
// storage: valid until the process's next call, never to be written. A view
// is copied exactly where it outlives that — where an updater embeds it in a
// register (Afek, Handshake), and in the callers that publish or return it
// (internal/core, internal/versioned).
//
// A Versioned wrapper exposes the per-scan version number (the sum of the
// per-component sequence numbers) needed by the Denysyuk–Woelfel unbounded
// construction of Section 4.1 (internal/versioned).
package snapshot

import (
	"fmt"
	"slices"

	"slmem/internal/memory"
)

// Snapshot is a linearizable single-writer snapshot object: component p is
// writable only by process p, and Scan returns a consistent view of all
// components.
type Snapshot[V any] interface {
	// Update sets component pid to x.
	Update(pid int, x V)
	// Scan returns the component vector in storage the object owns — the
	// pid's scan buffer, or a view an updater embedded with its write. The
	// caller may read it until its next call on the object as pid and must
	// not write to it; to publish, return or keep a view, copy it.
	Scan(pid int) []V
}

// dcell is a snapshot component: the value and the writer's sequence number.
type dcell[V any] struct {
	val V
	seq uint64
}

// DoubleCollect is the lock-free clean-double-collect snapshot.
type DoubleCollect[V any] struct {
	n     int
	regs  []memory.Reg[dcell[V]]
	local []dcLocal[V]
}

// dcLocal is what one process keeps between operations: its scan buffer —
// the sequence numbers and values of its latest collect — and its writer
// sequence number. It is indexed by pid and padded, never pooled and never
// shared — a pid is driven by one goroutine at a time, so none of it needs
// synchronising. vals is what Scan hands out.
type dcLocal[V any] struct {
	seqs []uint64
	vals []V
	seq  uint64
	_    [72]byte // 56 bytes above: two cache lines a process
}

var _ Snapshot[int] = (*DoubleCollect[int])(nil)

// NewDoubleCollect constructs a lock-free snapshot with n components, all
// initialized to initial.
func NewDoubleCollect[V any](alloc memory.Allocator, n int, initial V) *DoubleCollect[V] {
	if n < 1 {
		panic(fmt.Sprintf("snapshot: n = %d, need at least 1 process", n))
	}
	s := &DoubleCollect[V]{
		n:     n,
		regs:  make([]memory.Reg[dcell[V]], n),
		local: make([]dcLocal[V], n),
	}
	for i := range s.regs {
		s.regs[i] = memory.NewReg(alloc, fmt.Sprintf("snap.R[%d]", i), dcell[V]{val: initial})
		s.local[i].seqs, s.local[i].vals = make([]uint64, n), make([]V, n)
	}
	return s
}

// Update implements Snapshot: one shared write.
func (s *DoubleCollect[V]) Update(pid int, x V) {
	l := &s.local[pid]
	l.seq++
	s.regs[pid].Write(pid, dcell[V]{val: x, seq: l.seq})
}

// collect reads every component until two consecutive collects agree (a
// "clean double collect") and leaves the agreed collect in pid's buffer.
// Every collect reads all n registers in order; after the first, only a
// component whose sequence number moved is rewritten — sequence numbers
// identify writes, so an unchanged number means an unchanged value — and a
// collect that rewrote nothing was clean. Lock-free: a collect that was not
// clean means a concurrent Update completed.
func (s *DoubleCollect[V]) collect(pid int) *dcLocal[V] {
	l := &s.local[pid]
	seqs, vals := l.seqs, l.vals
	for i := range s.regs {
		c := s.regs[i].Read(pid)
		seqs[i], vals[i] = c.seq, c.val
	}
	for clean := false; !clean; {
		clean = true
		for i := range s.regs {
			if c := s.regs[i].Read(pid); c.seq != seqs[i] {
				seqs[i], vals[i] = c.seq, c.val
				clean = false
			}
		}
	}
	return l
}

// Scan implements Snapshot.
func (s *DoubleCollect[V]) Scan(pid int) []V { return s.collect(pid).vals }

// ScanVersioned is Scan returning also the view's version: the sum of all
// component sequence numbers, which increases with every Update (the
// versioned-object interface of paper Section 4.1).
func (s *DoubleCollect[V]) ScanVersioned(pid int) ([]V, uint64) {
	l := s.collect(pid)
	var version uint64
	for _, seq := range l.seqs {
		version += seq
	}
	return l.vals, version
}

// acell is an Afek-snapshot component: value, sequence number, and the view
// the updater embedded with its write.
type acell[V any] struct {
	val  V
	seq  uint64
	view []V // immutable once written
}

// Afek is the wait-free snapshot with embedded scans.
type Afek[V any] struct {
	n     int
	regs  []memory.Reg[acell[V]]
	local []afekLocal[V]
}

// afekLocal is one process's state between operations, indexed by pid and
// padded like dcLocal: its scan buffer, the moved flags and the writer
// sequence number.
type afekLocal[V any] struct {
	seqs  []uint64
	vals  []V
	moved []bool
	seq   uint64
	_     [48]byte // 80 bytes above: two cache lines a process
}

var _ Snapshot[int] = (*Afek[int])(nil)

// NewAfek constructs a wait-free snapshot with n components, all initialized
// to initial.
func NewAfek[V any](alloc memory.Allocator, n int, initial V) *Afek[V] {
	if n < 1 {
		panic(fmt.Sprintf("snapshot: n = %d, need at least 1 process", n))
	}
	s := &Afek[V]{
		n:     n,
		regs:  make([]memory.Reg[acell[V]], n),
		local: make([]afekLocal[V], n),
	}
	for i := range s.regs {
		s.regs[i] = memory.NewReg(alloc, fmt.Sprintf("snap.A[%d]", i), acell[V]{val: initial})
		l := &s.local[i]
		l.seqs, l.vals, l.moved = make([]uint64, n), make([]V, n), make([]bool, n)
	}
	return s
}

// Update implements Snapshot: an embedded Scan followed by one write that
// publishes the new value together with a copy of the scanned view.
func (s *Afek[V]) Update(pid int, x V) {
	view := slices.Clone(s.Scan(pid))
	l := &s.local[pid]
	l.seq++
	s.regs[pid].Write(pid, acell[V]{val: x, seq: l.seq, view: view})
}

// Scan implements Snapshot. Wait-free: after at most n+1 collect pairs some
// process has been seen to move twice, and its embedded view (which is a
// valid snapshot taken within our interval) is borrowed. Collects proceed as
// in DoubleCollect; a collect runs to its end before its moves are judged.
func (s *Afek[V]) Scan(pid int) []V {
	l := &s.local[pid]
	seqs, vals, moved := l.seqs, l.vals, l.moved
	clear(moved)
	for i := range s.regs {
		c := s.regs[i].Read(pid)
		seqs[i], vals[i] = c.seq, c.val
	}
	for {
		var borrowed []V
		clean := true
		for q := range s.regs {
			c := s.regs[q].Read(pid)
			if c.seq == seqs[q] {
				continue
			}
			seqs[q], vals[q] = c.seq, c.val
			clean = false
			if moved[q] && borrowed == nil {
				// q performed two Updates during this Scan; its second
				// embedded view was taken entirely inside our interval.
				borrowed = c.view
			}
			moved[q] = true
		}
		if borrowed != nil {
			return borrowed
		}
		if clean {
			return vals
		}
	}
}

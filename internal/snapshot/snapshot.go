// Package snapshot provides linearizable single-writer snapshot objects
// built from atomic registers. These are the substrate "S" of the paper's
// Algorithm 3/4 (Section 4.3), which treats S as a black-box linearizable
// snapshot ("any lock-free or wait-free linearizable implementation").
//
// Two classic implementations are provided:
//
//   - DoubleCollect: the lock-free clean-double-collect algorithm of Afek,
//     Attiya, Dolev, Gafni, Merritt, and Shavit. A scan repeatedly collects
//     the components until two consecutive collects agree. It collects only
//     as wide as the processes that have written: see DoubleCollect.
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
	"math/bits"
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

// DoubleCollect is the lock-free clean-double-collect snapshot. A collect
// reads only the components below a width W: 1 plus the highest pid that has
// written, rounded up to a power of two (or n). A component no process has
// written is still initial, and a scan need not read it to know that.
//
// W is kept in ⌈log₂ n⌉ width flags, registers only ever written true: flag j
// says some pid ≥ 2^j has written. Before its first Update, pid p raises flags
// 0 … bits.Len(p)−1. Each process keeps a width hint, starting at 1, and
// collects the components below it. Between two collects a scan reads the
// flags from the bottom up to the first unset one — width 2^j, or n if all
// are set. If that is above the hint, the scan reads the new components,
// raises the hint and counts the pass as not clean. Once the hint is n the
// scan reads no flags: nothing lies beyond n.
//
// Why it is linearizable: a clean pass linearizes where its flag read
// begins. Components below the width did not change across the clean pair.
// A component q at or above it is still initial: had q finished raising its
// flags before the read began, the read would have found a width above q,
// and q raises them before its first write. Lock-free: a process's hint
// grows at most ⌈log₂ n⌉ times, and any other unclean pass means an Update
// completed.
type DoubleCollect[V any] struct {
	n     int
	regs  []memory.Reg[dcell[V]]
	flags []memory.Reg[bool] // flag j: some pid ≥ 2^j has written
	local []dcLocal[V]
}

// dcLocal is what one process keeps between operations: its scan buffer —
// the sequence numbers and values of its latest collect, initial past the
// width hint — the hint itself, whether its width flags are up, and its
// writer sequence number. It is indexed by pid and padded, never pooled and
// never shared — a pid is driven by one goroutine at a time, so none of it
// needs synchronising. vals is what Scan hands out.
type dcLocal[V any] struct {
	seqs   []uint64
	vals   []V
	seq    uint64
	width  int      // components a collect reads: from 1 up to n, never down
	raised bool     // this pid's width flags are written
	_      [63]byte // 65 bytes above: two cache lines a process
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
		flags: make([]memory.Reg[bool], bits.Len(uint(n-1))),
		local: make([]dcLocal[V], n),
	}
	for i := range s.regs {
		s.regs[i] = memory.NewReg(alloc, fmt.Sprintf("snap.R[%d]", i), dcell[V]{val: initial})
		l := &s.local[i]
		l.seqs, l.vals, l.width = make([]uint64, n), slices.Repeat([]V{initial}, n), 1
	}
	for j := range s.flags {
		s.flags[j] = memory.NewReg(alloc, fmt.Sprintf("snap.W[%d]", j), false)
	}
	return s
}

// Update implements Snapshot: one shared write, after the pid's width flags
// on its first Update.
func (s *DoubleCollect[V]) Update(pid int, x V) {
	l := &s.local[pid]
	if !l.raised {
		for j := range bits.Len(uint(pid)) {
			s.flags[j].Write(pid, true)
		}
		l.raised = true
	}
	l.seq++
	s.regs[pid].Write(pid, dcell[V]{val: x, seq: l.seq})
}

// width reads the flags from the bottom up to the first unset one, j, and
// returns the width they show: 2^j, or n if every flag is set.
func (s *DoubleCollect[V]) width(pid int) int {
	for j := range s.flags {
		if !s.flags[j].Read(pid) {
			return 1 << j
		}
	}
	return s.n
}

// fill reads components [from, to) into pid's buffer.
func (s *DoubleCollect[V]) fill(pid int, l *dcLocal[V], from, to int) {
	for i := from; i < to; i++ {
		c := s.regs[i].Read(pid)
		l.seqs[i], l.vals[i] = c.seq, c.val
	}
}

// collect reads the components below pid's width hint until two consecutive
// collects agree (a "clean double collect"), reading the width flags between
// them, and leaves the agreed collect in pid's buffer. After the first
// collect, only a component whose sequence number moved is rewritten —
// sequence numbers identify writes, so an unchanged number means an
// unchanged value — and a collect that rewrote nothing was clean.
func (s *DoubleCollect[V]) collect(pid int) *dcLocal[V] {
	l := &s.local[pid]
	s.fill(pid, l, 0, l.width)
	for {
		if l.width < s.n {
			if w := s.width(pid); w > l.width {
				s.fill(pid, l, l.width, w)
				l.width = w
				continue // not clean: the flags are read again before the next collect
			}
		}
		seqs, vals := l.seqs[:l.width], l.vals
		clean := true
		for i := range seqs {
			if c := s.regs[i].Read(pid); c.seq != seqs[i] {
				seqs[i], vals[i] = c.seq, c.val
				clean = false
			}
		}
		if clean {
			return l
		}
	}
}

// Scan implements Snapshot.
func (s *DoubleCollect[V]) Scan(pid int) []V { return s.collect(pid).vals }

// ScanVersioned is Scan returning also the view's version: the sum of all
// component sequence numbers, which increases with every Update (the
// versioned-object interface of paper Section 4.1).
func (s *DoubleCollect[V]) ScanVersioned(pid int) ([]V, uint64) {
	l := s.collect(pid)
	var version uint64
	for _, seq := range l.seqs[:l.width] {
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

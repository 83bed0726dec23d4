package snapshot

import (
	"fmt"
	"slices"

	"slmem/internal/memory"
)

// hcell is a component of the bounded handshake snapshot: the value, a
// toggle bit flipped by every update, and the updater's embedded view.
// Unlike dcell/acell there is no unbounded sequence number — modification
// detection uses the handshake bits and the toggle.
type hcell[V any] struct {
	val    V
	toggle bool
	view   []V // immutable once written
}

// Handshake is the bounded wait-free single-writer snapshot of Afek,
// Attiya, Dolev, Gafni, Merritt, and Shavit: the sequence numbers of the
// simple variants are replaced by O(n²) single-bit handshake registers plus
// a per-component toggle bit, so every register holds bounded state.
//
// Updaters handshake with every potential scanner, embed a scan with their
// write, and flip their toggle. Scanners handshake, double-collect, and
// treat a handshake or toggle discrepancy as a detected move; a process seen
// moving twice has performed a complete update inside the scan, so its
// embedded view can be borrowed.
//
// Using Handshake as the substrate S of the paper's Algorithm 3 yields a
// strongly linearizable snapshot whose registers are ALL bounded, matching
// Theorem 2's O(n) registers of size O(log n + log |D|) up to the O(n²)
// handshake bits of this classic substrate.
type Handshake[V any] struct {
	n    int
	regs []memory.Reg[hcell[V]]
	// q[j][i]: written by updater j to handshake with scanner i.
	q [][]memory.Reg[bool]
	// p[i][j]: written by scanner i to handshake with updater j.
	p     [][]memory.Reg[bool]
	local []hsLocal[V]
}

// hsLocal is one process's state between operations, indexed by pid: the
// mirror of its toggle bit (single writer) and the scratch of its scans —
// the acknowledged handshake bits, the round each updater was first seen
// starting in, what the two collects of a round observed, and the scan
// buffer vals that Scan hands out.
type hsLocal[V any] struct {
	toggle     bool
	shake      []bool
	startRound []int // 0 = no start recorded; else round number
	q1, q2     []bool
	t1, t2     []bool
	vals       []V
	views      [][]V // embedded views seen by the second collect
	_          [64]byte
}

var _ Snapshot[int] = (*Handshake[int])(nil)

// NewHandshake constructs the bounded snapshot with n components, all
// initialized to initial.
func NewHandshake[V any](alloc memory.Allocator, n int, initial V) *Handshake[V] {
	if n < 1 {
		panic(fmt.Sprintf("snapshot: n = %d, need at least 1 process", n))
	}
	s := &Handshake[V]{
		n:     n,
		regs:  make([]memory.Reg[hcell[V]], n),
		q:     make([][]memory.Reg[bool], n),
		p:     make([][]memory.Reg[bool], n),
		local: make([]hsLocal[V], n),
	}
	initView := make([]V, n)
	for i := range initView {
		initView[i] = initial
	}
	for j := range s.regs {
		s.regs[j] = memory.NewReg(alloc, fmt.Sprintf("snap.H[%d]", j), hcell[V]{val: initial, view: initView})
		s.q[j] = make([]memory.Reg[bool], n)
		s.p[j] = make([]memory.Reg[bool], n)
		for i := 0; i < n; i++ {
			s.q[j][i] = memory.NewReg(alloc, fmt.Sprintf("snap.q[%d][%d]", j, i), false)
			s.p[j][i] = memory.NewReg(alloc, fmt.Sprintf("snap.p[%d][%d]", j, i), false)
		}
		bits := make([]bool, 5*n)
		s.local[j] = hsLocal[V]{
			shake: bits[:n], q1: bits[n : 2*n], q2: bits[2*n : 3*n], t1: bits[3*n : 4*n], t2: bits[4*n:],
			startRound: make([]int, n),
			vals:       make([]V, n),
			views:      make([][]V, n),
		}
	}
	return s
}

// Update implements Snapshot: handshake with every scanner, embed a copy of
// a scan, write value + flipped toggle. Wait-free.
func (s *Handshake[V]) Update(pid int, x V) {
	// Handshake: announce "an update is in progress" to every scanner by
	// making q[pid][i] differ from p[i][pid].
	for i := 0; i < s.n; i++ {
		s.q[pid][i].Write(pid, !s.p[i][pid].Read(pid))
	}
	view := slices.Clone(s.Scan(pid))
	l := &s.local[pid]
	l.toggle = !l.toggle
	s.regs[pid].Write(pid, hcell[V]{val: x, toggle: l.toggle, view: view})
}

// Scan implements Snapshot.
//
// Move evidence per updater j comes in two kinds:
//
//   - started: q[j][pid] differs from the acknowledged handshake — j began
//     an update AFTER this scan's handshake, so that update's embedded scan
//     lies within this scan's interval;
//   - completed: j's toggle changed between the two collects — some write
//     by j landed inside this double collect.
//
// A view may be borrowed only when a write provably belongs to an update
// that started inside this scan: either a second `started` for j, or a
// `completed` observed in a round after j's `started` was recorded. A bare
// toggle flip can come from an update that began before this scan and its
// embedded view could predate the scan, so it never justifies borrowing on
// its own.
//
// Wait-free: per updater there is at most one pre-scan completion round and
// one recorded start before a borrow triggers, so the loop runs at most
// O(n) rounds.
func (s *Handshake[V]) Scan(pid int) []V {
	l := &s.local[pid]
	shake, startRound := l.shake, l.startRound
	// Handshake with every updater and remember what we acknowledged.
	for j := 0; j < s.n; j++ {
		shake[j] = s.q[j][pid].Read(pid)
		s.p[pid][j].Write(pid, shake[j])
	}
	clear(startRound)
	for round := 1; ; round++ {
		for j := 0; j < s.n; j++ {
			l.q1[j] = s.q[j][pid].Read(pid)
			l.t1[j] = s.regs[j].Read(pid).toggle
		}
		for j := 0; j < s.n; j++ {
			l.q2[j] = s.q[j][pid].Read(pid)
			c := s.regs[j].Read(pid)
			l.t2[j], l.vals[j], l.views[j] = c.toggle, c.val, c.view
		}
		clean := true
		for j := 0; j < s.n; j++ {
			started := l.q1[j] != shake[j] || l.q2[j] != shake[j]
			completed := l.t1[j] != l.t2[j]
			if !started && !completed {
				continue
			}
			clean = false
			if startRound[j] > 0 && startRound[j] < round {
				// The register now holds a write from an update that began
				// after startRound[j]'s evidence, i.e. inside this scan;
				// its embedded view is a snapshot within our interval.
				return l.views[j]
			}
			if started && startRound[j] == 0 {
				startRound[j] = round
				// Acknowledge, so only a further update counts as started.
				shake[j] = l.q2[j]
				s.p[pid][j].Write(pid, shake[j])
			}
		}
		if clean {
			return l.vals
		}
	}
}

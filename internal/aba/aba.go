// Package aba implements ABA-detecting registers (paper Section 3).
//
// An ABA-detecting register stores a value and supports DWrite(x) and
// DRead() -> (x, flag), where flag is true iff the calling process has
// performed an earlier DRead and some DWrite happened since.
//
// Two implementations are provided, built from atomic registers only:
//
//   - Linearizable: the wait-free linearizable register of Aghazadeh and
//     Woelfel (the paper's Algorithm 1). The paper's Observation 4 proves it
//     is NOT strongly linearizable; the test suite reproduces that proof
//     mechanically.
//   - Strong: the paper's lock-free strongly linearizable modification
//     (Algorithm 2) with the announcement kept by its only writer: DRead
//     retries its read sequence until it observes a quiescent period, so
//     every operation linearizes at its final shared step (Theorems 1, 12,
//     14), and it neither reads A[q] nor writes back the tag A[q] holds.
//
// Both use the same writer machinery: writes are tagged with the writer's
// id and a bounded sequence number chosen by GetSeq to avoid numbers that
// readers may still rely on (announced in A, or among the writer's n+1 most
// recently used).
//
// Methods take the calling process id; per-process local state (the paper's
// usedQ, na, c, and Algorithm 1's b flag) is kept in per-pid slots, so each
// pid must be driven by at most one goroutine at a time.
package aba

import (
	"fmt"

	"slmem/internal/memory"
)

// noSeq is the paper's ⊥ for sequence numbers and process ids.
const noSeq = -1

// cell is the content of the main register X: a value tagged with the
// writing process and its sequence number. Both tags are bounded by the
// algorithm (pid < n, seq <= 2n+1), so two int32s hold them and a cell of a
// slice value takes 32 bytes instead of 48.
type cell[V any] struct {
	val V
	pid int32
	seq int32
}

// tag is the (process id, sequence number) pair announced in A.
type tag struct {
	pid int
	seq int
}

func (c cell[V]) tag() tag { return tag{pid: int(c.pid), seq: int(c.seq)} }

// pack puts a tag in one word, both halves shifted by one so that ⊥ is 0.
// A tag's domain is bounded by the algorithm — pid < n, seq <= 2n+1 — which
// is what lets the announcement registers, alone among the registers here,
// live in a memory.Word.
func (t tag) pack() uint64 { return uint64(t.pid+1)<<32 | uint64(t.seq+1) }

func unpack(w uint64) tag { return tag{pid: int(w>>32) - 1, seq: int(uint32(w)) - 1} }

// annReg is one announcement register A[q]: natively a packed word, read
// with one load of a line only its owner writes and written without
// allocating; under any other allocator (counting, simulated) an ordinary
// register holding the tag, step for step and value for value as before.
type annReg struct {
	word *memory.Word
	reg  memory.Reg[tag]
}

func newAnnReg(alloc memory.Allocator, name string, init tag) annReg {
	if w, ok := memory.NewWord(alloc, name, init.pack()); ok {
		return annReg{word: w}
	}
	return annReg{reg: memory.NewReg(alloc, name, init)}
}

func (a annReg) Read(pid int) tag {
	if a.word != nil {
		return unpack(a.word.Read())
	}
	return a.reg.Read(pid)
}

func (a annReg) Write(pid int, t tag) {
	if a.word != nil {
		a.word.Write(t.pack())
		return
	}
	a.reg.Write(pid, t)
}

// seqQueue is the paper's usedQ: the writer's n+1 most recently used
// sequence numbers, as a fixed-size ring. enqueue-then-dequeue of the paper
// is replacing the oldest entry.
type seqQueue struct {
	buf  []int
	head int
}

func noSeqs(buf []int) []int {
	for i := range buf {
		buf[i] = noSeq
	}
	return buf
}

// pushPop enqueues s and returns the entry it displaced.
func (q *seqQueue) pushPop(s int) int {
	old := q.buf[q.head]
	q.buf[q.head] = s
	q.head = (q.head + 1) % len(q.buf)
	return old
}

// writerLocal is the per-process local state of the DWrite/GetSeq machinery:
// indexed by pid, written by the goroutine driving that pid only, and padded
// so that two processes' cursors and ring heads — written on every DWrite —
// never share a cache line.
type writerLocal struct {
	usedQ seqQueue
	na    []int // na[i] = sequence number announced at A[i], noSeq if none
	// held[s] counts the entries of usedQ and na that name sequence number
	// s, so GetSeq's "neither announced nor recently used" is held[s] == 0.
	held []int
	c    int // round-robin cursor over A
	// announced is the tag this process last wrote to its own A[q] as a
	// reader, ⊥ before its first write: Strong's DRead reads it here.
	announced tag
	_         [64]byte
}

// hold and drop account for s entering and leaving usedQ or na.
func (l *writerLocal) hold(s int) {
	if s != noSeq {
		l.held[s]++
	}
}

func (l *writerLocal) drop(s int) {
	if s != noSeq {
		l.held[s]--
	}
}

// localStride is the distance, in ints, between the backing arrays of two
// processes' usedQ, na and held: their 4n+3 entries rounded up to whole
// cache lines, plus one line so the split holds wherever the array starts.
func localStride(n int) int { return (4*n+3+7)/8*8 + 8 }

// base holds the shared registers and per-process locals common to both
// implementations.
type base[V any] struct {
	n  int
	eq func(a, b V) bool
	x  memory.Reg[cell[V]]
	a  []annReg
	w  []writerLocal
}

func newBase[V any](alloc memory.Allocator, n int, initial V, eq func(a, b V) bool) *base[V] {
	if n < 1 {
		panic(fmt.Sprintf("aba: n = %d, need at least 1 process", n))
	}
	b := &base[V]{
		n:  n,
		eq: eq,
		x:  memory.NewReg(alloc, "aba.X", cell[V]{val: initial, pid: noSeq, seq: noSeq}),
		a:  make([]annReg, n),
		w:  make([]writerLocal, n),
	}
	for i := range b.a {
		b.a[i] = newAnnReg(alloc, fmt.Sprintf("aba.A[%d]", i), tag{pid: noSeq, seq: noSeq})
	}
	// One backing array for every process's ring, announcement memory and
	// counts, a whole number of cache lines apart: allocated one by one
	// these few words of different processes would sit side by side.
	stride := localStride(n)
	backing := make([]int, n*stride)
	for i := range b.w {
		own := backing[i*stride : i*stride+4*n+3 : i*stride+4*n+3]
		b.w[i].usedQ = seqQueue{buf: noSeqs(own[: n+1 : n+1])}
		b.w[i].na = noSeqs(own[n+1 : 2*n+1 : 2*n+1])
		b.w[i].held = own[2*n+1:]
		b.w[i].announced = tag{pid: noSeq, seq: noSeq}
	}
	return b
}

// getSeq implements the paper's GetSeq (Algorithm 1, lines 3-14): read one
// announcement (round-robin), remember it if it names this writer, and pick
// a sequence number from {0,...,2n+1} that is neither announced nor among
// the writer's n+1 most recently used. One shared-memory step.
func (b *base[V]) getSeq(p int) int {
	l := &b.w[p]
	ann := b.a[l.c].Read(p) // line 3
	seen := noSeq           // lines 4-9
	if ann.pid == p {
		seen = ann.seq
	}
	l.drop(l.na[l.c])
	l.na[l.c] = seen
	l.hold(seen)
	l.c = (l.c + 1) % b.n // line 10

	// Line 11: choose the smallest available sequence number. The domain has
	// 2n+2 values; at most n are announced and n+1 recently used, so one is
	// always free.
	s := noSeq
	for cand, held := range l.held {
		if held == 0 {
			s = cand
			break
		}
	}
	if s == noSeq {
		// Unreachable by the counting argument above.
		panic("aba: no available sequence number")
	}
	l.drop(l.usedQ.pushPop(s)) // lines 12-13
	l.hold(s)
	return s
}

// dWrite implements DWrite (Algorithm 1, lines 1-2): two shared steps.
func (b *base[V]) dWrite(p int, x V) {
	s := b.getSeq(p)
	b.x.Write(p, cell[V]{val: x, pid: int32(p), seq: int32(s)})
}

func (b *base[V]) cellEq(c1, c2 cell[V]) bool {
	return c1.pid == c2.pid && c1.seq == c2.seq && b.eq(c1.val, c2.val)
}

// Linearizable is the wait-free linearizable ABA-detecting register of
// Aghazadeh and Woelfel (Algorithm 1). It is linearizable but not strongly
// linearizable (Observation 4).
type Linearizable[V any] struct {
	*base[V]
	b []bool // per-process delegation flag (paper's local b)
}

// NewLinearizable constructs Algorithm 1 for n processes over comparable
// values, initialized to initial (the paper's ⊥).
func NewLinearizable[V comparable](alloc memory.Allocator, n int, initial V) *Linearizable[V] {
	return NewLinearizableFunc(alloc, n, initial, func(a, b V) bool { return a == b })
}

// NewLinearizableFunc is NewLinearizable with an explicit value-equality
// function, for value types that are not comparable (e.g. vectors).
func NewLinearizableFunc[V any](alloc memory.Allocator, n int, initial V, eq func(a, b V) bool) *Linearizable[V] {
	return &Linearizable[V]{
		base: newBase(alloc, n, initial, eq),
		b:    make([]bool, n),
	}
}

// DWrite writes x as process p. Wait-free; exactly two shared steps.
func (r *Linearizable[V]) DWrite(p int, x V) { r.dWrite(p, x) }

// DRead returns the current value and the modification flag, as process q
// (Algorithm 1, lines 15-31). Wait-free: four shared steps.
func (r *Linearizable[V]) DRead(q int) (V, bool) {
	c1 := r.x.Read(q)         // line 15
	ann := r.a[q].Read(q)     // line 16
	r.a[q].Write(q, c1.tag()) // line 17
	c2 := r.x.Read(q)         // line 18
	var ret bool
	if c1.tag() == ann { // line 19
		ret = r.b[q] // line 20
	} else {
		ret = true // line 23
	}
	if r.cellEq(c1, c2) { // line 25
		r.b[q] = false // line 26
	} else {
		r.b[q] = true // line 29
	}
	return c1.val, ret // line 31
}

// Strong is the paper's lock-free strongly linearizable ABA-detecting
// register: Algorithm 2 with the announcement kept by its only writer.
//
// DRead repeats its read sequence until X and A[q] are mutually consistent
// and unchanged, so it can linearize at its final shared step; DWrite
// linearizes at its write to X. Theorem 12 proves strong linearizability;
// Theorem 14 bounds the total work.
//
// Only q writes A[q] — a writer's GetSeq only reads it — so q knows what A[q]
// holds without reading it: line 35 reads q's local copy, and line 36 is
// issued only when the tag q read from X differs from that copy, which is
// the only time it could change A[q]. A quiet DRead is then two shared steps,
// its two reads of X, where Algorithm 2 takes four; the first DRead after a
// DWrite is 3 + 2 where it takes 8. Still strongly linearizable: the skipped
// read would have returned the copy, and the skipped write would have stored
// the value A[q] already holds, which no process can tell from no write.
// Insert both right after q's line-34 read and every execution of Strong is
// one of Algorithm 2 in which every process reads the same values and every
// operation linearizes at the same step (line 37 for a DRead), so Theorem
// 12's prefix-preserving linearization carries over unchanged. Linearizable
// keeps all four steps: it is Observation 4's counterexample as the paper
// states it.
type Strong[V any] struct {
	*base[V]
}

// NewStrong constructs Algorithm 2 for n processes over comparable values,
// initialized to initial (the paper's ⊥).
func NewStrong[V comparable](alloc memory.Allocator, n int, initial V) *Strong[V] {
	return NewStrongFunc(alloc, n, initial, func(a, b V) bool { return a == b })
}

// NewStrongFunc is NewStrong with an explicit value-equality function.
func NewStrongFunc[V any](alloc memory.Allocator, n int, initial V, eq func(a, b V) bool) *Strong[V] {
	return &Strong[V]{base: newBase(alloc, n, initial, eq)}
}

// DWrite writes x as process p. Wait-free; exactly two shared steps.
func (r *Strong[V]) DWrite(p int, x V) { r.dWrite(p, x) }

// DRead returns the current value and the modification flag, as process q
// (Algorithm 2, lines 32-42). Lock-free: retries while concurrent DWrites
// land, then linearizes at its final read of X.
func (r *Strong[V]) DRead(q int) (V, bool) {
	l := &r.w[q]
	changed := false // line 32
	for {            // line 33
		c1 := r.x.Read(q)  // line 34
		ann := l.announced // line 35: A[q], as q last wrote it
		if t := c1.tag(); t != ann {
			r.a[q].Write(q, t) // line 36, when it changes A[q]
			l.announced = t
		}
		c2 := r.x.Read(q) // line 37
		quiet := c1.tag() == ann && r.cellEq(c1, c2)
		if !quiet { // lines 38-40
			changed = true
			continue // line 41
		}
		return c2.val, changed // line 42
	}
}

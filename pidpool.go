package slmem

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// PIDPool leases process ids from the fixed pool 0..n-1, bridging the
// paper's model to ordinary Go programs. Every object in this module
// follows the paper's concurrency model: n processes with pre-assigned ids
// 0..n-1, each id used by at most one thread at a time. Go services have no
// such processes — goroutines come and go — so a PIDPool manages
// short-lived leases of ids: a goroutine acquires a pid, performs
// operations as that process, and releases it; or it uses the Pooled*
// wrappers, which lease around every operation automatically.
//
// The design goals, in order: correctness of the ownership invariant (a pid
// is held by at most one goroutine between Acquire and Release; misuse
// panics), a cheap uncontended fast path (one CAS on the ownership word of
// the pid a per-P hint names), and well-behaved saturation (FIFO blocking
// with context cancellation instead of spinning).
//
// The ownership words are the free list: slot pid holds 1 exactly while pid
// is leased, and a lease is a CAS 0→1 on that word, a release a CAS 1→0. The
// word is the one object here that is not a register — one
// consensus-number-2-style word per pid — and an uncontended lease pays one
// read-modify-write on it and touches nothing every P shares. A sync.Pool of
// hints gives each P a sticky pid: sync.Pool's per-P caching means a
// goroutine usually gets back the hint last used on its P, keeping a pid
// close to the core that last used it. Hints start on the lowest GOMAXPROCS
// ids and fall back to them whenever their pid is found leased, so which ids
// a pool hands out depends on how many leases are held at once and not on
// when a holder happened to be preempted: the per-pid state of the objects
// above is touched for a few low ids and stays cold for the rest. When every
// id is leased, acquirers queue FIFO and releases hand ids directly to the
// oldest waiter; a release looks at the wait queue only when the waiter
// count says someone is in it.
type PIDPool struct {
	n int
	// slots tracks the ownership invariant. Transitions are CASed so misuse
	// (double release, release of a never-acquired pid) fails loudly instead
	// of corrupting per-process state of the objects above.
	slots []slot

	qmu     sync.Mutex
	waiters waiterQueue
	// nwait is the length of waiters, changed only under qmu and read
	// without it by releases deciding whether the queue is worth locking.
	nwait atomic.Int32

	hints    sync.Pool
	hintSeed atomic.Uint32

	// Slow-path counters: hand-offs are the acquisitions that never CASed a
	// free word.
	handoffs, blocks, cancels atomic.Int64
}

// slot is one pid on a cache line of its own (sixteen words to a line, every
// lease would invalidate its neighbours'): the ownership word and the pid's
// share of the counters. The counts are written only by whoever just won the
// word, so they are a Load and a Store and never a read-modify-write.
type slot struct {
	leased atomic.Int32
	leases atomic.Int64 // times the word was won by an acquirer
	hinted atomic.Int64 // of those, by an acquirer whose hint named this pid
	_      [40]byte
}

// tryLease wins the slot's word if it is free, counting the acquisition;
// hinted says the acquirer's hint named this pid.
func (s *slot) tryLease(hinted bool) bool {
	if !s.leased.CompareAndSwap(0, 1) {
		return false
	}
	s.leases.Store(s.leases.Load() + 1)
	if hinted {
		s.hinted.Store(s.hinted.Load() + 1)
	}
	return true
}

// hint is where one P looks for an id. cur is the pid that served it last
// and is tried first. base is fixed when the hint is made: a search that
// finds cur leased — its holder was preempted, or two hints have met on one
// pid — restarts there and not at cur, so a hint that was pushed off its pid
// moves to the nearest free one at or above base and never wanders round the
// pool.
type hint struct {
	base, cur uint32
}

type waiter struct {
	ch   chan int
	next *waiter
}

// waiterQueue is an intrusive FIFO list of blocked acquirers.
type waiterQueue struct {
	head, tail *waiter
}

func (q *waiterQueue) push(w *waiter) {
	if q.tail == nil {
		q.head, q.tail = w, w
		return
	}
	q.tail.next = w
	q.tail = w
}

func (q *waiterQueue) pop() *waiter {
	w := q.head
	if w == nil {
		return nil
	}
	q.head = w.next
	if q.head == nil {
		q.tail = nil
	}
	w.next = nil
	return w
}

func (q *waiterQueue) remove(target *waiter) bool {
	var prev *waiter
	for w := q.head; w != nil; w = w.next {
		if w == target {
			if prev == nil {
				q.head = w.next
			} else {
				prev.next = w.next
			}
			if q.tail == w {
				q.tail = prev
			}
			w.next = nil
			return true
		}
		prev = w
	}
	return false
}

// PoolStats are monotone counters describing how acquisitions were served.
// The counters are kept apart and read one after another, so a reading is
// not a consistent cut (fine for metrics).
type PoolStats struct {
	// Acquires counts successful lease acquisitions.
	Acquires int64 `json:"acquires"`
	// FastPath counts acquisitions served by the pid the acquirer's hint named.
	FastPath int64 `json:"fast_path"`
	// Steals counts acquisitions served by another free pid.
	Steals int64 `json:"steals"`
	// Blocks counts acquisitions that queued behind an exhausted pool.
	Blocks int64 `json:"blocks"`
	// Cancels counts acquisitions abandoned via context.
	Cancels int64 `json:"cancels"`
}

// NewPIDPool constructs a pool over process ids 0..n-1. n must be positive.
func NewPIDPool(n int) *PIDPool {
	if n <= 0 {
		panic(fmt.Sprintf("slmem: pid pool needs n > 0, got %d", n))
	}
	p := &PIDPool{n: n, slots: make([]slot, n)}
	p.hints.New = func() any {
		// A P runs one goroutine at a time, so GOMAXPROCS bases give each P
		// a pid of its own; holders beyond that (leases kept across blocking
		// calls) find theirs by searching upward from a base.
		bases := uint32(min(n, runtime.GOMAXPROCS(0)))
		b := (p.hintSeed.Add(1) - 1) % bases
		return &hint{base: b, cur: b}
	}
	return p
}

// Size returns n, the number of process ids managed.
func (p *PIDPool) Size() int { return p.n }

// InUse returns how many pids are currently leased (an id handed from a
// release straight to a waiter stays leased throughout).
func (p *PIDPool) InUse() int {
	var out int
	for pid := range p.slots {
		out += int(p.slots[pid].leased.Load())
	}
	return out
}

// Holds reports whether pid is currently leased. Callers that reuse one
// lease across many operations (batch execution) assert this between
// operations to catch a step that released the pid it was given while no
// acquirer was queued: continuing after that would break the ownership
// invariant and corrupt per-process state. A release that hands the pid
// straight to a queued acquirer leaves it leased, so Holds cannot see that
// one. Ids outside [0, n) are never held.
func (p *PIDPool) Holds(pid int) bool {
	if pid < 0 || pid >= p.n {
		return false
	}
	return p.slots[pid].leased.Load() == 1
}

// Held returns the ids currently leased, in ascending order. Intended for
// leak detection in tests and for diagnostics; the result is a snapshot and
// may be stale by the time it returns.
func (p *PIDPool) Held() []int {
	var held []int
	for pid := range p.slots {
		if p.slots[pid].leased.Load() == 1 {
			held = append(held, pid)
		}
	}
	return held
}

// Stats returns a reading of the monotone acquisition counters.
func (p *PIDPool) Stats() PoolStats {
	st := PoolStats{
		Acquires: p.handoffs.Load(),
		Blocks:   p.blocks.Load(),
		Cancels:  p.cancels.Load(),
	}
	for pid := range p.slots {
		s := &p.slots[pid]
		// hinted first: read the other way round, a lease counted between
		// the two loads would show as a negative steal.
		hinted := s.hinted.Load()
		leases := s.leases.Load()
		st.Acquires += leases
		st.FastPath += hinted
		st.Steals += leases - hinted
	}
	return st
}

// TryAcquire leases an id without blocking. It reports false when every id
// is leased.
func (p *PIDPool) TryAcquire() (int, bool) {
	h := p.hints.Get().(*hint)
	pid, ok := p.scan(h)
	p.hints.Put(h)
	return pid, ok
}

// scan wins a free word: that of the pid the hint names when it is free,
// otherwise the first free one at or after the hint's base, which the hint
// names from then on.
func (p *PIDPool) scan(h *hint) (int, bool) {
	if p.slots[h.cur].tryLease(true) {
		return int(h.cur), true
	}
	n := uint32(p.n)
	for i := uint32(0); i < n; i++ {
		pid := (h.base + i) % n
		// Look before the CAS: a failed CAS still takes the holder's line.
		if s := &p.slots[pid]; s.leased.Load() == 0 && s.tryLease(false) {
			h.cur = pid
			return int(pid), true
		}
	}
	return 0, false
}

// Acquire leases an id, blocking while all ids are leased. It returns
// ctx.Err() if the context is cancelled first. Waiters are served FIFO, so
// acquisition is starvation-free as long as leases are released.
func (p *PIDPool) Acquire(ctx context.Context) (int, error) {
	if pid, ok := p.TryAcquire(); ok {
		return pid, nil
	}
	// Slow path: queue, then re-scan once. The re-scan closes the race where
	// every id was leased before we queued but a Release ran in between: a
	// release that freed its word before our re-scan read it is found by the
	// re-scan, and one that frees it after re-checks the waiter count after
	// freeing and finds us (see free).
	w := &waiter{ch: make(chan int, 1)}
	p.qmu.Lock()
	p.waiters.push(w)
	p.nwait.Add(1)
	p.qmu.Unlock()
	if pid, ok := p.TryAcquire(); ok {
		if p.dequeue(w) {
			return pid, nil
		}
		// A release already handed us an id through the channel; keep that
		// one and give the scanned one back (through Release, so it reaches
		// the next waiter if one is queued).
		p.Release(pid)
		return <-w.ch, nil
	}
	p.blocks.Add(1)

	select {
	case pid := <-w.ch:
		// The releasing goroutine transferred ownership directly: holders
		// bookkeeping stayed leased throughout, only the holder changed.
		p.handoffs.Add(1)
		return pid, nil
	case <-ctx.Done():
		if p.dequeue(w) {
			p.cancels.Add(1)
			return 0, ctx.Err()
		}
		// Lost the race: a release delivered an id while we were cancelling.
		// Take it and put it back so it is not leaked.
		p.Release(<-w.ch)
		p.cancels.Add(1)
		return 0, ctx.Err()
	}
}

// dequeue removes w from the wait queue, reporting whether it was still
// queued (false means a release already picked it and will send on w.ch).
func (p *PIDPool) dequeue(w *waiter) bool {
	p.qmu.Lock()
	defer p.qmu.Unlock()
	if !p.waiters.remove(w) {
		return false
	}
	p.nwait.Add(-1)
	return true
}

// popWaiter takes the oldest waiter off the queue, nil if there is none.
func (p *PIDPool) popWaiter() *waiter {
	if p.nwait.Load() == 0 {
		return nil
	}
	p.qmu.Lock()
	defer p.qmu.Unlock()
	w := p.waiters.pop()
	if w != nil {
		p.nwait.Add(-1)
	}
	return w
}

// panicNotLeased reports a release of a pid whose word does not read 1.
func panicNotLeased(pid int) {
	panic(fmt.Sprintf("slmem: pid %d released while not leased", pid))
}

// Release returns a leased id to the pool. Releasing an id that is not
// currently leased panics: it means two goroutines believed they owned the
// same pid, which would have corrupted per-process state above.
func (p *PIDPool) Release(pid int) {
	if pid < 0 || pid >= p.n {
		panic(fmt.Sprintf("slmem: release of pid %d outside [0,%d)", pid, p.n))
	}
	if p.slots[pid].leased.Load() != 1 {
		panicNotLeased(pid)
	}
	// Hand off to a waiter first: ownership transfers without the id ever
	// becoming free (the word stays 1), so a TryAcquire cannot jump the
	// queue.
	if w := p.popWaiter(); w != nil {
		w.ch <- pid
		return
	}
	p.free(pid)
}

// free is the rest of a Release that found the queue empty: free the word,
// then look at the queue again. A waiter may have queued and re-scanned the
// words between the first look and the CAS: it found nothing, and nobody
// would wake it before the next release — never, if this was the only id.
// The waiter counts itself before it re-scans and the release frees the word
// before it reads the count, so either the re-scan saw the free word or the
// count shows the waiter by now: take the id back (unless it is already
// gone — then whoever took it will release it and look here again) and hand
// it over. Taking it back is a release that did not happen rather than an
// acquisition — the acquisition is the waiter's, who counts the hand-off.
func (p *PIDPool) free(pid int) {
	s := &p.slots[pid]
	for {
		if !s.leased.CompareAndSwap(1, 0) {
			panicNotLeased(pid)
		}
		if p.nwait.Load() == 0 || !s.leased.CompareAndSwap(0, 1) {
			return
		}
		if w := p.popWaiter(); w != nil {
			w.ch <- pid
			return
		}
	}
}

// With leases a pid around fn, running fn as that process and releasing the
// pid even if fn panics.
func (p *PIDPool) With(ctx context.Context, fn func(pid int) error) error {
	pid, err := p.Acquire(ctx)
	if err != nil {
		return err
	}
	defer p.Release(pid)
	return fn(pid)
}

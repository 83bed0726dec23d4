// Package runtime bridges the paper's fixed-process model to ordinary Go
// programs. Every object in this module follows the paper's concurrency
// model: n processes with pre-assigned ids 0..n-1, each id used by at most
// one thread at a time. Go services have no such processes — goroutines come
// and go — so the Leaser manages short-lived leases of ids from the fixed
// pool: a goroutine acquires a pid, performs operations as that process, and
// releases it.
//
// The design goals, in order: correctness of the ownership invariant (a pid
// is held by at most one goroutine between Acquire and Release), a cheap
// uncontended fast path (striped free lists with per-P affinity via
// sync.Pool hints), and well-behaved saturation (FIFO blocking with context
// cancellation instead of spinning).
package runtime

import (
	"context"
	"fmt"
	goruntime "runtime"
	"sync"
	"sync/atomic"
)

// Leaser hands out leases of process ids 0..n-1.
//
// Free ids live in stripes, each guarded by its own mutex, so concurrent
// acquirers on different Ps rarely touch the same cache line. A sync.Pool of
// stripe hints gives each P a sticky home stripe: sync.Pool's per-P caching
// means a goroutine usually gets back the hint last used on its P, keeping a
// pid close to the core that last used it. Hints start on the lowest
// GOMAXPROCS stripes and fall back to them whenever their stripe is found
// empty, so which ids a pool hands out depends on how many leases are held
// at once and not on when a holder happened to be preempted: the per-pid
// state of the objects above is touched for a few low ids and stays cold for
// the rest. When every stripe is empty, acquirers queue FIFO and releases
// hand ids directly to the oldest waiter.
//
// An uncontended lease touches its stripe and its own holder word and
// nothing every P shares: the counters Stats and InUse report are kept in
// the stripe, under the mutex the lease holds anyway, and a release looks at
// the wait queue only when the waiter count says someone is in it.
type Leaser struct {
	n       int
	stripes []stripe

	// holders tracks the ownership invariant: holders[pid] is 1 exactly while
	// pid is leased. Transitions are CASed so misuse (double release, release
	// of a never-acquired pid) fails loudly instead of corrupting per-process
	// state of the objects above.
	holders []holder

	qmu     sync.Mutex
	waiters waiterQueue
	// nwait is the length of waiters, changed only under qmu and read
	// without it by releases deciding whether the queue is worth locking.
	nwait atomic.Int32

	hints    sync.Pool
	hintSeed atomic.Uint32

	// Slow-path counters: hand-offs are the acquisitions that never went
	// through a stripe.
	handoffs, blocks, cancels atomic.Int64
}

// stripe is one shard of the free list with its share of the counters, all
// guarded by mu; the trailing pad keeps neighbouring stripes off one cache
// line.
type stripe struct {
	mu      sync.Mutex
	free    []int
	leases  int64 // ids popped from this stripe
	home    int64 // of those, by an acquirer whose home stripe this is
	returns int64 // ids pushed back
	_       [72]byte
}

// take leases the most recently freed id of the stripe, counting it; home
// says the stripe is the one the acquirer's hint named.
func (s *stripe) take(home bool) (int, bool) {
	s.mu.Lock()
	pid, ok := s.pop()
	if ok {
		s.leases++
		if home {
			s.home++
		}
	}
	s.mu.Unlock()
	return pid, ok
}

// pop takes the most recently freed id off the stripe; the caller holds mu.
func (s *stripe) pop() (int, bool) {
	k := len(s.free)
	if k == 0 {
		return 0, false
	}
	pid := s.free[k-1]
	s.free = s.free[:k-1]
	return pid, true
}

// hint is where one P looks for an id. cur is the stripe that served it last
// and is tried first. base is fixed when the hint is made: a search that
// finds cur empty — its id is with a holder that was preempted, or two hints
// have met on one stripe — restarts there and not at cur, so a hint that was
// pushed off its stripe moves to the nearest free one at or above base and
// never wanders round the pool.
type hint struct {
	base, cur uint32
}

// holder is one pid's ownership word on a cache line of its own: sixteen to
// a line, every lease would invalidate its neighbours' words.
type holder struct {
	leased atomic.Int32
	_      [60]byte
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

// StatsSnapshot is a reading of the leaser's monotone counters. The counters
// are kept apart and read one after another, so a reading is not a
// consistent cut (fine for metrics).
type StatsSnapshot struct {
	// Acquires counts successful lease acquisitions.
	Acquires int64
	// FastPath counts acquisitions satisfied by the acquirer's home stripe.
	FastPath int64
	// Steals counts acquisitions satisfied by scanning another stripe.
	Steals int64
	// Blocks counts acquisitions that had to queue behind an empty pool.
	Blocks int64
	// Cancels counts acquisitions abandoned via context.
	Cancels int64
}

// NewLeaser constructs a leaser over ids 0..n-1 with a stripe count scaled
// to the pool size (next power of two, capped at 64). n must be positive.
func NewLeaser(n int) *Leaser {
	return NewLeaserStripes(n, 0)
}

// NewLeaserStripes is NewLeaser with an explicit stripe count (0 means
// automatic). More stripes reduce contention but slow the empty-pool scan.
func NewLeaserStripes(n, stripes int) *Leaser {
	if n <= 0 {
		panic(fmt.Sprintf("runtime: leaser needs n > 0, got %d", n))
	}
	if stripes <= 0 {
		stripes = defaultStripes(n)
	}
	if stripes > n {
		stripes = n
	}
	l := &Leaser{
		n:       n,
		stripes: make([]stripe, stripes),
		holders: make([]holder, n),
	}
	l.hints.New = func() any {
		// A P runs one goroutine at a time, so GOMAXPROCS bases give each P
		// a stripe of its own; holders beyond that (leases kept across
		// blocking calls) find theirs by searching upward from a base.
		bases := uint32(min(len(l.stripes), goruntime.GOMAXPROCS(0)))
		b := (l.hintSeed.Add(1) - 1) % bases
		return &hint{base: b, cur: b}
	}
	// Deal ids round-robin so every stripe starts non-empty.
	for pid := n - 1; pid >= 0; pid-- {
		s := &l.stripes[pid%stripes]
		s.free = append(s.free, pid)
	}
	return l
}

func defaultStripes(n int) int {
	s := 1
	for s < n && s < 64 {
		s <<= 1
	}
	if s > n {
		s >>= 1
	}
	if s < 1 {
		s = 1
	}
	return s
}

// Size returns the number of process ids managed.
func (l *Leaser) Size() int { return l.n }

// InUse returns the number of ids currently leased: those popped from a
// stripe and not yet pushed back (an id handed from a release straight to a
// waiter stays leased throughout).
func (l *Leaser) InUse() int {
	var out int64
	for i := range l.stripes {
		s := &l.stripes[i]
		s.mu.Lock()
		out += s.leases - s.returns
		s.mu.Unlock()
	}
	return int(out)
}

// Holds reports whether pid is currently leased. Callers that reuse one
// lease across many operations (batch execution) assert this between
// operations to catch a step that released — or handed off — the pid it was
// given: continuing after that would break the ownership invariant and
// corrupt per-process state. Ids outside [0, n) are never held.
func (l *Leaser) Holds(pid int) bool {
	if pid < 0 || pid >= l.n {
		return false
	}
	return l.holders[pid].leased.Load() == 1
}

// Held returns the ids currently leased, in ascending order. Intended for
// leak detection in tests and for diagnostics; the result is a snapshot and
// may be stale by the time it returns.
func (l *Leaser) Held() []int {
	var held []int
	for pid := range l.holders {
		if l.holders[pid].leased.Load() == 1 {
			held = append(held, pid)
		}
	}
	return held
}

// Stats returns a reading of the monotone counters.
func (l *Leaser) Stats() StatsSnapshot {
	st := StatsSnapshot{
		Acquires: l.handoffs.Load(),
		Blocks:   l.blocks.Load(),
		Cancels:  l.cancels.Load(),
	}
	for i := range l.stripes {
		s := &l.stripes[i]
		s.mu.Lock()
		st.Acquires += s.leases
		st.FastPath += s.home
		st.Steals += s.leases - s.home
		s.mu.Unlock()
	}
	return st
}

// TryAcquire leases an id without blocking. It reports false when every id
// is leased.
func (l *Leaser) TryAcquire() (int, bool) {
	h := l.hints.Get().(*hint)
	pid, ok := l.scan(h)
	l.hints.Put(h)
	if !ok {
		return 0, false
	}
	l.lease(pid)
	return pid, true
}

// scan pops a free id: from the hint's current stripe when that has one,
// otherwise from the first stripe at or after the hint's base that has,
// which becomes current.
func (l *Leaser) scan(h *hint) (int, bool) {
	if pid, ok := l.stripes[h.cur].take(true); ok {
		return pid, true
	}
	ns := uint32(len(l.stripes))
	for i := uint32(0); i < ns; i++ {
		idx := (h.base + i) % ns
		if pid, ok := l.stripes[idx].take(false); ok {
			h.cur = idx
			return pid, true
		}
	}
	return 0, false
}

// Acquire leases an id, blocking while all ids are leased. It returns
// ctx.Err() if the context is cancelled first. Waiters are served FIFO, so
// acquisition is starvation-free as long as leases are released.
func (l *Leaser) Acquire(ctx context.Context) (int, error) {
	if pid, ok := l.TryAcquire(); ok {
		return pid, nil
	}
	// Slow path: queue, then re-scan once. The re-scan closes the race where
	// every stripe emptied before we queued but a Release ran in between: a
	// release that pushed its id before our re-scan reached that stripe is
	// found by the re-scan, and one that pushes after it re-checks the
	// waiter count after the push and finds us (see free).
	w := &waiter{ch: make(chan int, 1)}
	l.qmu.Lock()
	l.waiters.push(w)
	l.nwait.Add(1)
	l.qmu.Unlock()
	if pid, ok := l.TryAcquire(); ok {
		if l.dequeue(w) {
			return pid, nil
		}
		// A release already handed us an id through the channel; keep that
		// one and give the scanned one back (through Release, so it reaches
		// the next waiter if one is queued).
		l.Release(pid)
		return <-w.ch, nil
	}
	l.blocks.Add(1)

	select {
	case pid := <-w.ch:
		// The releasing goroutine transferred ownership directly: holders
		// bookkeeping stayed leased throughout, only the holder changed.
		l.handoffs.Add(1)
		return pid, nil
	case <-ctx.Done():
		if l.dequeue(w) {
			l.cancels.Add(1)
			return 0, ctx.Err()
		}
		// Lost the race: a release delivered an id while we were cancelling.
		// Take it and put it back so it is not leaked.
		l.Release(<-w.ch)
		l.cancels.Add(1)
		return 0, ctx.Err()
	}
}

// dequeue removes w from the wait queue, reporting whether it was still
// queued (false means a release already picked it and will send on w.ch).
func (l *Leaser) dequeue(w *waiter) bool {
	l.qmu.Lock()
	defer l.qmu.Unlock()
	if !l.waiters.remove(w) {
		return false
	}
	l.nwait.Add(-1)
	return true
}

// popWaiter takes the oldest waiter off the queue, nil if there is none.
func (l *Leaser) popWaiter() *waiter {
	if l.nwait.Load() == 0 {
		return nil
	}
	l.qmu.Lock()
	defer l.qmu.Unlock()
	w := l.waiters.pop()
	if w != nil {
		l.nwait.Add(-1)
	}
	return w
}

// Release returns a leased id to the pool. Releasing an id that is not
// currently leased panics: it means two goroutines believed they owned the
// same pid, which would have corrupted per-process state above.
func (l *Leaser) Release(pid int) {
	if pid < 0 || pid >= l.n {
		panic(fmt.Sprintf("runtime: release of pid %d outside [0,%d)", pid, l.n))
	}
	// Hand off to a waiter first: ownership transfers without the id ever
	// becoming free, so a TryAcquire cannot jump the queue.
	if w := l.popWaiter(); w != nil {
		w.ch <- pid
		return
	}
	l.free(pid)
}

// free is the rest of a Release that found the queue empty: push the id,
// then look at the queue again. A waiter may have queued and re-scanned the
// stripes between the first look and the push: it found nothing, and nobody
// would wake it before the next release — never, if this was the only id.
// The push and the waiter's re-scan lock the same stripe, so either the
// re-scan saw the id or the waiter count shows the waiter by now: take an id
// back out (this one, unless it is already gone — then whoever took it will
// release it and look here again) and hand it over.
func (l *Leaser) free(pid int) {
	l.release(pid)
	for l.nwait.Load() > 0 {
		pid, ok := l.takeBack()
		if !ok {
			return
		}
		if w := l.popWaiter(); w != nil {
			w.ch <- pid
			return
		}
		l.release(pid)
	}
}

// takeBack undoes a release: it pops a free id from any stripe and marks it
// leased again, counted as a push that did not happen rather than as an
// acquisition — the acquisition is the waiter's, who counts the hand-off.
func (l *Leaser) takeBack() (int, bool) {
	for i := range l.stripes {
		s := &l.stripes[i]
		s.mu.Lock()
		if pid, ok := s.pop(); ok {
			s.returns--
			s.mu.Unlock()
			l.lease(pid)
			return pid, true
		}
		s.mu.Unlock()
	}
	return 0, false
}

// release marks pid free and pushes it on its home stripe.
func (l *Leaser) release(pid int) {
	if !l.holders[pid].leased.CompareAndSwap(1, 0) {
		panic(fmt.Sprintf("runtime: pid %d released while not leased", pid))
	}
	s := &l.stripes[pid%len(l.stripes)]
	s.mu.Lock()
	s.free = append(s.free, pid)
	s.returns++
	s.mu.Unlock()
}

// lease marks pid held after it was popped from a stripe.
func (l *Leaser) lease(pid int) {
	if !l.holders[pid].leased.CompareAndSwap(0, 1) {
		panic(fmt.Sprintf("runtime: pid %d acquired while already leased", pid))
	}
}

// With acquires an id, runs fn as that process, and releases the id even if
// fn panics.
func (l *Leaser) With(ctx context.Context, fn func(pid int) error) error {
	pid, err := l.Acquire(ctx)
	if err != nil {
		return err
	}
	defer l.Release(pid)
	return fn(pid)
}

package slmem

import (
	"context"
	"fmt"
)

// Pool is a Snapshot whose operations lease a pid per call, so any goroutine
// may use it without pid management. Update writes the component owned by
// the leased pid: the pooled snapshot is a board of n single-writer slots
// written by whichever goroutine holds the slot's lease, not a map from
// goroutines to fixed slots. Scan still returns a consistent view of all
// components.
//
// Strong-linearizability contract: every pooled operation runs as the leased
// process and inherits the underlying snapshot's strong linearizability —
// once it linearizes, its position in the linearization order is fixed. The
// lease itself adds no ordering between calls: two pooled calls by the same
// goroutine may run as different pids (use Batch for a single-process
// sequence).
type Pool[V comparable] struct {
	s    *Snapshot[V]
	pids *PIDPool
}

// NewPool constructs a pooled snapshot for n processes, every component
// initialized to initial.
func NewPool[V comparable](n int, initial V) *Pool[V] {
	return NewSnapshot[V](n, initial).Pooled(NewPIDPool(n))
}

// Pooled binds the snapshot to a pid pool (sized for the same n). Use a
// shared pool to lease pids across several objects backed by the same
// process set.
func (s *Snapshot[V]) Pooled(p *PIDPool) *Pool[V] { return &Pool[V]{s: s, pids: p} }

// Update leases a pid and sets that pid's component to x.
func (p *Pool[V]) Update(ctx context.Context, x V) error {
	return p.pids.With(ctx, func(pid int) error {
		p.s.Update(pid, x)
		return nil
	})
}

// Scan leases a pid and returns a consistent copy of the component vector.
func (p *Pool[V]) Scan(ctx context.Context) ([]V, error) {
	var view []V
	err := p.pids.With(ctx, func(pid int) error {
		view = p.s.Scan(pid)
		return nil
	})
	return view, err
}

// Batch leases one pid and runs fn with a handle bound to it, amortizing the
// lease over every operation fn performs. The operations execute as one
// process's sequence: each Update and Scan is individually strongly
// linearizable, but the batch as a whole is not atomic — operations of other
// processes may linearize between them. fn must not retain the handle after
// it returns; the pid goes back to the pool (even if fn panics).
func (p *Pool[V]) Batch(ctx context.Context, fn func(h SnapshotHandle[V]) error) error {
	return p.pids.With(ctx, func(pid int) error {
		return fn(p.s.Handle(pid))
	})
}

// Unpooled returns the underlying Snapshot.
func (p *Pool[V]) Unpooled() *Snapshot[V] { return p.s }

// PIDs returns the pool of process ids backing this object.
func (p *Pool[V]) PIDs() *PIDPool { return p.pids }

// PooledCounter is a Counter whose operations lease a pid per call, so any
// goroutine may increment and read it without pid management. Each Inc and
// Read is strongly linearizable: it runs as the leased process against the
// paper's snapshot-derived counter, and once linearized its position in the
// order never changes.
type PooledCounter struct {
	c    *Counter
	pids *PIDPool
}

// NewPooledCounter constructs a counter for n processes with its own pool.
func NewPooledCounter(n int) *PooledCounter {
	return NewCounter(n).Pooled(NewPIDPool(n))
}

// Pooled binds the counter to a pid pool (sized for the same n).
func (c *Counter) Pooled(p *PIDPool) *PooledCounter { return &PooledCounter{c: c, pids: p} }

// Inc leases a pid and increments the counter.
func (c *PooledCounter) Inc(ctx context.Context) error {
	return c.pids.With(ctx, func(pid int) error {
		c.c.Inc(pid)
		return nil
	})
}

// Read leases a pid and returns the current count.
func (c *PooledCounter) Read(ctx context.Context) (uint64, error) {
	var v uint64
	err := c.pids.With(ctx, func(pid int) error {
		v = c.c.Read(pid)
		return nil
	})
	return v, err
}

// Unpooled returns the underlying Counter.
func (c *PooledCounter) Unpooled() *Counter { return c.c }

// PIDs returns the pool of process ids backing this object.
func (c *PooledCounter) PIDs() *PIDPool { return c.pids }

// PooledMaxRegister is a MaxRegister whose operations lease a pid per call.
// Each MaxWrite and MaxRead is strongly linearizable, running as the leased
// process against the snapshot-derived max-register.
type PooledMaxRegister struct {
	m    *MaxRegister
	pids *PIDPool
}

// NewPooledMaxRegister constructs a max-register for n processes with its
// own pool.
func NewPooledMaxRegister(n int) *PooledMaxRegister {
	return NewMaxRegister(n).Pooled(NewPIDPool(n))
}

// Pooled binds the max-register to a pid pool (sized for the same n).
func (m *MaxRegister) Pooled(p *PIDPool) *PooledMaxRegister {
	return &PooledMaxRegister{m: m, pids: p}
}

// MaxWrite leases a pid and raises the register to v if v exceeds its
// current value.
func (m *PooledMaxRegister) MaxWrite(ctx context.Context, v uint64) error {
	return m.pids.With(ctx, func(pid int) error {
		m.m.MaxWrite(pid, v)
		return nil
	})
}

// MaxRead leases a pid and returns the largest value ever written.
func (m *PooledMaxRegister) MaxRead(ctx context.Context) (uint64, error) {
	var v uint64
	err := m.pids.With(ctx, func(pid int) error {
		v = m.m.MaxRead(pid)
		return nil
	})
	return v, err
}

// Unpooled returns the underlying MaxRegister.
func (m *PooledMaxRegister) Unpooled() *MaxRegister { return m.m }

// PIDs returns the pool of process ids backing this object.
func (m *PooledMaxRegister) PIDs() *PIDPool { return m.pids }

// PooledObject is an Object (universal construction) whose Execute leases a
// pid per call. Each invocation is strongly linearizable (Theorem 3);
// ExecuteMany amortizes one lease over a whole sequence of invocations.
type PooledObject struct {
	o    *Object
	pids *PIDPool
}

// NewPooledObject constructs an implementation of the simple type for n
// processes with its own pool.
func NewPooledObject(t SimpleType, n int) *PooledObject {
	return NewObject(t, n).Pooled(NewPIDPool(n))
}

// Pooled binds the object to a pid pool (sized for the same n).
func (o *Object) Pooled(p *PIDPool) *PooledObject { return &PooledObject{o: o, pids: p} }

// Execute leases a pid and performs the invocation (e.g. "add(x)"),
// returning its response.
func (o *PooledObject) Execute(ctx context.Context, invocation string) (string, error) {
	var resp string
	err := o.pids.With(ctx, func(pid int) error {
		var err error
		resp, err = o.o.Execute(pid, invocation)
		return err
	})
	return resp, err
}

// ExecuteMany leases one pid and performs the invocations in order as that
// process, amortizing the lease over the whole slice. Each invocation is
// individually strongly linearizable; the batch as a whole is not atomic —
// other processes' operations may linearize between consecutive invocations.
// It stops at the first failing invocation (or at context cancellation
// between invocations) and returns the responses collected so far alongside
// the error, so callers know exactly which prefix took effect.
func (o *PooledObject) ExecuteMany(ctx context.Context, invocations []string) ([]string, error) {
	resps := make([]string, 0, len(invocations))
	err := o.pids.With(ctx, func(pid int) error {
		for i, inv := range invocations {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("batch cancelled before invocation %d: %w", i, err)
			}
			resp, err := o.o.Execute(pid, inv)
			if err != nil {
				return fmt.Errorf("invocation %d %q: %w", i, inv, err)
			}
			resps = append(resps, resp)
		}
		return nil
	})
	return resps, err
}

// GCStats leases a pid and returns the object's garbage-collection
// progress; see Object.GCStats.
func (o *PooledObject) GCStats(ctx context.Context) (ObjectGCStats, error) {
	var stats ObjectGCStats
	err := o.pids.With(ctx, func(pid int) error {
		stats = o.o.GCStats(pid)
		return nil
	})
	return stats, err
}

// Unpooled returns the underlying Object.
func (o *PooledObject) Unpooled() *Object { return o.o }

// PIDs returns the pool of process ids backing this object.
func (o *PooledObject) PIDs() *PIDPool { return o.pids }

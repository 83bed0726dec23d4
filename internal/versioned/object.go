package versioned

import (
	"fmt"

	"slmem/internal/maxreg"
	"slmem/internal/memory"
	"slmem/internal/snapshot"
)

// Inner is a linearizable versioned object (paper Section 4.1): updates
// increase its version number, and reads return the state together with the
// version. The versioned double-collect snapshot is the canonical instance;
// any state machine whose state is a function of the snapshot contents can
// be layered on it.
type Inner[St any] interface {
	// Apply performs an update as process pid.
	Apply(pid int, arg St)
	// ReadVersioned returns the current state and version as process pid.
	ReadVersioned(pid int) (St, uint64)
}

// Object is the generic Denysyuk–Woelfel construction: a strongly
// linearizable object built from a linearizable versioned object and an
// augmented max-register. It is lock-free and its space grows with the
// number of updates (the limitation the paper's Algorithm 3 removes for
// snapshots).
type Object[St any] struct {
	inner Inner[St]
	r     *maxreg.Bounded[St]
}

// NewObject wraps a linearizable versioned object; initial is the state
// returned before any update.
func NewObject[St any](alloc memory.Allocator, inner Inner[St], initial St) *Object[St] {
	return &Object[St]{
		inner: inner,
		r:     maxreg.NewUnbounded[St](alloc, initial),
	}
}

// Update applies an update and publishes the resulting (version, state)
// pair, as process pid.
func (o *Object[St]) Update(pid int, arg St) {
	o.inner.Apply(pid, arg)
	state, version := o.inner.ReadVersioned(pid)
	if err := o.r.MaxWrite(pid, version, state); err != nil {
		// Unreachable: versions are uint64 and the register spans uint64.
		panic(fmt.Sprintf("versioned: %v", err))
	}
}

// Read returns the state attached to the highest published version, as
// process pid.
func (o *Object[St]) Read(pid int) St {
	_, state := o.r.MaxRead(pid)
	return state
}

// --- Versioned counter -----------------------------------------------------------

// counterInner is a linearizable versioned counter over the versioned
// snapshot: component p holds process p's increment count; the state is the
// total and the version is the snapshot version (which increases with every
// increment).
type counterInner struct {
	s *snapshot.DoubleCollect[uint64]
	// local per-process counts (single writer per component)
	count []uint64
}

var _ Inner[uint64] = (*counterInner)(nil)

func (c *counterInner) Apply(pid int, delta uint64) {
	c.count[pid] += delta
	c.s.Update(pid, c.count[pid])
}

func (c *counterInner) ReadVersioned(pid int) (uint64, uint64) {
	view, version, _ := c.s.ScanVersioned(pid)
	var sum uint64
	for _, v := range view {
		sum += v
	}
	return sum, version
}

// Counter is a lock-free strongly linearizable counter built with the
// Section 4.1 construction — the unbounded-space baseline for the bounded
// counter of internal/core (paper Section 4.5).
type Counter struct {
	obj *Object[uint64]
}

// NewCounter constructs the counter for n processes.
func NewCounter(alloc memory.Allocator, n int) *Counter {
	inner := &counterInner{
		s:     snapshot.NewDoubleCollect[uint64](alloc, n, 0),
		count: make([]uint64, n),
	}
	return &Counter{obj: NewObject[uint64](alloc, inner, 0)}
}

// Inc increments the counter as process pid.
func (c *Counter) Inc(pid int) { c.obj.Update(pid, 1) }

// Read returns the current count as process pid.
func (c *Counter) Read(pid int) uint64 { return c.obj.Read(pid) }

// --- Versioned max-register --------------------------------------------------------

// maxInner is a linearizable versioned max-register over the versioned
// snapshot: component p holds the largest value process p wrote; the state
// is the global maximum.
type maxInner struct {
	s     *snapshot.DoubleCollect[uint64]
	local []uint64
}

var _ Inner[uint64] = (*maxInner)(nil)

func (m *maxInner) Apply(pid int, v uint64) {
	if v > m.local[pid] {
		m.local[pid] = v
		m.s.Update(pid, v)
	}
}

func (m *maxInner) ReadVersioned(pid int) (uint64, uint64) {
	view, version, _ := m.s.ScanVersioned(pid)
	var max uint64
	for _, v := range view {
		if v > max {
			max = v
		}
	}
	return max, version
}

// MaxRegister is a lock-free strongly linearizable max-register built with
// the Section 4.1 construction.
type MaxRegister struct {
	obj *Object[uint64]
}

// NewMaxRegister constructs the max-register for n processes, initially 0.
func NewMaxRegister(alloc memory.Allocator, n int) *MaxRegister {
	inner := &maxInner{
		s:     snapshot.NewDoubleCollect[uint64](alloc, n, 0),
		local: make([]uint64, n),
	}
	return &MaxRegister{obj: NewObject[uint64](alloc, inner, 0)}
}

// MaxWrite raises the register to v, as process pid.
func (m *MaxRegister) MaxWrite(pid int, v uint64) { m.obj.Update(pid, v) }

// MaxRead returns the largest value written, as process pid.
func (m *MaxRegister) MaxRead(pid int) uint64 { return m.obj.Read(pid) }

// Package memory provides the shared-memory base objects of the paper's
// model: atomic multi-reader multi-writer registers.
//
// Algorithms are written once against the Register interface and an
// Allocator, and run in two modes:
//
//   - native: registers are sync/atomic pointers (a hardware atomic load or
//     store of a pointer is an atomic register), used by examples, soak
//     tests, and benchmarks;
//   - simulated: registers are owned by the deterministic scheduler in
//     internal/sched, where each access is one scheduled step.
//
// Every Register method takes the id of the calling process. Native
// registers ignore it; simulated registers use it to attribute the step and
// to block the caller until the adversary schedules it.
package memory

import (
	"fmt"
	"sync/atomic"
	"unsafe"
)

// Register is an atomic multi-reader multi-writer register.
//
// Values written to a register must be treated as immutable: the register
// stores them verbatim and may hand the same value to many readers.
type Register interface {
	// Read returns the current value, as a step of process pid.
	Read(pid int) any
	// Write replaces the current value, as a step of process pid.
	Write(pid int, v any)
	// Name returns the register's allocation name (for transcripts).
	Name() string
}

// Allocator creates registers. Implementations count allocations so that
// space-complexity experiments can report register usage.
type Allocator interface {
	// NewRegister returns a fresh register initialized to init. The name
	// appears in transcripts and space reports; allocators may suffix it to
	// keep names unique.
	NewRegister(name string, init any) Register
	// Registers returns the number of registers allocated so far.
	Registers() int
}

// --- Native registers --------------------------------------------------------

// Native registers are padded out to a full cache line (64 bytes). Adjacent
// per-process components (one register per pid, allocated back to back) would
// otherwise land on the same line, and every write by one process would
// invalidate the line its neighbours are spinning on — false sharing that the
// collect loops of the snapshot algorithms are particularly exposed to.
const cacheLine = 64

type nativeRegister struct {
	name string
	v    atomic.Pointer[any]
	_    [cacheLine - 24]byte // name (16) + v (8) = 24
}

var _ Register = (*nativeRegister)(nil)

func (r *nativeRegister) Read(int) any {
	return *r.v.Load()
}

func (r *nativeRegister) Write(_ int, v any) {
	r.v.Store(&v)
}

func (r *nativeRegister) Name() string { return r.name }

// NativeAllocator allocates registers backed by sync/atomic. The zero value
// is ready to use. It is safe for concurrent use.
type NativeAllocator struct {
	count atomic.Int64
}

var _ Allocator = (*NativeAllocator)(nil)

// NewRegister implements Allocator.
func (a *NativeAllocator) NewRegister(name string, init any) Register {
	a.count.Add(1)
	r := &nativeRegister{name: name}
	r.v.Store(&init)
	return r
}

// Registers implements Allocator.
func (a *NativeAllocator) Registers() int { return int(a.count.Load()) }

// --- Step counting -----------------------------------------------------------

// StepCounter counts shared-memory steps per process. It is safe for
// concurrent use.
type StepCounter struct {
	reads  []atomic.Int64
	writes []atomic.Int64
}

// NewStepCounter returns a counter for n processes.
func NewStepCounter(n int) *StepCounter {
	return &StepCounter{
		reads:  make([]atomic.Int64, n),
		writes: make([]atomic.Int64, n),
	}
}

// Reads returns the number of register reads by pid.
func (c *StepCounter) Reads(pid int) int64 { return c.reads[pid].Load() }

// Writes returns the number of register writes by pid.
func (c *StepCounter) Writes(pid int) int64 { return c.writes[pid].Load() }

// Steps returns reads+writes by pid.
func (c *StepCounter) Steps(pid int) int64 { return c.Reads(pid) + c.Writes(pid) }

// TotalSteps returns reads+writes across all processes.
func (c *StepCounter) TotalSteps() int64 {
	var sum int64
	for i := range c.reads {
		sum += c.reads[i].Load() + c.writes[i].Load()
	}
	return sum
}

// Reset zeroes all counters.
func (c *StepCounter) Reset() {
	for i := range c.reads {
		c.reads[i].Store(0)
		c.writes[i].Store(0)
	}
}

type countingRegister struct {
	inner Register
	c     *StepCounter
}

var _ Register = (*countingRegister)(nil)

func (r *countingRegister) Read(pid int) any {
	r.c.reads[pid].Add(1)
	return r.inner.Read(pid)
}

func (r *countingRegister) Write(pid int, v any) {
	r.c.writes[pid].Add(1)
	r.inner.Write(pid, v)
}

func (r *countingRegister) Name() string { return r.inner.Name() }

// CountingAllocator decorates an Allocator so that every register it hands
// out counts steps into Counter.
type CountingAllocator struct {
	Inner   Allocator
	Counter *StepCounter
}

var _ Allocator = (*CountingAllocator)(nil)

// NewRegister implements Allocator.
func (a *CountingAllocator) NewRegister(name string, init any) Register {
	return &countingRegister{inner: a.Inner.NewRegister(name, init), c: a.Counter}
}

// Registers implements Allocator.
func (a *CountingAllocator) Registers() int { return a.Inner.Registers() }

// --- Typed wrapper -----------------------------------------------------------

// typedNative is the allocation-lean native register behind Reg's fast path:
// values are stored as typed pointers, so a write costs one heap cell (the V
// copy) instead of the two (interface box plus pointer cell) the untyped
// nativeRegister pays. Padded to a cache line like nativeRegister, so
// per-process register arrays do not false-share.
//
// v is a bare unsafe.Pointer rather than an atomic.Pointer[V] because of the
// inliner: with its native path an atomic.LoadPointer and a conversion,
// Reg.Read costs exactly the budget of 80; through atomic.Pointer's generic
// Load it costs 94, and every register read in every algorithm is a call.
type typedNative[V any] struct {
	name string
	v    unsafe.Pointer       // a *V, loaded and stored atomically, never written through
	_    [cacheLine - 24]byte // name (16) + v (8) = 24
}

func (r *typedNative[V]) write(v V) {
	p := new(V)
	*p = v
	atomic.StorePointer(&r.v, unsafe.Pointer(p))
}

// Word is a native register holding one 64-bit word in place: a read is one
// load of the register's own cache line and a write allocates nothing, where
// a typed register loads a pointer and then the cell it points at — written,
// hence owned, by another core — and allocates that cell on every write.
//
// Only a register whose whole value domain packs into 64 bits can use it,
// and in the paper's algorithms that is exactly one: the announcement
// registers A[q] of the ABA-detecting register (a process id paired with a
// sequence number bounded by 2n+1). Every other register holds an arbitrary
// V or an unbounded sequence number. There is no simulated Word: under any
// allocator but a bare *NativeAllocator NewWord declines, and the caller
// keeps an ordinary Reg, so simulated schedules and transcripts are the same
// with and without it.
type Word struct {
	name string
	v    atomic.Uint64
	_    [cacheLine - 24]byte // name (16) + v (8) = 24
}

// NewWord allocates a native word register initialized to init, or reports
// false when the allocator is not a bare *NativeAllocator.
func NewWord(a Allocator, name string, init uint64) (*Word, bool) {
	na, ok := a.(*NativeAllocator)
	if !ok {
		return nil, false
	}
	na.count.Add(1)
	w := &Word{name: name}
	w.v.Store(init)
	return w, true
}

// Read returns the current word.
func (w *Word) Read() uint64 { return w.v.Load() }

// Write replaces the current word.
func (w *Word) Write(v uint64) { w.v.Store(v) }

// Name returns the register's allocation name.
func (w *Word) Name() string { return w.name }

// Reg is a typed view over a register. The zero value is unusable; construct
// with NewReg.
//
// When the allocator is a plain *NativeAllocator, the register is backed by
// a typed atomic pointer directly (no interface boxing per access); any other
// allocator — counting decorators, the simulated scheduler — goes through the
// untyped Register interface it hands out.
type Reg[V any] struct {
	fast *typedNative[V] // non-nil iff allocated from a bare NativeAllocator
	r    Register
}

// NewReg allocates a register holding values of type V, initialized to init.
func NewReg[V any](a Allocator, name string, init V) Reg[V] {
	if na, ok := a.(*NativeAllocator); ok {
		na.count.Add(1)
		fast := &typedNative[V]{name: name}
		fast.v = unsafe.Pointer(&init)
		return Reg[V]{fast: fast}
	}
	return Reg[V]{r: a.NewRegister(name, init)}
}

// Read returns the current value as a step of process pid. The native path
// inlines into the caller (CI checks it does); the rest is out of line.
func (t Reg[V]) Read(pid int) V {
	if t.fast != nil {
		return *(*V)(atomic.LoadPointer(&t.fast.v))
	}
	return readSlow[V](t.r, pid)
}

// readSlow is Read through an allocator's Register. A register is allocated
// typed and written only through Reg, so a value of another type means memory
// corruption or API misuse; the message formats the value already read, as a
// second read would be one more step of pid.
func readSlow[V any](r Register, pid int) V {
	x := r.Read(pid)
	v, ok := x.(V)
	if !ok {
		panic(fmt.Sprintf("memory: register %s holds %T, want %T", r.Name(), x, v))
	}
	return v
}

// Write stores v as a step of process pid.
func (t Reg[V]) Write(pid int, v V) {
	if t.fast != nil {
		t.fast.write(v)
		return
	}
	t.r.Write(pid, v)
}

// Name returns the underlying register name.
func (t Reg[V]) Name() string {
	if t.fast != nil {
		return t.fast.name
	}
	return t.r.Name()
}

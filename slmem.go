// Package slmem provides lock-free strongly linearizable shared-memory
// objects built only from atomic registers, implementing the algorithms of
// "Strongly Linearizable Implementations of Snapshots and Other Types"
// (Ovens and Woelfel, PODC 2019).
//
// Strong linearizability (Golab, Higham, Woelfel 2011) strengthens
// linearizability with prefix preservation: once an operation has
// linearized, its position in the linearization order never changes. This
// is exactly the property randomized algorithms need under a strong
// adversary — with merely linearizable objects, a scheduler that sees all
// coin flips can retroactively reorder operations and skew outcome
// distributions (see examples/adversary).
//
// The package offers:
//
//   - Snapshot: the paper's bounded-space lock-free strongly linearizable
//     single-writer snapshot (Algorithm 3).
//   - ABARegister: its building block, the lock-free strongly linearizable
//     ABA-detecting register (Algorithm 2).
//   - Counter and MaxRegister: strongly linearizable types derived from the
//     snapshot (Section 4.5).
//   - Object: the Aspnes–Herlihy universal construction, turning any simple
//     type — any type whose operations pairwise commute or overwrite — into
//     a lock-free strongly linearizable implementation (Theorem 3).
//
// Concurrency model: every method takes the calling process id
// ("pid", 0 <= pid < n, fixed at construction). Each pid owns per-process
// local state, so at most one goroutine may use a given pid at a time;
// different pids may run fully concurrently. Handle is a convenience that
// binds a pid.
package slmem

import (
	"slmem/internal/aba"
	"slmem/internal/core"
	"slmem/internal/memory"
	"slmem/internal/spec"
	"slmem/internal/universal"
)

// Snapshot is a lock-free strongly linearizable single-writer snapshot: an
// n-component vector where component p is writable only by process p and
// Scan returns a consistent view of all components. It uses a bounded
// number of registers (paper Theorem 2).
type Snapshot[V comparable] struct {
	inner *core.Snapshot[V]
}

// NewSnapshot constructs a snapshot for n processes with every component
// initialized to initial.
func NewSnapshot[V comparable](n int, initial V) *Snapshot[V] {
	var alloc memory.NativeAllocator
	return &Snapshot[V]{inner: core.New[V](&alloc, n, initial)}
}

// Update sets component pid to x, as process pid: a constant number of
// substrate operations.
func (s *Snapshot[V]) Update(pid int, x V) { s.inner.Update(pid, x) }

// Scan returns a copy of the component vector, as process pid. Lock-free.
func (s *Snapshot[V]) Scan(pid int) []V { return s.inner.Scan(pid) }

// View is Scan without the copy: the component vector as the snapshot's
// register R holds it (Algorithm 3, line 54), shared with every process that
// reads it until the next update publishes a new one. The caller must not
// write to it and may keep it for as long as it likes: a stored view is
// never written again.
func (s *Snapshot[V]) View(pid int) []V { return s.inner.View(pid) }

// Handle binds a process id for convenience.
func (s *Snapshot[V]) Handle(pid int) SnapshotHandle[V] {
	return SnapshotHandle[V]{s: s, pid: pid}
}

// SnapshotHandle is a Snapshot bound to one process id. At most one
// goroutine may use a handle (and its pid) at a time.
type SnapshotHandle[V comparable] struct {
	s   *Snapshot[V]
	pid int
}

// Update sets this process's component to x.
func (h SnapshotHandle[V]) Update(x V) { h.s.Update(h.pid, x) }

// Scan returns a copy of the component vector.
func (h SnapshotHandle[V]) Scan() []V { return h.s.Scan(h.pid) }

// View is Scan without the copy: read-only, shared with other readers, and
// never written again (see Snapshot.View).
func (h SnapshotHandle[V]) View() []V { return h.s.View(h.pid) }

// PID returns the bound process id.
func (h SnapshotHandle[V]) PID() int { return h.pid }

// ABARegister is a lock-free strongly linearizable ABA-detecting register
// (paper Theorem 1): a register whose DRead additionally reports whether any
// DWrite occurred since the calling process's previous DRead — even if the
// value is unchanged (the ABA problem).
type ABARegister[V comparable] struct {
	inner *aba.Strong[V]
}

// NewABARegister constructs an ABA-detecting register for n processes,
// initialized to initial.
func NewABARegister[V comparable](n int, initial V) *ABARegister[V] {
	var alloc memory.NativeAllocator
	return &ABARegister[V]{inner: aba.NewStrong[V](&alloc, n, initial)}
}

// DWrite writes x as process pid. Wait-free: exactly two shared steps.
func (r *ABARegister[V]) DWrite(pid int, x V) { r.inner.DWrite(pid, x) }

// DRead returns the current value and whether any DWrite happened since
// this process's previous DRead (or since initialization). Lock-free.
func (r *ABARegister[V]) DRead(pid int) (V, bool) { return r.inner.DRead(pid) }

// Counter is a lock-free strongly linearizable counter using a bounded
// number of registers (paper Section 4.5).
type Counter struct {
	inner *core.Counter
}

// NewCounter constructs a counter for n processes, starting at zero.
func NewCounter(n int) *Counter {
	var alloc memory.NativeAllocator
	return &Counter{inner: core.NewCounter(&alloc, n)}
}

// Inc increments the counter as process pid.
func (c *Counter) Inc(pid int) { c.inner.Inc(pid) }

// Read returns the current count as process pid.
func (c *Counter) Read(pid int) uint64 { return c.inner.Read(pid) }

// MaxRegister is a lock-free strongly linearizable unbounded max-register
// using a bounded number of registers (paper Section 4.5).
type MaxRegister struct {
	inner *core.MaxRegister
}

// NewMaxRegister constructs a max-register for n processes, initially 0.
func NewMaxRegister(n int) *MaxRegister {
	var alloc memory.NativeAllocator
	return &MaxRegister{inner: core.NewMaxRegister(&alloc, n)}
}

// MaxWrite raises the register to v if v exceeds its current value.
func (m *MaxRegister) MaxWrite(pid int, v uint64) { m.inner.MaxWrite(pid, v) }

// MaxRead returns the largest value ever written.
func (m *MaxRegister) MaxRead(pid int) uint64 { return m.inner.MaxRead(pid) }

// Spec is a deterministic sequential specification: a state machine over
// canonical string states, invocations (e.g. "add(x)"), and responses.
type Spec = spec.Spec

// SimpleType describes a simple type (paper Definition 33): a sequential
// specification plus the commute/overwrite calculus over invocations. Every
// simple type gets a lock-free strongly linearizable implementation through
// NewObject (paper Theorem 3).
type SimpleType = universal.Type

// Provided simple types for NewObject.
type (
	// CounterType: inc()/read().
	CounterType = universal.CounterType
	// SetType: add(x)/contains(x), a grow-only set.
	SetType = universal.SetType
	// AccumulatorType: addTo(x)/read(), a commutative integer accumulator.
	AccumulatorType = universal.AccumulatorType
	// MaxRegType: maxWrite(x)/maxRead().
	MaxRegType = universal.MaxRegType
	// RegisterType: write(x)/read(), a multi-writer register.
	RegisterType = universal.RegisterType
	// SnapshotType: update(x)/scan() over N single-writer components.
	SnapshotType = universal.SnapshotType
	// FuncType builds a custom simple type from closures; pair it with
	// FuncSpec for the sequential specification. Validate custom types with
	// ValidateSimple before use.
	FuncType = universal.FuncType
	// FuncSpec builds a sequential specification from closures.
	FuncSpec = universal.FuncSpec
)

// Object is a lock-free strongly linearizable implementation of a simple
// type via the Aspnes–Herlihy universal construction over the strongly
// linearizable snapshot. By default the shared history grows with every
// operation (the construction is wait-free but not bounded wait-free);
// SetGC bounds it by low-watermark truncation.
type Object struct {
	inner *universal.Object
}

// NewObject constructs an implementation of the simple type for n processes.
func NewObject(t SimpleType, n int) *Object {
	var alloc memory.NativeAllocator
	return &Object{inner: universal.New(&alloc, t, n)}
}

// Execute performs the invocation (e.g. "add(x)") as process pid and
// returns its response. A process-local replay cache amortizes the cost to
// the number of operations since this process's previous one — or, when a
// concurrent straggler forces it lower, since one of its last few — instead
// of the whole history length.
func (o *Object) Execute(pid int, invocation string) (string, error) {
	return o.inner.Execute(pid, invocation)
}

// SetCaching enables or disables the replay cache (enabled by default); see
// the internal/universal package docs. Disabling forces every Execute
// through the full history replay — useful only for measurements and
// differential testing. Must not be called concurrently with Execute.
func (o *Object) SetCaching(on bool) { o.inner.SetCaching(on) }

// ObjectCacheStats counts replay-cache outcomes across an Object's
// processes: Hits (delta replays from the process's newest node) and, among
// those, Covered (one scanned node had scanned the rest of the view, so its
// state was taken and nothing replayed), Misses (a straggler forced a lower
// floor) and, among those, RootReplays (none of the last nine nodes the
// process keeps above the truncation root was covered, so it replayed every
// live node from that root), and Refused (the kept nodes misses extracted
// from in vain; a miss steps without extracting past those a refusal shows
// are refused too).
type ObjectCacheStats = universal.CacheStats

// CacheStats returns the replay-cache outcome counters.
func (o *Object) CacheStats() ObjectCacheStats { return o.inner.CacheStats() }

// ObjectGCOptions configures an Object's precedence-graph garbage
// collection; see SetGC.
type ObjectGCOptions = universal.GCOptions

// ObjectGCStats describes an Object's garbage-collection progress; see
// GCStats.
type ObjectGCStats = universal.GCStats

// DefaultObjectGCWindow is the per-process collection window SetGC uses
// when ObjectGCOptions.Window is unset.
const DefaultObjectGCWindow = universal.DefaultGCWindow

// SetGC bounds the object's memory: completed operations below every
// process's low watermark are folded into the truncation root's state and
// their history nodes reclaimed, preserving strong linearizability (the
// truncated prefix is an exact prefix of every future linearization). Like
// SetCaching it must not be called concurrently with Execute; unlike
// caching it cannot be undone — calling SetGC again only retunes the
// window. Note a process that stops executing pins collection at its last
// watermark; one that never executes pins nothing, whatever GCStats it reads.
func (o *Object) SetGC(opts ObjectGCOptions) { o.inner.SetGC(opts) }

// GCEnabled reports whether SetGC has enabled history truncation.
func (o *Object) GCEnabled() bool { return o.inner.GCEnabled() }

// GCStats returns garbage-collection progress, reading as process pid (same
// pid ownership rules as Execute). Unlike an Execute it does not enter pid
// into the collector's protocol: it counts live nodes from one scan's indexes
// and pins nothing (see SetGC). With GC disabled only LiveNodes is populated,
// with the full history size.
func (o *Object) GCStats(pid int) ObjectGCStats { return o.inner.GCStats(pid) }

// ValidateSimple checks that the type's invocations pairwise commute or
// overwrite (Definition 33) over the given invocation and pid samples. An
// empty pid sample is an error.
func ValidateSimple(t SimpleType, invocations []string, pids []int) error {
	return universal.ValidateSimple(t, invocations, pids)
}

// Bot is the canonical encoding of an unset value (the paper's ⊥) used by
// the string-typed specifications.
const Bot = spec.Bot

// Package registry provides a named-object registry: a concurrent map from
// (kind, name) to lazily created strongly linearizable objects, every one of
// them leasing process ids from the registry's one pool. It is the state
// layer of cmd/slserve — callers name an object ("counter/clicks",
// "snapshot/board") and get back a pooled handle any goroutine can use.
//
// Kinds are open: the registry resolves them through the driver API of
// internal/kind, so a new type (see internal/bag) plugs in by registering a
// driver — no registry edits. The four paper kinds are registered by
// internal/kind/builtin, imported here so every registry serves them.
package registry

import (
	"fmt"
	"maps"
	"sort"
	"sync"
	"sync/atomic"

	"slmem"
	"slmem/internal/kind"
	"slmem/internal/kind/builtin"
)

// Kind names an object kind. The set of valid kinds is open — any name
// with a registered driver (kind.Register) resolves.
type Kind string

// Kind names of the built-in drivers (internal/kind/builtin), kept as
// constants for compile-time checked callers; kind.Names reports the full
// registered set.
const (
	KindCounter     Kind = "counter"
	KindMaxRegister Kind = "maxreg"
	KindSnapshot    Kind = "snapshot"
	KindObject      Kind = "object"
)

// Options configure a Registry.
type Options struct {
	// Procs is the size n of the process pool shared by every object. It
	// bounds the number of concurrently executing operations. Defaults to 16.
	Procs int
}

// Registry is a concurrent map from (kind, name) to driver-created
// instances, created lazily on first use. Objects of every kind share one
// PIDPool of Procs ids, so the registry as a whole admits at most Procs
// concurrent operations: the paper's fixed-n model surfacing as a natural
// admission limit.
type Registry struct {
	procs int
	pool  *slmem.PIDPool

	// tables maps a Kind to its *table, made on the kind's first use. An
	// unregistered kind makes none, so the map holds at most one entry per
	// registered kind whatever names clients send. A published map is never
	// written: a kind's first use publishes a copy with its table added,
	// under mu, so a lookup is one atomic load and a map index.
	mu     sync.Mutex
	tables atomic.Pointer[map[Kind]*table]
}

// table is one kind's objects: the kind's driver, resolved once, a map from
// name to kind.Instance, how many instances it has created, and how many
// batch entries have named the kind. An object is created once and never
// replaced or removed, which is the read-mostly, disjoint-key use sync.Map
// serves without a lock.
type table struct {
	driver  *kind.Driver
	objects sync.Map
	created atomic.Int64
	// ops is written by every batch naming the kind, so it keeps a cache
	// line of its own, away from the driver and objects every Get and
	// compile reads.
	_   [64]byte
	ops atomic.Int64
	_   [56]byte
}

// New constructs a registry.
func New(opts Options) *Registry {
	if opts.Procs <= 0 {
		opts.Procs = 16
	}
	r := &Registry{procs: opts.Procs, pool: slmem.NewPIDPool(opts.Procs)}
	r.tables.Store(&map[Kind]*table{})
	return r
}

// Procs returns the size of the shared process pool.
func (r *Registry) Procs() int { return r.procs }

// Pool returns the shared pid pool (for metrics and direct leasing).
func (r *Registry) Pool() *slmem.PIDPool { return r.pool }

// Get returns the named instance of kind k and the pid pool its operations
// lease from — always Pool() — creating the instance through the registered
// driver on first use (req parameterizes creation, e.g. the universal
// object's type). The fast path is two lock-free map loads: the kind's table,
// from the published kind map, then the name. Unknown kinds are
// kind.NotFound errors; driver creation errors are returned without
// registering anything.
func (r *Registry) Get(k Kind, name string, req kind.Request) (kind.Instance, *slmem.PIDPool, error) {
	t, ok := r.table(k)
	if !ok {
		return nil, nil, kind.UnknownKind(string(k))
	}
	inst, err := r.instance(t, name, req)
	if err != nil {
		return nil, nil, err
	}
	return inst, r.pool, nil
}

// table returns kind k's table, making it on the kind's first use; ok is
// false when no driver is registered under k.
func (r *Registry) table(k Kind) (*table, bool) {
	if t, ok := (*r.tables.Load())[k]; ok {
		return t, true
	}
	d, ok := kind.Lookup(string(k))
	if !ok {
		return nil, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old := *r.tables.Load()
	if t, ok := old[k]; ok {
		return t, true
	}
	next := maps.Clone(old)
	t := &table{driver: d}
	next[k] = t
	r.tables.Store(&next)
	return t, true
}

// instance returns t's object called name, creating it on a miss without a
// lock, so a slow New for one name never stalls another name's first use.
// Concurrent first uses of one name may each build one; the first to publish
// wins, and the others drop theirs uncounted and return the winner's.
func (r *Registry) instance(t *table, name string, req kind.Request) (kind.Instance, error) {
	if inst, ok := t.objects.Load(name); ok {
		return inst.(kind.Instance), nil
	}
	inst, err := t.driver.New(kind.Env{Name: name, Procs: r.procs, Pool: r.pool, Req: req})
	if err != nil {
		return nil, err
	}
	if won, loaded := t.objects.LoadOrStore(name, inst); loaded {
		return won.(kind.Instance), nil
	}
	t.created.Add(1)
	return inst, nil
}

// mustGet is Get for built-in kinds whose creation cannot fail; it backs
// the typed accessors.
func (r *Registry) mustGet(k Kind, name string, req kind.Request) kind.Instance {
	inst, _, err := r.Get(k, name, req)
	if err != nil {
		panic(fmt.Sprintf("registry: builtin kind %q: %v", k, err))
	}
	return inst
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *slmem.PooledCounter {
	return r.mustGet(KindCounter, name, kind.Request{}).(kind.Unwrapper).Unwrap().(*slmem.PooledCounter)
}

// MaxRegister returns the named max-register, creating it on first use.
func (r *Registry) MaxRegister(name string) *slmem.PooledMaxRegister {
	return r.mustGet(KindMaxRegister, name, kind.Request{}).(kind.Unwrapper).Unwrap().(*slmem.PooledMaxRegister)
}

// Snapshot returns the named snapshot of string components, creating it on
// first use. Its components number Procs: one slot per process id.
func (r *Registry) Snapshot(name string) *slmem.Pool[string] {
	return r.mustGet(KindSnapshot, name, kind.Request{}).(kind.Unwrapper).Unwrap().(*slmem.Pool[string])
}

// Object returns the named universal-construction object of the given
// simple type, creating it on first use. Subsequent calls must name the
// same type.
func (r *Registry) Object(name, typeName string) (*slmem.PooledObject, error) {
	// Validate the type before Get: an unknown type must not register an
	// object (and must not panic the builtin accessor path).
	if _, err := builtin.ObjectType(typeName); err != nil {
		return nil, fmt.Errorf("registry: %v", err)
	}
	inst, _, err := r.Get(KindObject, name, kind.Request{Op: "execute", Type: typeName})
	if err != nil {
		return nil, err
	}
	// Compile checks the type, as it does for every served execute; with no
	// invocation it fails, and only a conflict matters here.
	if _, err := inst.Compile(kind.Request{Op: "execute", Type: typeName}); kind.IsConflict(err) {
		return nil, fmt.Errorf("registry: %q: %w", name, err)
	}
	return inst.(kind.Unwrapper).Unwrap().(*slmem.PooledObject), nil
}

// Names returns the names registered under k, sorted.
func (r *Registry) Names(k Kind) []string {
	t, ok := (*r.tables.Load())[k]
	if !ok {
		return nil
	}
	return t.names()
}

// names returns the names of t's objects, sorted.
func (t *table) names() []string {
	var names []string
	t.objects.Range(func(name, _ any) bool {
		names = append(names, name.(string))
		return true
	})
	sort.Strings(names)
	return names
}

// KindPoolStats is the element type of Stats.KindPools, which is always
// empty: every kind leases from the one shared pool. It stays only because
// benchmarks/matrix ranges over KindPools, until Matrix v2 (c) (ROADMAP)
// deletes both.
type KindPoolStats struct {
	// Procs is the pool size.
	Procs int `json:"procs"`
	// PIDsInUse is how many of its ids are leased right now.
	PIDsInUse int `json:"pids_in_use"`
	// Pool reports how its lease acquisitions were served.
	Pool slmem.PoolStats `json:"pool"`
}

// Stats is a point-in-time summary of the registry.
type Stats struct {
	// Procs is the shared pool size.
	Procs int `json:"procs"`
	// PIDsInUse is how many shared-pool process ids are leased right now.
	PIDsInUse int `json:"pids_in_use"`
	// Objects counts created objects by kind, one entry per registered kind.
	Objects map[string]int64 `json:"objects"`
	// Ops counts batch entries by kind, one entry per registered kind: an
	// entry counts once the batch naming its kind runs, whether or not the
	// entry itself succeeds (see BatchExecuteWith).
	Ops map[string]int64 `json:"ops"`
	// Pool reports how shared-pool lease acquisitions were served.
	Pool slmem.PoolStats `json:"pool"`
	// KindPools is always empty and never encoded; see KindPoolStats.
	KindPools map[string]KindPoolStats `json:"-"`
}

// Stats returns a snapshot of registry-wide metrics.
func (r *Registry) Stats() Stats {
	names, tables := kind.Names(), *r.tables.Load()
	objects := make(map[string]int64, len(names))
	ops := make(map[string]int64, len(names))
	for _, n := range names {
		objects[n], ops[n] = 0, 0
		if t, ok := tables[Kind(n)]; ok {
			objects[n], ops[n] = t.created.Load(), t.ops.Load()
		}
	}
	return Stats{
		Procs:     r.procs,
		PIDsInUse: r.pool.InUse(),
		Objects:   objects,
		Ops:       ops,
		Pool:      r.pool.Stats(),
	}
}

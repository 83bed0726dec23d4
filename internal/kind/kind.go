// Package kind is the open driver API of the named-object registry: the
// seam through which object kinds (counter, maxreg, snapshot, object, bag,
// ...) plug into internal/registry, internal/server, and the cmds without
// any of those layers naming a kind explicitly.
//
// A driver, in the spirit of database/sql driver registration, is one
// Driver value declaring
//
//   - a kind name and an op table (introspection: GET /v1/kinds), from
//     which this package answers every op-name question — Validate refuses
//     an undeclared op and UnknownOp spells the refusal,
//   - an operand check, Operands, for the ops that take one,
//   - a constructor New that builds one named instance over a pid pool,
//     whose Instance.Compile turns a request into an executable Compiled
//     step bound to the instance.
//
// Every instance of every kind leases from the registry's one pool of n
// process ids: the paper's objects share one fixed set of n processes, so one
// leased pid may run operations on any number of objects.
//
// Drivers register themselves in an init function:
//
//	var bagDriver = kind.Driver{Info: kind.Info{Kind: "bag", Ops: ...}, New: newBag}
//
//	func init() { kind.Register(bagDriver) }
//
// and from then on the registry, the batch compiler and the HTTP server serve
// the kind with zero edits — that is the contract this package exists to
// enforce, and internal/registry's driver contract test holds every
// registered driver to it. The four paper kinds live in
// internal/kind/builtin; internal/bag adds the Ellen–Sela bag.
package kind

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"slmem"
)

// Request is the wire-level form of one operation, shared by the
// single-operation endpoints and batch entries: the op name plus the three
// operand fields every kind draws from (Value for plain operands, Type and
// Invocation for universal objects). Drivers read only the fields their ops
// need and must reject requests whose meaningful fields are malformed.
type Request struct {
	// Op names the operation, e.g. "inc".
	Op string
	// Value is the plain operand (a decimal for maxreg write, the component
	// text for snapshot update, the item for bag insert).
	Value string
	// Type names the simple type for universal-object kinds.
	Type string
	// Invocation is the invocation string for universal-object kinds.
	Invocation string
}

// Result is the outcome of one executed operation. At most one payload
// field is set, mirroring the HTTP response envelope: Value for scalar
// responses, View for vector responses, neither for pure writes.
type Result struct {
	// Value is the scalar response, if any.
	Value string
	// View is the vector response, if any. It is read-only and may be
	// shared — a snapshot scan returns the view as the object's register R
	// holds it, the same backing array for every reader until the next
	// update — and it is valid for as long as the caller keeps it: a stored
	// view is never written again. Consumers encode or copy it; none may
	// write through it.
	View []string
}

// Compiled is a validated operation bound to an instance, ready to run as a
// leased process. Run executes it as process pid; implementations must be
// safe for reuse (a driver may hand out one cached Compiled for an
// operandless op forever) and must not acquire or release pids themselves —
// the caller owns the lease.
type Compiled interface {
	// Run executes the operation as process pid.
	Run(pid int) (Result, error)
}

// Instance is one named object created by a driver. Instances are cached by
// the registry and shared by every goroutine that names them.
type Instance interface {
	// Compile validates req against this instance and returns the executable
	// step. It must not execute the operation and must return an error (not
	// panic) for ops the instance cannot run: its driver's UnknownOp for an
	// op outside the op table, and Conflict (HTTP 409) for per-instance
	// conflicts such as a universal object addressed with the wrong type.
	Compile(req Request) (Compiled, error)
}

// Unwrapper is implemented by instances that expose an underlying typed
// object, letting the registry's typed accessors stay thin shims over the
// generic driver path.
type Unwrapper interface {
	// Unwrap returns the underlying typed object (e.g. *slmem.PooledCounter).
	Unwrap() any
}

// OpInfo describes one operation a driver supports, for introspection.
type OpInfo struct {
	// Name is the op name as it appears in requests, e.g. "inc".
	Name string `json:"name"`
	// Doc is a one-line human description.
	Doc string `json:"doc,omitempty"`
}

// Env is what the registry hands a driver when creating an instance.
type Env struct {
	// Name is the object's registry name.
	Name string
	// Procs is the process-pool size n; the instance must size its
	// per-process state for pids 0..Procs-1.
	Procs int
	// Pool is the registry's pid pool, which the instance's operations lease
	// from.
	Pool *slmem.PIDPool
	// Req is the request that triggered creation; drivers whose instances
	// are parameterized (the universal object's simple type) read their
	// parameters from it.
	Req Request
}

// Info is the introspection record of one kind, the unit of GET /v1/kinds
// replies.
type Info struct {
	// Kind is the kind name, e.g. "counter". It must be non-empty, must not
	// contain '/', and is the path segment HTTP clients use.
	Kind string `json:"kind"`
	// Doc is a one-line description of the kind.
	Doc string `json:"doc,omitempty"`
	// Ops is the op table: every operation the kind supports, in stable
	// order.
	Ops []OpInfo `json:"ops"`
}

// Driver declares one object kind.
type Driver struct {
	Info
	// Operands checks the operands of a request whose op is declared, without
	// creating or touching any object: malformed operands and unknown types
	// must be rejected here so doomed requests never register objects. It is
	// nil when no op takes an operand.
	Operands func(Request) error
	// New creates the named instance from a request that already passed
	// Validate. Concurrent first uses of one name may call it more than once;
	// the registry keeps one result and drops the rest, so New must do
	// nothing but build the instance.
	New func(Env) (Instance, error)
}

// Declares reports whether op is in the driver's op table.
func (d *Driver) Declares(op string) bool {
	for i := range d.Ops {
		if d.Ops[i].Name == op {
			return true
		}
	}
	return false
}

// Validate reports whether req could ever succeed against some instance of
// the kind: an undeclared op is UnknownOp, and a declared one is left to
// Operands.
func (d *Driver) Validate(req Request) error {
	if !d.Declares(req.Op) {
		return d.UnknownOp(req.Op)
	}
	if d.Operands == nil {
		return nil
	}
	return d.Operands(req)
}

// UnknownOp builds the canonical error for an op outside the driver's op
// table, classified as not-found; every Instance.Compile returns it for an op
// it does not know.
func (d *Driver) UnknownOp(op string) error {
	names := make([]string, len(d.Ops))
	for i := range d.Ops {
		names[i] = d.Ops[i].Name
	}
	return NotFound("%s has no operation %q (want %s)", d.Kind, op, Alternatives(names))
}

// Alternatives lists names as English alternatives: "a", "a or b",
// "a, b, or c".
func Alternatives(names []string) string {
	switch len(names) {
	case 0:
		return ""
	case 1:
		return names[0]
	case 2:
		return names[0] + " or " + names[1]
	}
	return strings.Join(names[:len(names)-1], ", ") + ", or " + names[len(names)-1]
}

// --- Error classification ----------------------------------------------------

// ErrNotFound marks errors for names that do not exist in the op space:
// unknown kinds and unknown ops. HTTP maps it to 404.
var ErrNotFound = errors.New("not found")

// ErrConflict marks errors for requests that contradict existing state,
// e.g. a universal object addressed with a different type than it was
// created with. HTTP maps it to 409.
var ErrConflict = errors.New("conflict")

// classified carries a human message plus a classification sentinel, so
// error text stays clean while errors.Is sees the class.
type classified struct {
	msg   string
	class error
}

// Error implements error.
func (e *classified) Error() string { return e.msg }

// Unwrap exposes the classification sentinel to errors.Is.
func (e *classified) Unwrap() error { return e.class }

// NotFound formats an error classified as ErrNotFound.
func NotFound(format string, args ...any) error {
	return &classified{fmt.Sprintf(format, args...), ErrNotFound}
}

// Conflict formats an error classified as ErrConflict.
func Conflict(format string, args ...any) error {
	return &classified{fmt.Sprintf(format, args...), ErrConflict}
}

// IsNotFound reports whether err is classified as not-found.
func IsNotFound(err error) bool { return errors.Is(err, ErrNotFound) }

// IsConflict reports whether err is classified as a conflict.
func IsConflict(err error) bool { return errors.Is(err, ErrConflict) }

// --- Global driver registry ---------------------------------------------------

// ReservedOps are op names claimed by the registry itself for batch-level
// introspection entries; Register rejects drivers that declare them.
var ReservedOps = []string{"names", "stats"}

// catalog is the registered vocabulary, never written once published:
// drivers maps a kind name to its driver, and interned maps every registered
// kind name and op name (plus the reserved introspection ops) to one
// canonical string, so hot-path decoders can resolve vocabulary bytes to
// strings without allocating. Register publishes a new catalog with one
// store, so Lookup and Intern are one atomic load each on the hot path.
type catalog struct {
	drivers  map[string]*Driver
	interned map[string]string
}

var (
	regMu   sync.Mutex
	current atomic.Pointer[catalog]
)

func init() {
	c := &catalog{drivers: map[string]*Driver{}, interned: map[string]string{}}
	for _, op := range ReservedOps {
		c.interned[op] = op
	}
	current.Store(c)
}

// Register makes a driver available under its kind name, keeping its own
// copy of the op table. It panics if the name is empty, contains '/',
// collides with a registered driver, or declares a reserved op, or if New is
// nil — all programmer errors, following database/sql. Safe for concurrent
// use.
func Register(d Driver) {
	name := d.Kind
	if name == "" || strings.ContainsRune(name, '/') {
		panic(fmt.Sprintf("kind: invalid kind name %q", name))
	}
	if d.New == nil {
		panic(fmt.Sprintf("kind: driver %q has no New", name))
	}
	for _, op := range d.Ops {
		if slices.Contains(ReservedOps, op.Name) {
			panic(fmt.Sprintf("kind: driver %q declares reserved op %q", name, op.Name))
		}
	}
	d.Ops = slices.Clone(d.Ops)
	regMu.Lock()
	defer regMu.Unlock()
	old := current.Load()
	if _, dup := old.drivers[name]; dup {
		panic(fmt.Sprintf("kind: Register called twice for kind %q", name))
	}
	next := &catalog{drivers: maps.Clone(old.drivers), interned: maps.Clone(old.interned)}
	next.drivers[name] = &d
	next.interned[name] = name
	for _, op := range d.Ops {
		next.interned[op.Name] = op.Name
	}
	current.Store(next)
}

// Intern returns the canonical string for b when b spells a registered kind
// name, a registered op name, or a reserved introspection op. The lookup is
// keyed by string(b) inside a map index expression, which Go does not
// allocate for — hot-path decoders use it to avoid one allocation per
// vocabulary field. ok is false for anything outside the vocabulary; safe
// for concurrent use with Register.
func Intern(b []byte) (s string, ok bool) {
	s, ok = current.Load().interned[string(b)]
	return s, ok
}

// Lookup returns the driver registered under name, which callers must not
// modify. The fast path is one atomic load; safe for concurrent use with
// Register.
func Lookup(name string) (*Driver, bool) {
	d, ok := current.Load().drivers[name]
	return d, ok
}

// Names returns the registered kind names, sorted.
func Names() []string {
	m := current.Load().drivers
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Describe returns copies of the registered Infos, sorted by kind name. It
// reads one snapshot of the driver map, so a kind registered meanwhile is
// either described whole or absent.
func Describe() []Info {
	m := current.Load().drivers
	infos := make([]Info, 0, len(m))
	for _, d := range m {
		info := d.Info
		info.Ops = slices.Clone(info.Ops)
		infos = append(infos, info)
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Kind < infos[j].Kind })
	return infos
}

// UnknownKind builds the canonical error for an unregistered kind name,
// classified as not-found.
func UnknownKind(name string) error {
	return NotFound("unknown object kind %q (registered: %s)", name, strings.Join(Names(), ", "))
}

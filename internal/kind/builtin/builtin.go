// Package builtin registers the four paper kinds — counter, maxreg,
// snapshot, and the universal object — as kind drivers, so the registry,
// batch compiler, server, and benchmarks serve them through the same open
// API new kinds use. Importing the package (internal/registry does, for
// everyone) performs the registration.
package builtin

import (
	"fmt"
	"strconv"
	"sync/atomic"

	"slmem"
	"slmem/internal/kind"
)

func init() {
	kind.Register(counter)
	kind.Register(maxreg)
	kind.Register(snapshot)
	kind.Register(object)
}

// objectTypes are the simple types the universal-object kind serves, by
// their Name. Counter-like and max-register-like workloads also have
// dedicated kinds with cheaper snapshot-derived implementations; the
// universal construction carries the rest.
var objectTypes = []slmem.SimpleType{
	slmem.SetType{}, slmem.AccumulatorType{}, slmem.RegisterType{}, slmem.CounterType{}, slmem.MaxRegType{},
}

// ObjectType maps the type names accepted by the universal-object kind to
// their simple types.
func ObjectType(typeName string) (slmem.SimpleType, error) {
	for _, t := range objectTypes {
		if t.Name() == typeName {
			return t, nil
		}
	}
	names := make([]string, len(objectTypes))
	for i, t := range objectTypes {
		names[i] = t.Name()
	}
	return nil, fmt.Errorf("unknown object type %q (want %s)", typeName, kind.Alternatives(names))
}

// ValidateInvocation checks that invocation is well-formed for the named
// object type by dry-running it against the type's sequential specification
// from its initial state, without creating or touching any object. The
// provided simple types accept or reject an invocation independent of
// state, so this predicts exactly what Execute would say.
func ValidateInvocation(typeName, invocation string) error {
	t, err := ObjectType(typeName)
	if err != nil {
		return err
	}
	sp := t.Spec()
	if _, _, err := sp.Apply(sp.Initial(), 0, invocation); err != nil {
		return err
	}
	return nil
}

// --- counter -----------------------------------------------------------------

var counter = kind.Driver{
	Info: kind.Info{
		Kind: "counter",
		Doc:  "strongly linearizable counter derived from the snapshot (paper Section 4.5)",
		Ops: []kind.OpInfo{
			{Name: "inc", Doc: "increment the counter"},
			{Name: "read", Doc: "read the current count"},
		},
	},
	New: func(env kind.Env) (kind.Instance, error) {
		return &counterInstance{slmem.NewCounter(env.Procs).Pooled(env.Pool)}, nil
	},
}

type counterInstance struct{ pooled *slmem.PooledCounter }

// Compile implements kind.Instance.
func (c *counterInstance) Compile(req kind.Request) (kind.Compiled, error) {
	switch req.Op {
	case "inc":
		return counterInc{c.pooled.Unpooled()}, nil
	case "read":
		return counterRead{c.pooled.Unpooled()}, nil
	}
	return nil, counter.UnknownOp(req.Op)
}

// Unwrap implements kind.Unwrapper.
func (c *counterInstance) Unwrap() any { return c.pooled }

// counterInc is the compiled inc op.
type counterInc struct{ c *slmem.Counter }

// Run implements kind.Compiled.
func (op counterInc) Run(pid int) (kind.Result, error) {
	op.c.Inc(pid)
	return kind.Result{}, nil
}

// counterRead is the compiled read op.
type counterRead struct{ c *slmem.Counter }

// Run implements kind.Compiled.
func (op counterRead) Run(pid int) (kind.Result, error) {
	return kind.Result{Value: strconv.FormatUint(op.c.Read(pid), 10)}, nil
}

// --- maxreg ------------------------------------------------------------------

var maxreg = kind.Driver{
	Info: kind.Info{
		Kind: "maxreg",
		Doc:  "strongly linearizable max-register derived from the snapshot (paper Section 4.5)",
		Ops: []kind.OpInfo{
			{Name: "write", Doc: "raise the register to value if it exceeds the current maximum"},
			{Name: "read", Doc: "read the largest value ever written"},
		},
	},
	Operands: func(req kind.Request) error {
		if req.Op != "write" {
			return nil
		}
		_, err := parseMaxregValue(req.Value)
		return err
	},
	New: func(env kind.Env) (kind.Instance, error) {
		return &maxregInstance{slmem.NewMaxRegister(env.Procs).Pooled(env.Pool)}, nil
	},
}

// parseMaxregValue parses the operand of a write.
func parseMaxregValue(s string) (uint64, error) {
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("maxreg write needs a decimal value: %v", err)
	}
	return v, nil
}

type maxregInstance struct{ pooled *slmem.PooledMaxRegister }

// Compile implements kind.Instance.
func (m *maxregInstance) Compile(req kind.Request) (kind.Compiled, error) {
	switch req.Op {
	case "write":
		v, err := parseMaxregValue(req.Value)
		if err != nil {
			return nil, err
		}
		return maxregWrite{m.pooled.Unpooled(), v}, nil
	case "read":
		return maxregRead{m.pooled.Unpooled()}, nil
	}
	return nil, maxreg.UnknownOp(req.Op)
}

// Unwrap implements kind.Unwrapper.
func (m *maxregInstance) Unwrap() any { return m.pooled }

// maxregWrite is the compiled write op with its parsed operand.
type maxregWrite struct {
	m *slmem.MaxRegister
	v uint64
}

// Run implements kind.Compiled.
func (op maxregWrite) Run(pid int) (kind.Result, error) {
	op.m.MaxWrite(pid, op.v)
	return kind.Result{}, nil
}

// maxregRead is the compiled read op.
type maxregRead struct{ m *slmem.MaxRegister }

// Run implements kind.Compiled.
func (op maxregRead) Run(pid int) (kind.Result, error) {
	return kind.Result{Value: strconv.FormatUint(op.m.MaxRead(pid), 10)}, nil
}

// --- snapshot ----------------------------------------------------------------

var snapshot = kind.Driver{
	Info: kind.Info{
		Kind: "snapshot",
		Doc:  "the paper's bounded-space strongly linearizable single-writer snapshot (Algorithm 3)",
		Ops: []kind.OpInfo{
			{Name: "update", Doc: "set the leased pid's component to value"},
			{Name: "scan", Doc: "read a consistent view of all components"},
		},
	},
	New: func(env kind.Env) (kind.Instance, error) {
		return &snapshotInstance{slmem.NewSnapshot[string](env.Procs, "").Pooled(env.Pool)}, nil
	},
}

type snapshotInstance struct{ pooled *slmem.Pool[string] }

// Compile implements kind.Instance.
func (s *snapshotInstance) Compile(req kind.Request) (kind.Compiled, error) {
	switch req.Op {
	case "update":
		return snapshotUpdate{s.pooled.Unpooled(), req.Value}, nil
	case "scan":
		return snapshotScan{s.pooled.Unpooled()}, nil
	}
	return nil, snapshot.UnknownOp(req.Op)
}

// Unwrap implements kind.Unwrapper.
func (s *snapshotInstance) Unwrap() any { return s.pooled }

// snapshotUpdate is the compiled update op with its operand.
type snapshotUpdate struct {
	s *slmem.Snapshot[string]
	x string
}

// Run implements kind.Compiled.
func (op snapshotUpdate) Run(pid int) (kind.Result, error) {
	op.s.Update(pid, op.x)
	return kind.Result{}, nil
}

// snapshotScan is the compiled scan op.
type snapshotScan struct{ s *slmem.Snapshot[string] }

// Run implements kind.Compiled. The result is the view R holds, not a copy:
// it is immutable, and every consumer of a Result only reads it.
func (op snapshotScan) Run(pid int) (kind.Result, error) {
	return kind.Result{View: op.s.View(pid)}, nil
}

// --- universal object --------------------------------------------------------

// object's New reads the type from the creating request, and turns history
// truncation on with the default collection window, so a long-lived
// instance's memory is bounded by its process count and window rather than
// its operation count.
var object = kind.Driver{
	Info: kind.Info{
		Kind: "object",
		Doc:  "Aspnes–Herlihy universal construction over a simple type (paper Theorem 3)",
		Ops: []kind.OpInfo{
			{Name: "execute", Doc: "run one invocation (type + invocation fields) against the object"},
		},
	},
	Operands: func(req kind.Request) error { return ValidateInvocation(req.Type, req.Invocation) },
	New: func(env kind.Env) (kind.Instance, error) {
		t, err := ObjectType(env.Req.Type)
		if err != nil {
			return nil, err
		}
		obj := slmem.NewObject(t, env.Procs)
		obj.SetGC(slmem.ObjectGCOptions{Window: slmem.DefaultObjectGCWindow})
		return &objectInstance{typeName: env.Req.Type, pooled: obj.Pooled(env.Pool)}, nil
	},
}

type objectInstance struct {
	typeName string
	pooled   *slmem.PooledObject
	// last is the compiled op of the invocation validated last: a client
	// streams one invocation far more often than it alternates, and the op is
	// immutable, so a repeat costs one load and one string comparison.
	last atomic.Pointer[objectExecute]
}

// Compile implements kind.Instance. Addressing an existing object with a
// different type is a conflict (HTTP 409), checked here so it also fires
// between two ops of one batch.
func (o *objectInstance) Compile(req kind.Request) (kind.Compiled, error) {
	if req.Op != "execute" {
		return nil, object.UnknownOp(req.Op)
	}
	if req.Type != o.typeName {
		return nil, kind.Conflict("object already exists with type %q, not %q", o.typeName, req.Type)
	}
	if op := o.last.Load(); op != nil && op.inv == req.Invocation {
		return op, nil
	}
	if err := ValidateInvocation(req.Type, req.Invocation); err != nil {
		return nil, err
	}
	op := &objectExecute{o.pooled.Unpooled(), req.Invocation}
	o.last.Store(op)
	return op, nil
}

// Unwrap implements kind.Unwrapper.
func (o *objectInstance) Unwrap() any { return o.pooled }

// objectExecute is the compiled execute op with its invocation. It is handed
// out by pointer, which an interface holds without allocating.
type objectExecute struct {
	o   *slmem.Object
	inv string
}

// Run implements kind.Compiled.
func (op *objectExecute) Run(pid int) (kind.Result, error) {
	v, err := op.o.Execute(pid, op.inv)
	return kind.Result{Value: v}, err
}

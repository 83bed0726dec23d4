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
	kind.Register(counterDriver{})
	kind.Register(maxregDriver{})
	kind.Register(snapshotDriver{})
	kind.Register(objectDriver{})
}

// ObjectType maps the type names accepted by the universal-object kind to
// their simple types. Counter-like and max-register-like workloads also
// have dedicated kinds with cheaper snapshot-derived implementations; the
// universal construction carries the rest.
func ObjectType(typeName string) (slmem.SimpleType, error) {
	switch typeName {
	case "set":
		return slmem.SetType{}, nil
	case "accumulator":
		return slmem.AccumulatorType{}, nil
	case "register":
		return slmem.RegisterType{}, nil
	case "counter":
		return slmem.CounterType{}, nil
	case "maxreg":
		return slmem.MaxRegType{}, nil
	default:
		return nil, fmt.Errorf("unknown object type %q (want set, accumulator, register, counter, or maxreg)", typeName)
	}
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

type counterDriver struct{}

// Kind implements kind.Driver.
func (counterDriver) Kind() string { return "counter" }

// Doc implements kind.Driver.
func (counterDriver) Doc() string {
	return "strongly linearizable counter derived from the snapshot (paper Section 4.5)"
}

// Ops implements kind.Driver.
func (counterDriver) Ops() []kind.OpInfo {
	return []kind.OpInfo{
		{Name: "inc", Doc: "increment the counter"},
		{Name: "read", Doc: "read the current count"},
	}
}

// Validate implements kind.Driver.
func (counterDriver) Validate(req kind.Request) error {
	switch req.Op {
	case "inc", "read":
		return nil
	}
	return kind.NotFound("counter has no operation %q (want inc or read)", req.Op)
}

// New implements kind.Driver.
func (counterDriver) New(env kind.Env) (kind.Instance, error) {
	inst := &counterInstance{pooled: slmem.NewCounter(env.Procs).Pooled(env.Pool)}
	inst.inc = counterInc{inst.pooled.Unpooled()}
	inst.read = counterRead{inst.pooled.Unpooled()}
	return inst, nil
}

// counterInstance caches one Compiled per operandless op so compiling the
// hot inc/read path allocates nothing.
type counterInstance struct {
	pooled *slmem.PooledCounter
	inc    counterInc
	read   counterRead
}

// Compile implements kind.Instance.
func (c *counterInstance) Compile(req kind.Request) (kind.Compiled, error) {
	switch req.Op {
	case "inc":
		return c.inc, nil
	case "read":
		return c.read, nil
	}
	return nil, kind.NotFound("counter has no operation %q (want inc or read)", req.Op)
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

type maxregDriver struct{}

// Kind implements kind.Driver.
func (maxregDriver) Kind() string { return "maxreg" }

// Doc implements kind.Driver.
func (maxregDriver) Doc() string {
	return "strongly linearizable max-register derived from the snapshot (paper Section 4.5)"
}

// Ops implements kind.Driver.
func (maxregDriver) Ops() []kind.OpInfo {
	return []kind.OpInfo{
		{Name: "write", Doc: "raise the register to value if it exceeds the current maximum"},
		{Name: "read", Doc: "read the largest value ever written"},
	}
}

// parseMaxreg validates op + operand, returning the parsed value for write.
func parseMaxreg(req kind.Request) (uint64, error) {
	switch req.Op {
	case "write":
		v, err := strconv.ParseUint(req.Value, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("maxreg write needs a decimal value: %v", err)
		}
		return v, nil
	case "read":
		return 0, nil
	}
	return 0, kind.NotFound("maxreg has no operation %q (want write or read)", req.Op)
}

// Validate implements kind.Driver.
func (maxregDriver) Validate(req kind.Request) error {
	_, err := parseMaxreg(req)
	return err
}

// New implements kind.Driver.
func (maxregDriver) New(env kind.Env) (kind.Instance, error) {
	inst := &maxregInstance{pooled: slmem.NewMaxRegister(env.Procs).Pooled(env.Pool)}
	inst.read = maxregRead{inst.pooled.Unpooled()}
	return inst, nil
}

type maxregInstance struct {
	pooled *slmem.PooledMaxRegister
	read   maxregRead
}

// Compile implements kind.Instance.
func (m *maxregInstance) Compile(req kind.Request) (kind.Compiled, error) {
	v, err := parseMaxreg(req)
	if err != nil {
		return nil, err
	}
	if req.Op == "read" {
		return m.read, nil
	}
	return maxregWrite{m.pooled.Unpooled(), v}, nil
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

type snapshotDriver struct{}

// Kind implements kind.Driver.
func (snapshotDriver) Kind() string { return "snapshot" }

// Doc implements kind.Driver.
func (snapshotDriver) Doc() string {
	return "the paper's bounded-space strongly linearizable single-writer snapshot (Algorithm 3)"
}

// Ops implements kind.Driver.
func (snapshotDriver) Ops() []kind.OpInfo {
	return []kind.OpInfo{
		{Name: "update", Doc: "set the leased pid's component to value"},
		{Name: "scan", Doc: "read a consistent view of all components"},
	}
}

// Validate implements kind.Driver.
func (snapshotDriver) Validate(req kind.Request) error {
	switch req.Op {
	case "update", "scan":
		return nil
	}
	return kind.NotFound("snapshot has no operation %q (want update or scan)", req.Op)
}

// New implements kind.Driver.
func (snapshotDriver) New(env kind.Env) (kind.Instance, error) {
	inst := &snapshotInstance{pooled: slmem.NewSnapshot[string](env.Procs, "").Pooled(env.Pool)}
	inst.scan = snapshotScan{inst.pooled.Unpooled()}
	return inst, nil
}

type snapshotInstance struct {
	pooled *slmem.Pool[string]
	scan   snapshotScan
}

// Compile implements kind.Instance.
func (s *snapshotInstance) Compile(req kind.Request) (kind.Compiled, error) {
	switch req.Op {
	case "update":
		return snapshotUpdate{s.pooled.Unpooled(), req.Value}, nil
	case "scan":
		return s.scan, nil
	}
	return nil, kind.NotFound("snapshot has no operation %q (want update or scan)", req.Op)
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

type objectDriver struct{}

// Kind implements kind.Driver.
func (objectDriver) Kind() string { return "object" }

// Doc implements kind.Driver.
func (objectDriver) Doc() string {
	return "Aspnes–Herlihy universal construction over a simple type (paper Theorem 3)"
}

// Ops implements kind.Driver.
func (objectDriver) Ops() []kind.OpInfo {
	return []kind.OpInfo{
		{Name: "execute", Doc: "run one invocation (type + invocation fields) against the object"},
	}
}

// Validate implements kind.Driver: reject unknown ops, unknown types, and
// malformed invocations before any object exists.
func (objectDriver) Validate(req kind.Request) error {
	if req.Op != "execute" {
		return kind.NotFound("object has no operation %q (want execute)", req.Op)
	}
	return ValidateInvocation(req.Type, req.Invocation)
}

// New implements kind.Driver: the creating request's Type parameterizes the
// instance, and history truncation is on with the default collection window,
// so a long-lived instance's memory is bounded by its process count and
// window rather than its operation count.
func (objectDriver) New(env kind.Env) (kind.Instance, error) {
	t, err := ObjectType(env.Req.Type)
	if err != nil {
		return nil, err
	}
	obj := slmem.NewObject(t, env.Procs)
	obj.SetGC(slmem.ObjectGCOptions{Window: slmem.DefaultObjectGCWindow})
	return &objectInstance{
		typeName: env.Req.Type,
		pooled:   obj.Pooled(env.Pool),
	}, nil
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
		return nil, kind.NotFound("object has no operation %q (want execute)", req.Op)
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

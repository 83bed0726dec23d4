package bag

import (
	"errors"
	"strconv"

	"slmem/internal/kind"
)

// The bag registers itself as the "bag" kind: importing this package is
// all it takes for the registry, the batch compiler and the HTTP server to
// serve bags — none of those layers name the bag anywhere. Bags lease from
// the registry's one pid pool like every other kind: the Ellen–Sela bag is an
// n-process object of the same model, and the pid pool's FIFO hand-off keeps a
// hot kind from starving the rest.
func init() {
	kind.Register(driver{})
}

// EmptyValue is the Value a remove op reports when the bag was observed
// empty (the paper's ⊥ as encoded by internal/spec). An item equal to
// EmptyValue is indistinguishable from an empty bag on the wire; insert
// therefore rejects it.
const EmptyValue = "_"

type driver struct{}

// Kind implements kind.Driver.
func (driver) Kind() string { return "bag" }

// Doc implements kind.Driver.
func (driver) Doc() string {
	return "strongly linearizable bag from registers + test&set, no CAS (Ellen & Sela 2024)"
}

// Ops implements kind.Driver.
func (driver) Ops() []kind.OpInfo {
	return []kind.OpInfo{
		{Name: "insert", Doc: "add value to the bag"},
		{Name: "remove", Doc: "take some item out (value " + EmptyValue + " when empty)"},
		{Name: "size", Doc: "count the items in the bag"},
	}
}

// Validate implements kind.Driver.
func (driver) Validate(req kind.Request) error {
	switch req.Op {
	case "insert":
		if req.Value == "" {
			return errors.New("bag insert needs a non-empty value")
		}
		if req.Value == EmptyValue {
			return errors.New("bag insert value " + EmptyValue + " is reserved for the empty-remove response")
		}
		return nil
	case "remove", "size":
		return nil
	}
	return kind.NotFound("bag has no operation %q (want insert, remove, or size)", req.Op)
}

// New implements kind.Driver.
func (driver) New(env kind.Env) (kind.Instance, error) {
	inst := &instance{pooled: New(env.Procs).Pooled(env.Pool)}
	inst.remove = removeOp{inst.pooled.Unpooled()}
	inst.size = sizeOp{inst.pooled.Unpooled()}
	return inst, nil
}

// instance adapts one PooledBag to the driver codec, caching the
// operandless compiled ops.
type instance struct {
	pooled *PooledBag
	remove removeOp
	size   sizeOp
}

// Compile implements kind.Instance. Only insert carries an operand to
// check; remove and size return the cached compiled ops without re-running
// the validation the dispatch paths already performed.
func (b *instance) Compile(req kind.Request) (kind.Compiled, error) {
	switch req.Op {
	case "insert":
		if err := (driver{}).Validate(req); err != nil {
			return nil, err
		}
		return insertOp{b.pooled.Unpooled(), req.Value}, nil
	case "remove":
		return b.remove, nil
	case "size":
		return b.size, nil
	}
	return nil, kind.NotFound("bag has no operation %q (want insert, remove, or size)", req.Op)
}

// Unwrap implements kind.Unwrapper, exposing the *PooledBag.
func (b *instance) Unwrap() any { return b.pooled }

// insertOp is the compiled insert with its operand.
type insertOp struct {
	b *Bag
	x string
}

// Run implements kind.Compiled.
func (op insertOp) Run(pid int) (kind.Result, error) {
	op.b.Insert(pid, op.x)
	return kind.Result{}, nil
}

// removeOp is the compiled remove.
type removeOp struct{ b *Bag }

// Run implements kind.Compiled.
func (op removeOp) Run(pid int) (kind.Result, error) {
	item, ok := op.b.Remove(pid)
	if !ok {
		item = EmptyValue
	}
	return kind.Result{Value: item}, nil
}

// sizeOp is the compiled size.
type sizeOp struct{ b *Bag }

// Run implements kind.Compiled.
func (op sizeOp) Run(pid int) (kind.Result, error) {
	return kind.Result{Value: strconv.Itoa(op.b.Size(pid))}, nil
}

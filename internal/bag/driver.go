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
	kind.Register(driver)
}

// EmptyValue is the Value a remove op reports when the bag was observed
// empty (the paper's ⊥ as encoded by internal/spec). An item equal to
// EmptyValue is indistinguishable from an empty bag on the wire; insert
// therefore rejects it.
const EmptyValue = "_"

var driver = kind.Driver{
	Info: kind.Info{
		Kind: "bag",
		Doc:  "strongly linearizable bag from registers + test&set, no CAS (Ellen & Sela 2024)",
		Ops: []kind.OpInfo{
			{Name: "insert", Doc: "add value to the bag"},
			{Name: "remove", Doc: "take some item out (value " + EmptyValue + " when empty)"},
			{Name: "size", Doc: "count the items in the bag"},
		},
	},
	Operands: func(req kind.Request) error {
		if req.Op != "insert" {
			return nil
		}
		return checkItem(req.Value)
	},
	New: func(env kind.Env) (kind.Instance, error) {
		return &instance{New(env.Procs).Pooled(env.Pool)}, nil
	},
}

// checkItem rejects the items insert cannot carry.
func checkItem(x string) error {
	if x == "" {
		return errors.New("bag insert needs a non-empty value")
	}
	if x == EmptyValue {
		return errors.New("bag insert value " + EmptyValue + " is reserved for the empty-remove response")
	}
	return nil
}

// instance adapts one PooledBag to the driver codec.
type instance struct{ pooled *PooledBag }

// Compile implements kind.Instance. Only insert carries an operand to
// check.
func (b *instance) Compile(req kind.Request) (kind.Compiled, error) {
	switch req.Op {
	case "insert":
		if err := checkItem(req.Value); err != nil {
			return nil, err
		}
		return insertOp{b.pooled.Unpooled(), req.Value}, nil
	case "remove":
		return removeOp{b.pooled.Unpooled()}, nil
	case "size":
		return sizeOp{b.pooled.Unpooled()}, nil
	}
	return nil, driver.UnknownOp(req.Op)
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

// Package spec provides sequential specifications as deterministic state
// machines, following the paper's Section 2 formalism T = (S, s0, O, R, δ).
//
// All types in this repository are deterministic: the response of an
// invocation is a function of the current state. The checkers in
// internal/lincheck exploit this to derive responses for pending operations.
//
// States, invocation descriptions, and responses are canonical strings so
// that checker states are hashable and counterexamples are printable.
package spec

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ErrBadInvocation is returned by Apply for invocation descriptions the type
// does not support.
var ErrBadInvocation = errors.New("spec: invocation not supported by type")

// Spec is a sequential specification: a deterministic state machine.
//
// Apply computes δ(state, desc) = (next state, response). Implementations
// must be pure: same inputs, same outputs, no mutation of receiver state.
type Spec interface {
	// Name identifies the type, e.g. "snapshot(n=3)".
	Name() string
	// Initial returns the canonical encoding of the initial state s0.
	Initial() string
	// Apply steps the machine. desc carries the process id of the invoker
	// because single-writer types dispatch on it, e.g. "update(2)" invoked by
	// process 1 writes component 1.
	Apply(state string, pid int, desc string) (next, response string, err error)
}

// Bot is the canonical encoding of the paper's ⊥ (initial/unset value).
const Bot = "_"

// ParseInvocation splits "name(a,b)" into name and argument list. A bare
// "name" parses as zero arguments.
func ParseInvocation(desc string) (name string, args []string, err error) {
	open := strings.IndexByte(desc, '(')
	if open < 0 {
		return desc, nil, nil
	}
	if !strings.HasSuffix(desc, ")") {
		return "", nil, fmt.Errorf("spec: malformed invocation %q", desc)
	}
	name = desc[:open]
	inner := desc[open+1 : len(desc)-1]
	if inner == "" {
		return name, nil, nil
	}
	return name, strings.Split(inner, ","), nil
}

// FormatInvocation renders name and args canonically.
func FormatInvocation(name string, args ...string) string {
	return name + "(" + strings.Join(args, ",") + ")"
}

// --- Read/write register ---------------------------------------------------

// Register is an atomic multi-writer register over string values.
// Invocations: "write(x)" -> "ok"; "read()" -> current value.
type Register struct{}

var _ Spec = Register{}

// Name implements Spec.
func (Register) Name() string { return "register" }

// Initial implements Spec.
func (Register) Initial() string { return Bot }

// Apply implements Spec.
func (Register) Apply(state string, _ int, desc string) (string, string, error) {
	name, args, err := ParseInvocation(desc)
	if err != nil {
		return "", "", err
	}
	switch name {
	case "write":
		if len(args) != 1 {
			return "", "", fmt.Errorf("%w: %q", ErrBadInvocation, desc)
		}
		return args[0], "ok", nil
	case "read":
		return state, state, nil
	default:
		return "", "", fmt.Errorf("%w: %q", ErrBadInvocation, desc)
	}
}

// --- ABA-detecting register --------------------------------------------------

// ABARegister specifies the ABA-detecting register of Section 3.
//
// State: value | changed bitmask, one bit per process. Invocations:
//   - "DWrite(x)" -> "ok": sets the value, marks changed for every process.
//   - "DRead()"   -> "(x,flag)": flag is true iff some DWrite happened since
//     the calling process's previous DRead, or since initialization if it
//     has never read.
//
// The "or since initialization" clause matches the behaviour of the
// Aghazadeh–Woelfel implementations (the initial announcement (⊥,⊥) plays
// the role of a virtual first DRead): a process's first DRead reports true
// exactly when a DWrite has already occurred.
type ABARegister struct {
	// N is the number of processes.
	N int
}

var _ Spec = ABARegister{}

// Name implements Spec.
func (s ABARegister) Name() string { return fmt.Sprintf("aba(n=%d)", s.N) }

// Initial implements Spec.
func (s ABARegister) Initial() string {
	return Bot + "|" + strings.Repeat("0", s.N)
}

// Apply implements Spec.
func (s ABARegister) Apply(state string, pid int, desc string) (string, string, error) {
	parts := strings.Split(state, "|")
	if len(parts) != 2 || len(parts[1]) != s.N {
		return "", "", fmt.Errorf("spec: malformed aba state %q", state)
	}
	val, changed := parts[0], []byte(parts[1])
	if pid < 0 || pid >= s.N {
		return "", "", fmt.Errorf("spec: aba pid %d out of range [0,%d)", pid, s.N)
	}
	name, args, err := ParseInvocation(desc)
	if err != nil {
		return "", "", err
	}
	switch name {
	case "DWrite":
		if len(args) != 1 {
			return "", "", fmt.Errorf("%w: %q", ErrBadInvocation, desc)
		}
		for i := range changed {
			changed[i] = '1'
		}
		return args[0] + "|" + string(changed), "ok", nil
	case "DRead":
		flag := changed[pid] == '1'
		changed[pid] = '0'
		next := val + "|" + string(changed)
		return next, fmt.Sprintf("(%s,%t)", val, flag), nil
	default:
		return "", "", fmt.Errorf("%w: %q", ErrBadInvocation, desc)
	}
}

// --- Single-writer snapshot --------------------------------------------------

// Snapshot specifies the single-writer snapshot type of Section 4.
//
// State: comma-joined vector of n components. Invocations:
//   - "update(x)" by process p -> "ok": sets component p to x.
//   - "scan()" -> "[x0 x1 ... x(n-1)]".
type Snapshot struct {
	// N is the number of components (= processes).
	N int
}

var _ Spec = Snapshot{}

// Name implements Spec.
func (s Snapshot) Name() string { return fmt.Sprintf("snapshot(n=%d)", s.N) }

// Initial implements Spec.
func (s Snapshot) Initial() string {
	comps := make([]string, s.N)
	for i := range comps {
		comps[i] = Bot
	}
	return strings.Join(comps, ",")
}

// FormatView renders a component vector the way scan responses are encoded.
func FormatView(comps []string) string {
	return "[" + strings.Join(comps, " ") + "]"
}

// Apply implements Spec.
func (s Snapshot) Apply(state string, pid int, desc string) (string, string, error) {
	comps := strings.Split(state, ",")
	if len(comps) != s.N {
		return "", "", fmt.Errorf("spec: malformed snapshot state %q", state)
	}
	if pid < 0 || pid >= s.N {
		return "", "", fmt.Errorf("spec: snapshot pid %d out of range [0,%d)", pid, s.N)
	}
	name, args, err := ParseInvocation(desc)
	if err != nil {
		return "", "", err
	}
	switch name {
	case "update":
		if len(args) != 1 {
			return "", "", fmt.Errorf("%w: %q", ErrBadInvocation, desc)
		}
		next := make([]string, s.N)
		copy(next, comps)
		next[pid] = args[0]
		return strings.Join(next, ","), "ok", nil
	case "scan":
		return state, FormatView(comps), nil
	default:
		return "", "", fmt.Errorf("%w: %q", ErrBadInvocation, desc)
	}
}

// --- Counter -----------------------------------------------------------------

// Counter specifies a counter: "inc()" -> "ok", "read()" -> decimal count.
type Counter struct{}

var _ Spec = Counter{}

// Name implements Spec.
func (Counter) Name() string { return "counter" }

// Initial implements Spec.
func (Counter) Initial() string { return "0" }

// Apply implements Spec.
func (Counter) Apply(state string, _ int, desc string) (string, string, error) {
	name, _, err := ParseInvocation(desc)
	if err != nil {
		return "", "", err
	}
	cur, err := strconv.Atoi(state)
	if err != nil {
		return "", "", fmt.Errorf("spec: malformed counter state %q", state)
	}
	switch name {
	case "inc":
		return strconv.Itoa(cur + 1), "ok", nil
	case "read":
		return state, state, nil
	default:
		return "", "", fmt.Errorf("%w: %q", ErrBadInvocation, desc)
	}
}

// --- Max-register ------------------------------------------------------------

// MaxRegister specifies a max-register: "maxWrite(x)" -> "ok" sets the value
// to max(current, x); "maxRead()" -> current maximum (decimal, initially 0).
type MaxRegister struct{}

var _ Spec = MaxRegister{}

// Name implements Spec.
func (MaxRegister) Name() string { return "maxreg" }

// Initial implements Spec.
func (MaxRegister) Initial() string { return "0" }

// Apply implements Spec.
func (MaxRegister) Apply(state string, _ int, desc string) (string, string, error) {
	name, args, err := ParseInvocation(desc)
	if err != nil {
		return "", "", err
	}
	cur, err := strconv.ParseUint(state, 10, 64)
	if err != nil {
		return "", "", fmt.Errorf("spec: malformed maxreg state %q", state)
	}
	switch name {
	case "maxWrite":
		if len(args) != 1 {
			return "", "", fmt.Errorf("%w: %q", ErrBadInvocation, desc)
		}
		x, err := strconv.ParseUint(args[0], 10, 64)
		if err != nil {
			return "", "", fmt.Errorf("spec: maxWrite arg %q: %v", args[0], err)
		}
		if x > cur {
			return args[0], "ok", nil
		}
		return state, "ok", nil
	case "maxRead":
		return state, state, nil
	default:
		return "", "", fmt.Errorf("%w: %q", ErrBadInvocation, desc)
	}
}

// --- Set ---------------------------------------------------------------------

// Set specifies a grow-only set: "add(x)" -> "ok", "contains(x)" ->
// "true"/"false". State is a sorted comma-joined element list ("{}" empty).
type Set struct{}

var _ Spec = Set{}

// Name implements Spec.
func (Set) Name() string { return "set" }

// Initial implements Spec.
func (Set) Initial() string { return "{}" }

// listElems decodes the element-list state Set and Bag share: a sorted
// comma-joined list, "{}" when empty.
func listElems(state string) []string {
	if state == "{}" {
		return nil
	}
	return strings.Split(state, ",")
}

// listEncode is listElems' inverse.
func listEncode(elems []string) string {
	if len(elems) == 0 {
		return "{}"
	}
	return strings.Join(elems, ",")
}

// Apply implements Spec.
func (Set) Apply(state string, _ int, desc string) (string, string, error) {
	name, args, err := ParseInvocation(desc)
	if err != nil {
		return "", "", err
	}
	elems := listElems(state)
	switch name {
	case "add":
		if len(args) != 1 {
			return "", "", fmt.Errorf("%w: %q", ErrBadInvocation, desc)
		}
		x := args[0]
		// Insert in sorted position, keeping the encoding canonical.
		pos := 0
		for pos < len(elems) && elems[pos] < x {
			pos++
		}
		if pos < len(elems) && elems[pos] == x {
			return state, "ok", nil
		}
		next := make([]string, 0, len(elems)+1)
		next = append(next, elems[:pos]...)
		next = append(next, x)
		next = append(next, elems[pos:]...)
		return listEncode(next), "ok", nil
	case "contains":
		if len(args) != 1 {
			return "", "", fmt.Errorf("%w: %q", ErrBadInvocation, desc)
		}
		for _, e := range elems {
			if e == args[0] {
				return state, "true", nil
			}
		}
		return state, "false", nil
	default:
		return "", "", fmt.Errorf("%w: %q", ErrBadInvocation, desc)
	}
}

// --- Accumulator ---------------------------------------------------------------

// Accumulator specifies a commutative additive accumulator:
// "addTo(x)" -> "ok" adds integer x, "read()" -> current sum.
// It is a simple type: addTo operations commute, addTo overwrites read.
type Accumulator struct{}

var _ Spec = Accumulator{}

// Name implements Spec.
func (Accumulator) Name() string { return "accumulator" }

// Initial implements Spec.
func (Accumulator) Initial() string { return "0" }

// Apply implements Spec.
func (Accumulator) Apply(state string, _ int, desc string) (string, string, error) {
	name, args, err := ParseInvocation(desc)
	if err != nil {
		return "", "", err
	}
	cur, err := strconv.ParseInt(state, 10, 64)
	if err != nil {
		return "", "", fmt.Errorf("spec: malformed accumulator state %q", state)
	}
	switch name {
	case "addTo":
		if len(args) != 1 {
			return "", "", fmt.Errorf("%w: %q", ErrBadInvocation, desc)
		}
		x, err := strconv.ParseInt(args[0], 10, 64)
		if err != nil {
			return "", "", fmt.Errorf("spec: addTo arg %q: %v", args[0], err)
		}
		return strconv.FormatInt(cur+x, 10), "ok", nil
	case "read":
		return state, state, nil
	default:
		return "", "", fmt.Errorf("%w: %q", ErrBadInvocation, desc)
	}
}

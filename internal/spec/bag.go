package spec

import (
	"fmt"
	"strconv"
)

// Bag specifies a bag (multiset) of strings, in outcome-refined form: a
// bag's Remove is nondeterministic ("some element"), which a deterministic
// checker cannot express directly, so recorded histories refine each
// remove by the outcome it witnessed (harness.OpToken.ReturnRefined). A
// history of the nondeterministic bag is linearizable iff its refinement
// is linearizable against this deterministic specification.
//
// State: sorted comma-joined multiset ("{}" empty). Invocations:
//
//   - "insert(x)" -> "ok": adds one occurrence of x.
//   - "remove(x)" -> x if an occurrence of x is present (and removes it),
//     "absent" otherwise — so a refined remove(x) can only linearize where
//     x is in the bag.
//   - "remove()" -> Bot if the bag is empty, "nonempty" otherwise — the
//     refinement of a remove that reported empty, which can only linearize
//     where the bag is empty.
//   - "size()" -> decimal count.
type Bag struct{}

var _ Spec = Bag{}

// Name implements Spec.
func (Bag) Name() string { return "bag" }

// Initial implements Spec.
func (Bag) Initial() string { return "{}" }

// Apply implements Spec.
func (Bag) Apply(state string, _ int, desc string) (string, string, error) {
	name, args, err := ParseInvocation(desc)
	if err != nil {
		return "", "", err
	}
	elems := listElems(state)
	switch name {
	case "insert":
		if len(args) != 1 {
			return "", "", fmt.Errorf("%w: %q", ErrBadInvocation, desc)
		}
		x := args[0]
		// Insert in sorted position, keeping the encoding canonical;
		// duplicates are kept (a bag, not a set).
		pos := 0
		for pos < len(elems) && elems[pos] < x {
			pos++
		}
		next := make([]string, 0, len(elems)+1)
		next = append(next, elems[:pos]...)
		next = append(next, x)
		next = append(next, elems[pos:]...)
		return listEncode(next), "ok", nil
	case "remove":
		switch len(args) {
		case 0:
			// Refined empty remove: legal only on the empty bag.
			if len(elems) == 0 {
				return state, Bot, nil
			}
			return state, "nonempty", nil
		case 1:
			x := args[0]
			for i, e := range elems {
				if e == x {
					next := make([]string, 0, len(elems)-1)
					next = append(next, elems[:i]...)
					next = append(next, elems[i+1:]...)
					return listEncode(next), x, nil
				}
			}
			return state, "absent", nil
		}
		return "", "", fmt.Errorf("%w: %q", ErrBadInvocation, desc)
	case "size":
		return state, strconv.Itoa(len(elems)), nil
	default:
		return "", "", fmt.Errorf("%w: %q", ErrBadInvocation, desc)
	}
}

// Package lincheck decides linearizability of recorded histories and strong
// linearizability of prefix-closed transcript trees, against deterministic
// sequential specifications (internal/spec).
//
// Strong linearizability (Golab, Higham, Woelfel) requires a
// prefix-preserving linearization function over the prefix-closed set of
// transcripts. That is a property of transcript *trees*, not of single
// executions: the paper's Observation 4 refutes strong linearizability of
// Algorithm 1 using two continuations T1, T2 of one prefix S. CheckStrong
// performs AND/OR backtracking over such a tree: at each node it chooses an
// extension of the parent's linearization, and the same choice must work for
// every child.
//
// That backtracking is the package's one search, a Wing–Gong style
// depth-first search over the operations a node leaves to linearize. At a
// node with no children it remembers each failed (set of linearized
// operations, specification state). Linearizability of a single history is
// the one-node case: CheckHistory is CheckStrong on a tree of one node, and
// CheckChain is CheckStrong on the chain of a transcript's history. The
// linearized set is a bit mask, so a node may leave at most 62 operations
// to linearize; the history's length is not limited.
package lincheck

import (
	"fmt"
	"sort"
	"strings"

	"slmem/internal/sched"
	"slmem/internal/spec"
	"slmem/internal/trace"
)

// LinOp is one entry of a linearization: an operation and the response it
// was linearized with. For operations that were pending when linearized the
// response is the specification-derived one, and must match the actual
// response if the operation later completes.
type LinOp struct {
	OpID int
	Desc string
	PID  int
	Resp string
}

// Linearization is a valid sequential ordering with its final spec state.
type Linearization struct {
	Seq   []LinOp
	State string
}

// String renders the linearization for diagnostics.
func (l Linearization) String() string {
	parts := make([]string, len(l.Seq))
	for i, e := range l.Seq {
		parts[i] = fmt.Sprintf("#%d:%s->%s", e.OpID, e.Desc, e.Resp)
	}
	return strings.Join(parts, " ; ")
}

// --- Single-history linearizability -------------------------------------------

// Result reports the outcome of a linearizability check.
type Result struct {
	Ok bool
	// Witness is a linearization when Ok.
	Witness Linearization
}

// CheckHistory decides whether the history is linearizable with respect to
// the specification. Pending operations may be linearized (with their
// specification-derived response) or dropped. It is CheckStrong on a tree of
// one node.
func CheckHistory(h *trace.History, sp spec.Spec) (Result, error) {
	const label = "history"
	res, err := CheckStrong(&Node{Label: label, H: h}, sp)
	if err != nil {
		return Result{}, err
	}
	return Result{Ok: res.Ok, Witness: res.Witness[label]}, nil
}

// CheckTranscript is CheckHistory on Γ(t).
func CheckTranscript(t *trace.Transcript, sp spec.Spec) (Result, error) {
	return CheckHistory(t.Interpreted(), sp)
}

// --- Strong linearizability over transcript trees -----------------------------

// Node is a node of a prefix-closed history tree: each child's history
// extends the parent's (same operations plus possibly new ones; pending
// operations may have completed).
type Node struct {
	// Label describes the node in diagnostics (e.g. its schedule).
	Label string
	// H is the interpreted history at this node.
	H *trace.History
	// Children of this node.
	Children []*Node
}

// FromSchedTree converts a scheduler transcript tree to a history tree.
func FromSchedTree(t *sched.TreeNode) *Node {
	node := &Node{
		Label: fmt.Sprintf("%v", t.Schedule),
		H:     t.T.Interpreted(),
	}
	for _, c := range t.Children {
		node.Children = append(node.Children, FromSchedTree(c))
	}
	return node
}

// ChainFromHistory builds the path tree of a single execution: one node
// per prefix of the history cut at each invocation/response tick, where an
// operation invoked by a cut but not yet returned appears pending. A
// prefix-preserving linearization function must exist along every single
// execution, so CheckStrong on this chain is a necessary condition for
// strong linearizability that can be monitored per run, on simulated
// transcripts (CheckChain) and on histories captured from native runs
// (harness.Recorder) alike.
func ChainFromHistory(h *trace.History) *Node {
	var cuts []int
	for _, op := range h.Ops {
		cuts = append(cuts, op.Inv)
		if op.Complete() {
			cuts = append(cuts, op.Ret)
		}
	}
	sort.Ints(cuts)
	root := &Node{Label: "ε", H: &trace.History{}}
	cur := root
	for _, cut := range cuts {
		sub := &trace.History{}
		for _, op := range h.Ops {
			if op.Inv > cut {
				continue
			}
			if !op.Complete() || op.Ret > cut {
				op.Ret = -1 // pending at this cut
			}
			sub.Ops = append(sub.Ops, op)
		}
		child := &Node{Label: fmt.Sprintf("cut[:%d]", cut), H: sub}
		cur.Children = []*Node{child}
		cur = child
	}
	return root
}

// StrongResult reports the outcome of a strong-linearizability check.
type StrongResult struct {
	Ok bool
	// Witness maps node labels to the linearization chosen there when Ok.
	Witness map[string]Linearization
	// FailNode names a node witnessing failure (best-effort diagnostic).
	FailNode string
}

// CheckStrong decides whether the history tree admits a prefix-preserving
// linearization function: an assignment of a linearization to every node
// such that each child's linearization extends its parent's.
//
// A negative answer on any tree of reachable transcripts proves the
// implementation is not strongly linearizable (this is how Observation 4 is
// reproduced mechanically). A positive answer certifies the property for the
// explored tree.
func CheckStrong(root *Node, sp spec.Spec) (StrongResult, error) {
	res := StrongResult{Witness: make(map[string]Linearization)}
	ok, err := solveNode(root, sp, nil, sp.Initial(), &res)
	if err != nil {
		return StrongResult{}, err
	}
	res.Ok = ok
	if !ok {
		res.Witness = nil
	}
	return res, nil
}

// maxRemaining is the most operations one node may leave to linearize: the
// search keeps the set it has linearized as a bit mask.
const maxRemaining = 62

// solveNode tries to find a linearization for node extending prefix (with
// final state prefixState) that works for all children.
func solveNode(node *Node, sp spec.Spec, prefix []LinOp, prefixState string, out *StrongResult) (bool, error) {
	inPrefix := make(map[int]bool, len(prefix))
	// Consistency: operations linearized at an ancestor while pending must,
	// if now complete, have responded with the assigned response.
	for _, e := range prefix {
		inPrefix[e.OpID] = true
		if op, found := node.H.ByID(e.OpID); found && op.Complete() && op.Res != e.Resp {
			if out.FailNode == "" {
				out.FailNode = node.Label
			}
			return false, nil
		}
	}

	// Remaining operations and their happens-before structure: before[i]
	// holds the remaining operations that happen before rest[i], and
	// required the complete ones, which every linearization includes.
	var rest []trace.Operation
	for _, op := range node.H.Ops {
		if !inPrefix[op.OpID] {
			rest = append(rest, op)
		}
	}
	if len(rest) > maxRemaining {
		return false, fmt.Errorf("lincheck: node %q leaves %d operations to linearize, max %d",
			node.Label, len(rest), maxRemaining)
	}
	before := make([]uint64, len(rest))
	var required uint64
	for i, a := range rest {
		if a.Complete() {
			required |= 1 << i
		}
		for j, b := range rest {
			if j != i && node.H.HappensBefore(b, a) {
				before[i] |= 1 << j
			}
		}
	}

	// At a leaf, whether the search can finish from a linearized set
	// depends only on that set and the state reached, so failed pairs are
	// remembered. Above a leaf the responses given to pending operations
	// become the children's prefix, so nothing is.
	type memoKey struct {
		mask  uint64
		state string
	}
	var failed map[memoKey]bool // nil above a leaf
	if len(node.Children) == 0 {
		failed = make(map[memoKey]bool)
	}

	seq := append([]LinOp(nil), prefix...)
	var extend func(mask uint64, state string) (bool, error)
	extend = func(mask uint64, state string) (bool, error) {
		if mask&required == required {
			// Current seq is a linearization of this node's history; require
			// all children to succeed with it as their prefix.
			allOk := true
			for _, c := range node.Children {
				ok, err := solveNode(c, sp, seq, state, out)
				if err != nil {
					return false, err
				}
				if !ok {
					allOk = false
					break
				}
			}
			if allOk {
				out.Witness[node.Label] = Linearization{Seq: append([]LinOp(nil), seq...), State: state}
				return true, nil
			}
		}
		key := memoKey{mask, state}
		if failed[key] {
			return false, nil
		}
		for i, op := range rest {
			bit := uint64(1) << i
			// An operation may be linearized next only if no other
			// unlinearized operation happens before it.
			if mask&bit != 0 || before[i]&^mask != 0 {
				continue
			}
			next, resp, err := sp.Apply(state, op.PID, op.Desc)
			if err != nil {
				return false, fmt.Errorf("lincheck: %s: %w", op.Desc, err)
			}
			if op.Complete() && resp != op.Res {
				continue
			}
			seq = append(seq, LinOp{OpID: op.OpID, Desc: op.Desc, PID: op.PID, Resp: resp})
			ok, err := extend(mask|bit, next)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
			seq = seq[:len(seq)-1]
		}
		if failed != nil {
			failed[key] = true
		}
		return false, nil
	}

	ok, err := extend(0, prefixState)
	if err != nil {
		return false, err
	}
	if !ok && out.FailNode == "" {
		out.FailNode = node.Label
	}
	return ok, nil
}

// CheckChain verifies the necessary prefix-preservation condition along a
// single execution: CheckStrong on the chain of t's history. The history's
// cut at an invocation or response is the transcript's prefix through that
// event.
func CheckChain(t *trace.Transcript, sp spec.Spec) (StrongResult, error) {
	return CheckStrong(ChainFromHistory(t.Interpreted()), sp)
}

package sched

import (
	"fmt"

	"slmem/internal/trace"
)

// RandomBranchTree samples a seeded schedule prefix of at most prefixLen
// choices and attaches fanout seeded continuations that diverge right after
// it, each run to completion: the two-level tree the strong-linearizability
// tests check an implementation on.
func RandomBranchTree(sys System, seed int64, prefixLen, fanout int) (*TreeNode, error) {
	return DeepBranchTree(sys, seed, 0, fanout, prefixLen)
}

// DeepBranchTree is the repo's one sampler of prefix-closed transcript
// trees. The root is the first extLen choices of the run the seed picks;
// every node forks into fanout seeded continuations; above level 0 a
// continuation is cut extLen choices past its parent and forks again, at
// level 0 it runs to completion and is a leaf. depth counts the levels of
// cut continuations, so depth 0 is RandomBranchTree's two-level shape and a
// larger depth probes prefix preservation across nested futures.
func DeepBranchTree(sys System, seed int64, depth, fanout, extLen int) (*TreeNode, error) {
	var build func(prefix []int, level int, seed int64) (*TreeNode, error)
	build = func(prefix []int, level int, seed int64) (*TreeNode, error) {
		res := RunScript(sys, prefix, Options{})
		if res.Err != nil {
			return nil, res.Err
		}
		node := &TreeNode{
			Schedule: append([]int(nil), prefix...),
			T:        res.T,
			Enabled:  res.Enabled,
		}
		if len(res.Enabled) == 0 {
			return node, nil // all programs finished
		}
		for f := 0; f < fanout; f++ {
			childSeed := seed*131 + int64(f) + 1
			full := Run(sys, NewChain(NewScript(prefix...), NewSeeded(childSeed)), Options{})
			if full.Err != nil {
				return nil, full.Err
			}
			schedule := full.Schedule
			if level > 0 && len(schedule) > len(prefix)+extLen {
				schedule = schedule[:len(prefix)+extLen]
			}
			child, err := build(schedule, level-1, childSeed)
			if err != nil {
				return nil, err
			}
			if !node.T.IsPrefixOf(child.T) {
				return nil, fmt.Errorf("sched: sampled child does not extend its parent (nondeterministic system?)")
			}
			node.Children = append(node.Children, child)
		}
		return node, nil
	}
	probe := Run(sys, NewSeeded(seed), Options{})
	if probe.Err != nil {
		return nil, probe.Err
	}
	prefix := probe.Schedule
	if len(prefix) > extLen {
		prefix = prefix[:extLen]
	}
	return build(prefix, depth, seed)
}

// TreeStats summarizes a transcript tree.
func TreeStats(node *TreeNode) (nodes, leaves, maxDepth int) {
	var walk func(n *TreeNode, depth int)
	walk = func(n *TreeNode, depth int) {
		nodes++
		if depth > maxDepth {
			maxDepth = depth
		}
		if len(n.Children) == 0 {
			leaves++
			return
		}
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(node, 0)
	return nodes, leaves, maxDepth
}

// OpSteps aggregates base-object steps per high-level operation whose
// invocation description matches the filter.
type OpSteps struct {
	// Ops is the number of matching operations.
	Ops int
	// Total is the number of base steps attributed to them.
	Total int
	// Max is the largest step count of any single matching operation.
	Max int
}

// StepsByOp counts register steps grouped by operation over a transcript.
func StepsByOp(t *trace.Transcript, match func(desc string) bool) OpSteps {
	descs := make(map[int]string)
	counts := make(map[int]int)
	for _, e := range t.Events {
		switch e.Kind {
		case trace.KindInvoke:
			descs[e.OpID] = e.Desc
		case trace.KindRead, trace.KindWrite:
			counts[e.OpID]++
		}
	}
	var out OpSteps
	for opID, desc := range descs {
		if !match(desc) {
			continue
		}
		out.Ops++
		out.Total += counts[opID]
		if counts[opID] > out.Max {
			out.Max = counts[opID]
		}
	}
	return out
}

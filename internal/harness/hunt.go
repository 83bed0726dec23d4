package harness

import (
	"fmt"

	"slmem/internal/lincheck"
	"slmem/internal/sched"
	"slmem/internal/spec"
)

// HuntResult reports a guided strong-linearizability hunt.
type HuntResult struct {
	// CutsTried is the number of prefix cut points examined.
	CutsTried int
	// Violations lists the cut lengths whose branching tree admitted no
	// prefix-preserving linearization function.
	Violations []int
}

// Hunt branches the system at every prefix of the given schedule, attaching
// one writer-priority and one reader-priority completed continuation, and
// checks each two-branch tree for prefix preservation. It automates the
// shape of the paper's Observation 4 proof without hard-coding where the
// commitment point lies.
func Hunt(sys func() sched.System, schedule []int, sp spec.Spec, priorities [][]int) (*HuntResult, error) {
	out := &HuntResult{}
	for cut := 1; cut <= len(schedule); cut++ {
		prefix := schedule[:cut]
		conts := make([][]int, 0, len(priorities))
		for _, order := range priorities {
			adv := sched.NewChain(sched.NewScript(prefix...), sched.PriorityAdversary(order...))
			res := sched.Run(sys(), adv, sched.Options{})
			if res.Err != nil {
				return nil, fmt.Errorf("harness: hunt cut %d: %w", cut, res.Err)
			}
			conts = append(conts, res.Schedule[cut:])
		}
		tree, err := sched.PrefixTree(sys(), prefix, conts, sched.Options{})
		if err != nil {
			return nil, fmt.Errorf("harness: hunt cut %d: %w", cut, err)
		}
		out.CutsTried++
		chk, err := lincheck.CheckStrong(lincheck.FromSchedTree(tree), sp)
		if err != nil {
			return nil, err
		}
		if !chk.Ok {
			out.Violations = append(out.Violations, cut)
		}
	}
	return out, nil
}

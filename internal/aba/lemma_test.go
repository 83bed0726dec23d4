package aba

import (
	"strings"
	"testing"

	"slmem/internal/sched"
	"slmem/internal/trace"
)

// TestLemma13 checks the paper's Lemma 13 on recorded transcripts: if a
// DRead performs three consecutive reads of X on line 34 (the loop head),
// then some DWrite linearizes (writes X) strictly between the first and the
// third. In other words, every extra loop iteration is paid for by a
// concurrent write — the amortization argument behind Theorem 14.
func TestLemma13(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		res := sched.Run(simSystem("strong", 3, 4, 4), sched.NewSeeded(seed), sched.Options{})
		if !res.Completed() {
			t.Fatalf("seed %d: incomplete: %v", seed, res.Err)
		}
		verifyLemma13(t, seed, res.T)
	}
	// Also under a reader storm, which maximizes loop iterations.
	res := sched.Run(simSystem("strong", 2, 12, 2),
		&sched.Storm{IsVictim: func(pid int) bool { return pid%2 == 0 }, Period: 5},
		sched.Options{})
	if !res.Completed() {
		t.Fatalf("storm run incomplete: %v", res.Err)
	}
	verifyLemma13(t, -1, res.T)
}

func verifyLemma13(t *testing.T, seed int64, tr *trace.Transcript) {
	t.Helper()

	// Line-34 reads are the X-reads at positions 0, 4, 8, ... of each
	// DRead's base-step sequence (each iteration is read X, read A, write A,
	// read X).
	type xread struct{ time int }
	line34 := make(map[int][]xread) // opID -> line-34 X reads
	var xwrites []int               // times of writes to X (DWrite linearization points)
	isDRead := make(map[int]bool)
	stepIdx := make(map[int]int) // opID -> base steps seen so far

	for i, e := range tr.Events {
		switch e.Kind {
		case trace.KindInvoke:
			if strings.HasPrefix(e.Desc, "DRead") {
				isDRead[e.OpID] = true
			}
		case trace.KindRead, trace.KindWrite:
			if e.Kind == trace.KindWrite && isXReg(e.Reg) {
				xwrites = append(xwrites, i)
			}
			if isDRead[e.OpID] {
				if e.Kind == trace.KindRead && isXReg(e.Reg) && stepIdx[e.OpID]%4 == 0 {
					line34[e.OpID] = append(line34[e.OpID], xread{time: i})
				}
				stepIdx[e.OpID]++
			}
		}
	}

	if len(line34) == 0 {
		t.Fatalf("seed %d: no line-34 reads attributed; register matching broken (vacuous test)", seed)
	}
	for opID, reads := range line34 {
		for i := 0; i+2 < len(reads); i++ {
			lo, hi := reads[i].time, reads[i+2].time
			found := false
			for _, w := range xwrites {
				if w > lo && w < hi {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("seed %d: DRead #%d looped (X reads at %d..%d) with no DWrite in between — Lemma 13 violated",
					seed, opID, lo, hi)
			}
		}
	}
}

// TestLinearizableDReadStepCount: Algorithm 1's DRead is wait-free with
// exactly four shared steps, always.
func TestLinearizableDReadStepCount(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		res := sched.Run(simSystem("linearizable", 3, 4, 4), sched.NewSeeded(seed), sched.Options{})
		if !res.Completed() {
			t.Fatalf("seed %d: incomplete: %v", seed, res.Err)
		}
		steps := sched.StepsByOp(res.T, func(d string) bool { return strings.HasPrefix(d, "DRead") })
		if steps.Max != 4 || steps.Total != 4*steps.Ops {
			t.Errorf("seed %d: Algorithm 1's %d DReads took %d steps (max %d), want exactly 4 each",
				seed, steps.Ops, steps.Total, steps.Max)
		}
	}
}

// isXReg matches the main register X of whichever instance is under test
// (allocators suffix duplicate names, e.g. "aba.X#1").
func isXReg(name string) bool {
	return strings.HasPrefix(name, "aba.X")
}

package harness

import (
	"strings"
	"testing"

	"slmem/internal/core"
	"slmem/internal/lincheck"
	"slmem/internal/sched"
	"slmem/internal/spec"
)

func TestObservation4TreeShape(t *testing.T) {
	tree, err := Observation4Tree()
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Children) != 2 {
		t.Fatalf("children = %d, want 2 (T1, T2)", len(tree.Children))
	}
	// The prefix contains dw1 complete, dr1 pending, dw2 complete.
	h := tree.T.Interpreted()
	if len(h.Ops) != 3 {
		t.Fatalf("prefix has %d ops, want 3:\n%s", len(h.Ops), h)
	}
	if h.Ops[1].Complete() {
		t.Error("dr1 should be pending in the prefix")
	}
	// T1's dr2 must return (x,false), T2's (x,true) — the proof's A-2/B-2.
	finals := []string{}
	for _, c := range tree.Children {
		last := ""
		for _, op := range c.T.Interpreted().Ops {
			if op.Complete() && op.Desc == "DRead()" {
				last = op.Res
			}
		}
		finals = append(finals, last)
	}
	if finals[0] != "(x,false)" || finals[1] != "(x,true)" {
		t.Fatalf("dr2 results = %v, want [(x,false) (x,true)]", finals)
	}
}

func TestABASystemWorkloadShape(t *testing.T) {
	sys := ABASystem(ABAStrong, 4, 2, 3, 5)
	res := sched.Run(sys, &sched.RoundRobin{}, sched.Options{})
	if !res.Completed() {
		t.Fatalf("incomplete: %v", res.Err)
	}
	reads, writes := 0, 0
	for _, op := range res.T.Interpreted().Ops {
		if strings.HasPrefix(op.Desc, "DRead") {
			reads++
		} else {
			writes++
		}
	}
	if reads != 2*3 || writes != 2*5 {
		t.Errorf("ops = %d reads, %d writes; want 6, 10", reads, writes)
	}
}

func TestSnapshotSystemStatsExposed(t *testing.T) {
	var read func() *core.Stats
	sys := SnapshotSystem(2, 1, 2, 2, &read)
	res := sched.Run(sys, &sched.RoundRobin{}, sched.Options{})
	if !res.Completed() {
		t.Fatalf("incomplete: %v", res.Err)
	}
	if read == nil {
		t.Fatal("stats reader not populated by Setup")
	}
	stats := read()
	if stats.SUpdates.Load() != 2 {
		t.Errorf("SUpdates = %d, want 2", stats.SUpdates.Load())
	}
	if stats.TotalScanOps() < 3*2 {
		t.Errorf("TotalScanOps = %d, want >= 6", stats.TotalScanOps())
	}
}

func TestStepsByOp(t *testing.T) {
	sys := ABASystem(ABAStrong, 2, 1, 2, 2)
	res := sched.Run(sys, &sched.RoundRobin{}, sched.Options{})
	if !res.Completed() {
		t.Fatalf("incomplete: %v", res.Err)
	}
	writes := sched.StepsByOp(res.T, func(d string) bool { return strings.HasPrefix(d, "DWrite") })
	if writes.Ops != 2 {
		t.Errorf("DWrite ops = %d, want 2", writes.Ops)
	}
	if writes.Max != 2 || writes.Total != 4 {
		t.Errorf("DWrite steps: max=%d total=%d, want 2/4", writes.Max, writes.Total)
	}
	all := sched.StepsByOp(res.T, func(string) bool { return true })
	if all.Ops != 4 {
		t.Errorf("total ops = %d, want 4", all.Ops)
	}
}

func TestRandomBranchTreePrefixProperty(t *testing.T) {
	sys := Observation4System(ABAStrong)
	tree, err := sched.RandomBranchTree(sys, 3, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Children) != 4 {
		t.Fatalf("fanout = %d, want 4", len(tree.Children))
	}
	for _, c := range tree.Children {
		if !tree.T.IsPrefixOf(c.T) {
			t.Fatal("child does not extend prefix")
		}
		// Children ran to completion.
		if !c.T.Interpreted().Complete() {
			t.Fatal("continuation left pending operations")
		}
	}
	// The tree must satisfy strong linearizability (Algorithm 2).
	res, err := lincheck.CheckStrong(lincheck.FromSchedTree(tree), spec.ABARegister{N: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok {
		t.Error("Algorithm 2 failed on a random branching tree")
	}
}

func TestTreeStats(t *testing.T) {
	tree, err := Observation4Tree()
	if err != nil {
		t.Fatal(err)
	}
	nodes, leaves, depth := sched.TreeStats(tree)
	if nodes != 3 || leaves != 2 || depth != 1 {
		t.Errorf("TreeStats = (%d,%d,%d), want (3,2,1)", nodes, leaves, depth)
	}
}

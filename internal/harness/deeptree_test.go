package harness

import (
	"testing"

	"slmem/internal/lincheck"
	"slmem/internal/sched"
	"slmem/internal/spec"
)

func TestDeepBranchTreeShape(t *testing.T) {
	sys := Observation4System(ABAStrong)
	tree, err := sched.DeepBranchTree(sys, 1, 2, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	nodes, leaves, depth := sched.TreeStats(tree)
	if depth < 2 {
		t.Errorf("depth = %d, want >= 2", depth)
	}
	if leaves < 2 || nodes < 4 {
		t.Errorf("nodes=%d leaves=%d; tree too small", nodes, leaves)
	}
	// Every leaf must be a completed run.
	var checkLeaves func(n *sched.TreeNode)
	checkLeaves = func(n *sched.TreeNode) {
		if len(n.Children) == 0 {
			if len(n.Enabled) != 0 && !n.T.Interpreted().Complete() {
				t.Errorf("leaf with pending ops and enabled processes")
			}
			return
		}
		for _, c := range n.Children {
			if !n.T.IsPrefixOf(c.T) {
				t.Error("child does not extend parent")
			}
			checkLeaves(c)
		}
	}
	checkLeaves(tree)
}

// TestStrongABAOnDeepTrees: Algorithm 2 must remain prefix-preserving
// across nested branching futures.
func TestStrongABAOnDeepTrees(t *testing.T) {
	sys := Observation4System(ABAStrong)
	for seed := int64(0); seed < 8; seed++ {
		tree, err := sched.DeepBranchTree(sys, seed, 2, 2, 7)
		if err != nil {
			t.Fatal(err)
		}
		res, err := lincheck.CheckStrong(lincheck.FromSchedTree(tree), spec.ABARegister{N: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Ok {
			t.Fatalf("seed %d: deep tree check failed at %s", seed, res.FailNode)
		}
	}
}

// TestStrongSnapshotOnDeepTrees: the composed snapshot (Algorithm 3) must
// remain prefix-preserving across nested branching futures.
func TestStrongSnapshotOnDeepTrees(t *testing.T) {
	sys := SnapshotSystem(2, 1, 2, 2, nil)
	for seed := int64(0); seed < 6; seed++ {
		tree, err := sched.DeepBranchTree(sys, seed, 2, 2, 9)
		if err != nil {
			t.Fatal(err)
		}
		res, err := lincheck.CheckStrong(lincheck.FromSchedTree(tree), spec.Snapshot{N: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Ok {
			t.Fatalf("seed %d: deep tree check failed at %s", seed, res.FailNode)
		}
	}
}

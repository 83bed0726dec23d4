package aba_test

// The paper's claims about the ABA-detecting registers that need the shared
// workloads of internal/harness (which imports this package, hence the
// external test package). Run with -v for the tables.

import (
	"strings"
	"testing"

	"slmem/internal/aba"
	"slmem/internal/harness"
	"slmem/internal/lincheck"
	"slmem/internal/memory"
	"slmem/internal/sched"
	"slmem/internal/spec"
)

func isDRead(desc string) bool { return strings.HasPrefix(desc, "DRead") }

// TestObservation4 reproduces the paper's Observation 4: the transcript tree
// {S, T1, T2} of Algorithm 1 (harness.Observation4Tree spells the schedule
// out) admits no prefix-preserving linearization function, even though each
// individual transcript is linearizable.
func TestObservation4(t *testing.T) {
	tree, err := harness.Observation4Tree()
	if err != nil {
		t.Fatal(err)
	}
	sp := spec.ABARegister{N: 2}
	for i, child := range tree.Children {
		chk, err := lincheck.CheckTranscript(child.T, sp)
		if err != nil {
			t.Fatal(err)
		}
		if !chk.Ok {
			t.Fatalf("branch T%d not linearizable — Algorithm 1 is linearizable, bug in setup:\n%s",
				i+1, child.T.Interpreted())
		}
	}
	res, err := lincheck.CheckStrong(lincheck.FromSchedTree(tree), sp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ok {
		t.Fatal("Observation 4 violated: Algorithm 1's {S,T1,T2} tree accepted as strongly linearizable")
	}
}

// TestStrongSurvivesBranchingTrees: Algorithm 2 must admit a prefix-
// preserving linearization function on randomly sampled branching trees of
// the same workload that refutes Algorithm 1.
func TestStrongSurvivesBranchingTrees(t *testing.T) {
	sys := harness.Observation4System(harness.ABAStrong)
	for seed := int64(0); seed < 15; seed++ {
		tree, err := sched.RandomBranchTree(sys, seed, 8, 3)
		if err != nil {
			t.Fatal(err)
		}
		res, err := lincheck.CheckStrong(lincheck.FromSchedTree(tree), spec.ABARegister{N: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Ok {
			t.Fatalf("seed %d: Algorithm 2 failed strong-linearizability tree check at %s", seed, res.FailNode)
		}
	}
}

// TestStrongOnExhaustiveTree: Theorem 12 on the whole transcript tree of
// one DWrite against one DRead — every interleaving, every prefix.
func TestStrongOnExhaustiveTree(t *testing.T) {
	tree, err := sched.Explore(harness.ABASystem(harness.ABAStrong, 2, 1, 1, 1), 0, 300000, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	nodes, leaves, depth := sched.TreeStats(tree)
	t.Logf("exhaustive 1 DWrite + 1 DRead: %d nodes, %d leaves, depth %d", nodes, leaves, depth)
	if leaves < 2 {
		t.Fatalf("tree has %d leaves: nothing interleaved", leaves)
	}
	res, err := lincheck.CheckStrong(lincheck.FromSchedTree(tree), spec.ABARegister{N: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok {
		t.Fatalf("Algorithm 2 not strongly linearizable over its full tree: fails at %s", res.FailNode)
	}
}

// TestDReadStepBound: Theorem 14(b), the total number of shared steps in
// DReads is O(min(r,n)·w + r) for w DWrites and r DReads, under a random
// adversary and under one that starves the readers. The constant c is the
// claim: the ratio stays under it as n, w and r grow.
func TestDReadStepBound(t *testing.T) {
	const c = 4
	t.Logf("%2s %7s %4s %4s %-12s %13s %17s %5s", "n", "readers", "w", "r", "adversary", "Σ DRead steps", "bound min(r,n)w+r", "ratio")
	for _, cfg := range []struct{ n, readers, writes, reads int }{
		{2, 1, 16, 16}, {2, 1, 64, 16}, {2, 1, 256, 16},
		{4, 2, 32, 32}, {4, 2, 128, 32},
		{8, 4, 32, 32}, {8, 4, 128, 64},
	} {
		for _, name := range []string{"random", "reader-storm"} {
			var adv sched.Adversary = sched.NewSeeded(int64(cfg.n*1000 + cfg.writes))
			if name == "reader-storm" {
				adv = &sched.Storm{IsVictim: func(pid int) bool { return pid < cfg.readers }, Period: 5}
			}
			sys := harness.ABASystem(harness.ABAStrong, cfg.n, cfg.readers, cfg.reads, cfg.writes)
			res := sched.Run(sys, adv, sched.Options{StepLimit: 8 << 20})
			if !res.Completed() {
				t.Fatalf("n=%d %s: incomplete: %v", cfg.n, name, res.Err)
			}
			w := (cfg.n - cfg.readers) * cfg.writes
			r := cfg.readers * cfg.reads
			bound := min(r, cfg.n)*w + r
			got := sched.StepsByOp(res.T, isDRead).Total
			t.Logf("%2d %7d %4d %4d %-12s %13d %17d %5.2f", cfg.n, cfg.readers, w, r, name, got, bound, float64(got)/float64(bound))
			if got > c*bound {
				t.Errorf("n=%d w=%d r=%d %s: Σ DRead steps = %d > %d·%d", cfg.n, w, r, name, got, c, bound)
			}
		}
	}
}

// TestDReadStarvesUnderWriterStorm: Algorithm 2's DRead is lock-free, not
// wait-free (Section 3.3). Against a writer storm one DRead's step count
// grows with the number of DWrites w, and the reader finishes last — while
// every run still finishes.
func TestDReadStarvesUnderWriterStorm(t *testing.T) {
	prev := 0
	for _, w := range []int{4, 16, 64} {
		storm := &sched.Storm{IsVictim: func(pid int) bool { return pid == 0 }, Period: 4}
		res := sched.Run(harness.ABASystem(harness.ABAStrong, 2, 1, 1, w), storm, sched.Options{StepLimit: 4 << 20})
		if !res.Completed() {
			t.Fatalf("w=%d: incomplete: %v", w, res.Err)
		}
		steps := sched.StepsByOp(res.T, isDRead).Max
		t.Logf("w=%2d: the DRead took %d steps", w, steps)
		if steps <= prev {
			t.Errorf("w=%d: the DRead took %d steps, no more than %d at the previous w", w, steps, prev)
		}
		prev = steps
		if last := res.T.Events[len(res.T.Events)-1]; last.PID != 0 {
			t.Errorf("w=%d: the run ended with a step of process %d, not the reader's response", w, last.PID)
		}
	}
}

// TestSoloDReadSteps: without contention a DRead costs O(1) shared steps
// (Section 3.3) — two loop iterations, 5 steps, for the first DRead after a
// DWrite (X's tag is not the one q announced: read X, write A[q], read X,
// then a quiet read X, read X), one iteration of its two reads of X, 2
// steps, from then on.
func TestSoloDReadSteps(t *testing.T) {
	counter := memory.NewStepCounter(2)
	alloc := &memory.CountingAllocator{Inner: &memory.NativeAllocator{}, Counter: counter}
	reg := aba.NewStrong[string](alloc, 2, spec.Bot)
	reg.DWrite(0, "x")
	for i, want := range []int64{5, 2, 2} {
		before := counter.Steps(1)
		reg.DRead(1)
		if got := counter.Steps(1) - before; got != want {
			t.Errorf("solo DRead %d after the DWrite took %d steps, want %d", i+1, got, want)
		}
	}
}

package core_test

// The step-complexity claims about Algorithm 3 that run on the shared
// snapshot workload of internal/harness (which imports this package, hence
// the external test package). Run with -v for the tables.

import (
	"testing"

	"slmem/internal/core"
	"slmem/internal/harness"
	"slmem/internal/sched"
)

// TestScanBaseOpBound: Theorem 32(b), the SLscans of a run perform at most
// s + n³·u operations on S and R in total, for s SLscans and u SLupdates,
// under a random adversary and under one that starves the scanners.
func TestScanBaseOpBound(t *testing.T) {
	t.Logf("%2s %4s %3s %-13s %13s %11s %6s %14s", "n", "u", "s", "adversary", "scan base ops", "bound s+n³u", "ratio", "max scan iters")
	for _, cfg := range []struct{ n, scanners, scans, updates int }{
		{2, 1, 8, 8}, {2, 1, 8, 32},
		{3, 1, 8, 16}, {4, 2, 8, 16},
		{4, 2, 16, 64}, {6, 3, 8, 16},
	} {
		for _, name := range []string{"random", "scanner-storm"} {
			var adv sched.Adversary = sched.NewSeeded(int64(cfg.n*100 + cfg.updates))
			if name == "scanner-storm" {
				adv = &sched.Storm{IsVictim: func(pid int) bool { return pid < cfg.scanners }, Period: 6}
			}
			var stats func() *core.Stats
			sys := harness.SnapshotSystem(cfg.n, cfg.scanners, cfg.scans, cfg.updates, &stats)
			res := sched.Run(sys, adv, sched.Options{StepLimit: 8 << 20})
			if !res.Completed() {
				t.Fatalf("n=%d %s: incomplete: %v", cfg.n, name, res.Err)
			}
			u := (cfg.n - cfg.scanners) * cfg.updates
			s := cfg.scanners * cfg.scans
			bound := int64(s + cfg.n*cfg.n*cfg.n*u)
			st := stats()
			got := st.TotalScanOps()
			t.Logf("%2d %4d %3d %-13s %13d %11d %6.4f %14d", cfg.n, u, s, name, got, bound, float64(got)/float64(bound), st.MaxScanIters.Load())
			if got > bound {
				t.Errorf("n=%d u=%d s=%d %s: SLscans performed %d base operations > %d", cfg.n, u, s, name, got, bound)
			}
		}
	}
}

// TestScanStarvesUnderUpdateStorm: SLscan is lock-free, not wait-free
// (Section 4.5). Against an update storm one SLscan's step count grows with
// the number of SLupdates w, and the scanner finishes last — while every
// run still finishes.
func TestScanStarvesUnderUpdateStorm(t *testing.T) {
	prev := 0
	for _, w := range []int{4, 16, 64} {
		storm := &sched.Storm{IsVictim: func(pid int) bool { return pid == 0 }, Period: 6}
		res := sched.Run(harness.SnapshotSystem(2, 1, 1, w, nil), storm, sched.Options{StepLimit: 4 << 20})
		if !res.Completed() {
			t.Fatalf("w=%d: incomplete: %v", w, res.Err)
		}
		steps := sched.StepsByOp(res.T, func(d string) bool { return d == "scan()" }).Max
		t.Logf("w=%2d: the SLscan took %d steps", w, steps)
		if steps <= prev {
			t.Errorf("w=%d: the SLscan took %d steps, no more than %d at the previous w", w, steps, prev)
		}
		prev = steps
		if last := res.T.Events[len(res.T.Events)-1]; last.PID != 0 {
			t.Errorf("w=%d: the run ended with a step of process %d, not the scanner's response", w, last.PID)
		}
	}
}

// Command slcheck model-checks the ABA-detecting register implementations
// for linearizability and strong linearizability.
//
// Scenarios:
//
//	obs4     — the paper's Observation 4 transcript tree {S, T1, T2}
//	           (Algorithm 1 must fail, each branch staying linearizable)
//	explore  — exhaustive interleaving tree of a small workload
//	random   — randomly sampled branching trees
//	hunt     — branch at every cut point of one natural execution with
//	           writer- vs reader-priority futures; rediscovers Observation 4
//	           on alg1 without knowing where the commitment point lies
//
// Examples:
//
//	slcheck -scenario obs4
//	slcheck -scenario explore -impl alg2 -writes 1 -reads 1
//	slcheck -scenario random -impl alg1 -trees 50
//	slcheck -scenario hunt -impl alg1
package main

import (
	"flag"
	"fmt"
	"os"

	"slmem/internal/harness"
	"slmem/internal/lincheck"
	"slmem/internal/sched"
	"slmem/internal/spec"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "slcheck:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("slcheck", flag.ContinueOnError)
	var (
		scenario = fs.String("scenario", "obs4", "obs4 | explore | random | hunt")
		impl     = fs.String("impl", "alg1", "alg1 (linearizable) | alg2 (strongly linearizable)")
		writes   = fs.Int("writes", 1, "DWrites per writer (explore)")
		reads    = fs.Int("reads", 1, "DReads per reader (explore)")
		maxNodes = fs.Int("maxnodes", 500000, "node budget for exploration")
		trees    = fs.Int("trees", 25, "number of random branching trees")
		prefix   = fs.Int("prefix", 8, "random tree prefix length")
		fanout   = fs.Int("fanout", 3, "random tree fanout")
		verbose  = fs.Bool("v", false, "print transcripts of failing nodes")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	implSel := harness.ABALinearizable
	if *impl == "alg2" {
		implSel = harness.ABAStrong
	}
	sp := spec.ABARegister{N: 2}

	switch *scenario {
	case "obs4":
		tree, err := harness.Observation4Tree()
		if err != nil {
			return err
		}
		fmt.Println("scenario: Observation 4 tree {S, T1, T2} on Algorithm 1")
		for i, child := range tree.Children {
			chk, err := lincheck.CheckTranscript(child.T, sp)
			if err != nil {
				return err
			}
			fmt.Printf("  branch T%d linearizable: %v\n", i+1, chk.Ok)
			if *verbose {
				fmt.Println(child.T.Interpreted())
			}
		}
		res, err := lincheck.CheckStrong(lincheck.FromSchedTree(tree), sp)
		if err != nil {
			return err
		}
		fmt.Printf("  prefix-preserving linearization function exists: %v\n", res.Ok)
		if res.Ok {
			return fmt.Errorf("unexpected: Observation 4 tree accepted")
		}
		fmt.Println("verdict: Algorithm 1 is NOT strongly linearizable (Observation 4 reproduced)")
		return nil

	case "explore":
		sys := harness.ABASystem(implSel, 2, 1, *reads, *writes)
		tree, err := sched.Explore(sys, 0, *maxNodes, sched.Options{})
		if err != nil {
			return err
		}
		nodes, leaves, depth := sched.TreeStats(tree)
		fmt.Printf("scenario: exhaustive exploration of %s, 1 writer × %d DWrites, 1 reader × %d DReads\n",
			implSel, *writes, *reads)
		fmt.Printf("  transcript tree: %d nodes, %d complete leaves, max depth %d\n", nodes, leaves, depth)
		res, err := lincheck.CheckStrong(lincheck.FromSchedTree(tree), sp)
		if err != nil {
			return err
		}
		fmt.Printf("  strongly linearizable over the full tree: %v\n", res.Ok)
		if !res.Ok {
			fmt.Printf("  first failing node: %s\n", res.FailNode)
		}
		return verdictErr(implSel, !res.Ok)

	case "random":
		sys := harness.Observation4System(implSel)
		fails := 0
		for seed := int64(0); seed < int64(*trees); seed++ {
			tree, err := sched.RandomBranchTree(sys, seed, *prefix, *fanout)
			if err != nil {
				return err
			}
			res, err := lincheck.CheckStrong(lincheck.FromSchedTree(tree), sp)
			if err != nil {
				return err
			}
			if !res.Ok {
				fails++
				fmt.Printf("  seed %d: NOT prefix-preserving (fail at %s)\n", seed, res.FailNode)
				if *verbose {
					fmt.Println(tree.T.Interpreted())
				}
			}
		}
		fmt.Printf("scenario: %d random branching trees on %s — %d violations\n", *trees, implSel, fails)
		return verdictErr(implSel, fails > 0)

	case "hunt":
		var schedule []int
		if implSel == harness.ABALinearizable {
			// One natural execution of the Observation 4 workload:
			// dw1; dr1 through line 16; dw2..dw5; dr1 completion; dr2.
			for _, seg := range []struct{ pid, k int }{{1, 4}, {0, 3}, {1, 16}, {0, 9}} {
				for i := 0; i < seg.k; i++ {
					schedule = append(schedule, seg.pid)
				}
			}
		} else {
			probe := sched.Run(harness.Observation4System(implSel), sched.PriorityAdversary(1, 0), sched.Options{})
			if !probe.Completed() {
				return fmt.Errorf("hunt probe incomplete: %v", probe.Err)
			}
			schedule = probe.Schedule
		}
		res, err := harness.Hunt(
			func() sched.System { return harness.Observation4System(implSel) },
			schedule, sp,
			[][]int{{1, 0}, {0, 1}},
		)
		if err != nil {
			return err
		}
		fmt.Printf("scenario: guided hunt on %s — %d cut points, violations at cuts %v\n",
			implSel, res.CutsTried, res.Violations)
		if implSel == harness.ABALinearizable && len(res.Violations) == 0 {
			return fmt.Errorf("hunt failed to rediscover Observation 4")
		}
		return verdictErr(implSel, len(res.Violations) != 0)

	default:
		return fmt.Errorf("unknown scenario %q", *scenario)
	}
}

// verdictErr turns a scenario's finding into the command's exit status: a
// prefix-preservation violation by Algorithm 2 refutes Theorem 12 and is an
// error; one by Algorithm 1 is the expected verdict (Observation 4).
func verdictErr(impl harness.ABAImpl, violated bool) error {
	if impl == harness.ABAStrong && violated {
		return fmt.Errorf("%s violated prefix preservation", impl)
	}
	return nil
}

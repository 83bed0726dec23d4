// Strong adversary demo: why linearizability is not enough for randomized
// algorithms, and what strong linearizability fixes.
//
// Golab, Higham, and Woelfel showed that replacing atomic objects with
// merely linearizable ones lets a strong adversary — a scheduler that sees
// every coin flip — skew the outcome distribution of randomized algorithms.
// The mechanism is retroactive reordering: with a linearizable-only object,
// the committed past of an execution prefix can still depend on the future,
// so the adversary can flip a coin first and pick the past afterwards.
//
// This demo replays the paper's Observation 4 on the linearizable
// ABA-detecting register (Algorithm 1): after one shared prefix S, the
// adversary can choose between two continuations whose responses force
// contradictory linearizations of S itself — the reading operation dr1
// either covered writes dw2..dw5 or preceded dw2, decided retroactively.
// The strongly linearizable register (Algorithm 2) makes this impossible:
// every branching future of every prefix stays consistent with one
// committed past (verified here by the strong-linearizability checker).
//
// Run with: go run ./examples/adversary
package main

import (
	"fmt"
	"math/rand"

	"slmem/internal/harness"
	"slmem/internal/lincheck"
	"slmem/internal/sched"
	"slmem/internal/spec"
)

func main() {
	sp := spec.ABARegister{N: 2}

	fmt.Println("=== Algorithm 1 (linearizable only): the adversary rewrites history ===")
	tree, err := harness.Observation4Tree()
	if err != nil {
		panic(err)
	}

	// The adversary pauses the reader mid-operation (prefix S), flips a
	// coin, and picks the continuation afterwards.
	rng := rand.New(rand.NewSource(2019))
	coin := rng.Intn(2)
	fmt.Printf("prefix S executed; reader's dr1 paused mid-operation; adversary flips coin: %d\n", coin)
	chosen := tree.Children[coin]
	fmt.Printf("adversary chooses continuation T%d; dr2 returns %s\n\n", coin+1, lastRes(chosen))

	// Each continuation alone is perfectly linearizable...
	for i, child := range tree.Children {
		chk, err := lincheck.CheckTranscript(child.T, sp)
		if err != nil {
			panic(err)
		}
		// ...but it forces a specific linearization of the shared prefix.
		single := &lincheck.Node{Label: "S", H: tree.T.Interpreted()}
		single.Children = []*lincheck.Node{{Label: "T", H: child.T.Interpreted()}}
		strong, err := lincheck.CheckStrong(single, sp)
		if err != nil {
			panic(err)
		}
		fmt.Printf("T%d alone: linearizable=%v; it forces the prefix history f(S) = %s\n",
			i+1, chk.Ok, strong.Witness["S"])
	}

	both, err := lincheck.CheckStrong(lincheck.FromSchedTree(tree), sp)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nboth futures from the SAME prefix simultaneously consistent? %v\n", both.Ok)
	fmt.Println("=> the committed past depended on a coin flipped after the fact.")
	fmt.Println("   Under a strong adversary this is exactly what skews outcome distributions.")

	fmt.Println("\n=== Algorithm 2 (strongly linearizable): the past is committed ===")
	trials, violations := 40, 0
	sys := harness.Observation4System(harness.ABAStrong)
	for seed := int64(0); seed < int64(trials); seed++ {
		bt, err := sched.RandomBranchTree(sys, seed, 8, 3)
		if err != nil {
			panic(err)
		}
		res, err := lincheck.CheckStrong(lincheck.FromSchedTree(bt), sp)
		if err != nil {
			panic(err)
		}
		if !res.Ok {
			violations++
		}
	}
	fmt.Printf("random branching futures tested: %d prefixes × 3 continuations; retroactive rewrites: %d\n",
		trials, violations)
	fmt.Println("=> whatever the adversary schedules, operations linearize at fixed points;")
	fmt.Println("   coin flips seen later cannot move them (prefix preservation, paper Thm. 12).")
}

func lastRes(node *sched.TreeNode) string {
	res := ""
	for _, op := range node.T.Interpreted().Ops {
		if op.Complete() && op.Desc == "DRead()" {
			res = op.Res
		}
	}
	return res
}

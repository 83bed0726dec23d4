package harness

import (
	"fmt"
	"testing"

	"slmem/internal/sched"
)

// BenchmarkExplore builds the whole transcript tree of the ABA workload
// (Algorithm 2, n = 2, one reader) with sched.Explore, which replays every
// node's schedule from scratch: ns/node is the simulator's cost per replayed
// schedule, the cost that bounds exhaustive checking.
func BenchmarkExplore(b *testing.B) {
	for _, c := range []struct{ reads, writes int }{{1, 1}, {2, 1}, {1, 2}} {
		b.Run(fmt.Sprintf("reads=%d,writes=%d", c.reads, c.writes), func(b *testing.B) {
			sys := ABASystem(ABAStrong, 2, 1, c.reads, c.writes)
			nodes := 0
			for b.Loop() {
				tree, err := sched.Explore(sys, 0, 1<<20, sched.Options{})
				if err != nil {
					b.Fatal(err)
				}
				nodes = countNodes(tree)
			}
			b.ReportMetric(float64(nodes), "nodes")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nodes), "ns/node")
		})
	}
}

func countNodes(n *sched.TreeNode) int {
	count := 1
	for _, c := range n.Children {
		count += countNodes(c)
	}
	return count
}

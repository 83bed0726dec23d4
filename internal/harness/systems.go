package harness

import (
	"fmt"

	"slmem/internal/aba"
	"slmem/internal/core"
	"slmem/internal/sched"
	"slmem/internal/spec"
	"slmem/internal/trace"
)

// ABAImpl selects an ABA-detecting register implementation.
type ABAImpl string

// ABA-detecting register implementations under test.
const (
	ABALinearizable ABAImpl = "algorithm1-linearizable"
	ABAStrong       ABAImpl = "algorithm2-strong"
)

type dregister interface {
	DWrite(p int, x string)
	DRead(q int) (string, bool)
}

// ABASystem builds a simulated ABA workload: readerPids perform reads DReads
// each, the rest perform writes DWrites each.
func ABASystem(impl ABAImpl, n, readers, reads, writes int) sched.System {
	return sched.System{
		N: n,
		Setup: func(env *sched.Env) []sched.Program {
			var reg dregister
			switch impl {
			case ABALinearizable:
				reg = aba.NewLinearizable[string](env, n, spec.Bot)
			default:
				reg = aba.NewStrong[string](env, n, spec.Bot)
			}
			progs := make([]sched.Program, n)
			for pid := 0; pid < n; pid++ {
				pid := pid
				if pid < readers {
					progs[pid] = func(p *sched.Proc) {
						for i := 0; i < reads; i++ {
							p.Do("DRead()", func() string {
								v, flag := reg.DRead(pid)
								return fmt.Sprintf("(%s,%t)", v, flag)
							})
						}
					}
				} else {
					progs[pid] = func(p *sched.Proc) {
						for i := 0; i < writes; i++ {
							x := fmt.Sprintf("w%d.%d", pid, i)
							p.Do(spec.FormatInvocation("DWrite", x), func() string {
								reg.DWrite(pid, x)
								return "ok"
							})
						}
					}
				}
			}
			return progs
		},
	}
}

// SnapshotSystem builds a simulated workload on the paper's Algorithm 3
// snapshot: scanners perform scans each, the rest perform updates each.
// statsOut, if non-nil, receives the object's Stats method: a Stats value is
// a reading, so the caller takes one when the run is over.
func SnapshotSystem(n, scanners, scans, updates int, statsOut *func() *core.Stats) sched.System {
	return sched.System{
		N: n,
		Setup: func(env *sched.Env) []sched.Program {
			s := core.New[string](env, n, spec.Bot)
			if statsOut != nil {
				*statsOut = s.Stats
			}
			progs := make([]sched.Program, n)
			for pid := 0; pid < n; pid++ {
				pid := pid
				if pid < scanners {
					progs[pid] = func(p *sched.Proc) {
						for i := 0; i < scans; i++ {
							p.Do("scan()", func() string {
								return spec.FormatView(s.Scan(pid))
							})
						}
					}
				} else {
					progs[pid] = func(p *sched.Proc) {
						for i := 0; i < updates; i++ {
							x := fmt.Sprintf("u%d.%d", pid, i)
							p.Do(spec.FormatInvocation("update", x), func() string {
								s.Update(pid, x)
								return "ok"
							})
						}
					}
				}
			}
			return progs
		},
	}
}

// Observation4System reproduces the workload of the paper's Observation 4
// proof on the chosen implementation: process 0 performs two DReads and
// process 1 performs five DWrites of the same value. With n = 2 the
// writer's sequence numbers cycle 0,1,2,3,0, so the first and fifth DWrite
// share a sequence number (the proof's dw_i and dw_j).
func Observation4System(impl ABAImpl) sched.System {
	return sched.System{
		N: 2,
		Setup: func(env *sched.Env) []sched.Program {
			var reg dregister
			switch impl {
			case ABALinearizable:
				reg = aba.NewLinearizable[string](env, 2, spec.Bot)
			default:
				reg = aba.NewStrong[string](env, 2, spec.Bot)
			}
			return []sched.Program{
				func(p *sched.Proc) {
					for i := 0; i < 2; i++ {
						p.Do("DRead()", func() string {
							v, flag := reg.DRead(0)
							return fmt.Sprintf("(%s,%t)", v, flag)
						})
					}
				},
				func(p *sched.Proc) {
					for i := 0; i < 5; i++ {
						p.Do("DWrite(x)", func() string {
							reg.DWrite(1, "x")
							return "ok"
						})
					}
				},
			}
		},
	}
}

// Observation4Tree builds the paper's transcript tree {S, T1, T2} for the
// given implementation, using the step accounting of Algorithm 1:
// DWrite = 4 scheduled steps (inv, read A[c], write X, ret) and DRead = 6
// (inv, read X, read A[q], write A[q], read X, ret).
//
// It is meaningful only for ABALinearizable; Algorithm 2's DRead has a
// different step structure, so its strong linearizability is tested on
// random and exhaustive trees instead.
func Observation4Tree() (*sched.TreeNode, error) {
	rep := func(pid, k int) []int {
		out := make([]int, k)
		for i := range out {
			out[i] = pid
		}
		return out
	}
	cat := func(parts ...[]int) []int {
		var out []int
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	prefixS := cat(rep(1, 4), rep(0, 3), rep(1, 4))
	contT1 := cat(rep(1, 12), rep(0, 3), rep(0, 6))
	contT2 := cat(rep(0, 3), rep(0, 6))
	return sched.PrefixTree(Observation4System(ABALinearizable), prefixS, [][]int{contT1, contT2}, sched.Options{})
}

// RandomBranchTree samples a random schedule prefix and attaches fanout
// completed continuations diverging after it.
func RandomBranchTree(sys sched.System, seed int64, prefixLen, fanout int) (*sched.TreeNode, error) {
	probe := sched.Run(sys, sched.NewSeeded(seed), sched.Options{})
	prefix := probe.Schedule
	if len(prefix) > prefixLen {
		prefix = prefix[:prefixLen]
	}
	conts := make([][]int, 0, fanout)
	for f := 0; f < fanout; f++ {
		adv := sched.NewChain(sched.NewScript(prefix...), sched.NewSeeded(seed*1009+int64(f)))
		res := sched.Run(sys, adv, sched.Options{})
		if res.Err != nil {
			return nil, res.Err
		}
		conts = append(conts, res.Schedule[len(prefix):])
	}
	return sched.PrefixTree(sys, prefix, conts, sched.Options{})
}

// DeepBranchTree samples a multi-level branching tree: at each of depth
// levels the schedule forks into fanout continuations, each extended by
// extLen random choices; leaves run to completion. This probes prefix
// preservation across nested futures, which single-level trees cannot.
func DeepBranchTree(sys sched.System, seed int64, depth, fanout, extLen int) (*sched.TreeNode, error) {
	var build func(prefix []int, level int, seed int64) (*sched.TreeNode, error)
	build = func(prefix []int, level int, seed int64) (*sched.TreeNode, error) {
		res := sched.RunScript(sys, prefix, sched.Options{})
		if res.Err != nil {
			return nil, res.Err
		}
		node := &sched.TreeNode{
			Schedule: append([]int(nil), prefix...),
			T:        res.T,
			Enabled:  res.Enabled,
		}
		if len(res.Enabled) == 0 {
			return node, nil // all programs finished
		}
		for f := 0; f < fanout; f++ {
			childSeed := seed*131 + int64(f) + 1
			var childSchedule []int
			if level == 0 {
				// Leaf level: run to completion.
				adv := sched.NewChain(sched.NewScript(prefix...), sched.NewSeeded(childSeed))
				full := sched.Run(sys, adv, sched.Options{})
				if full.Err != nil {
					return nil, full.Err
				}
				childSchedule = full.Schedule
			} else {
				adv := sched.NewChain(sched.NewScript(prefix...), sched.NewSeeded(childSeed))
				full := sched.Run(sys, adv, sched.Options{})
				if full.Err != nil {
					return nil, full.Err
				}
				childSchedule = full.Schedule
				if len(childSchedule) > len(prefix)+extLen {
					childSchedule = childSchedule[:len(prefix)+extLen]
				}
			}
			child, err := build(childSchedule, level-1, childSeed)
			if err != nil {
				return nil, err
			}
			if !node.T.IsPrefixOf(child.T) {
				return nil, fmt.Errorf("harness: deep tree child does not extend parent")
			}
			node.Children = append(node.Children, child)
		}
		return node, nil
	}
	probe := sched.Run(sys, sched.NewSeeded(seed), sched.Options{})
	prefix := probe.Schedule
	if len(prefix) > extLen {
		prefix = prefix[:extLen]
	}
	return build(prefix, depth, seed)
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

// TreeStats summarizes a transcript tree.
func TreeStats(node *sched.TreeNode) (nodes, leaves, maxDepth int) {
	var walk func(n *sched.TreeNode, depth int)
	walk = func(n *sched.TreeNode, depth int) {
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

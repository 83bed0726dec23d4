// Package harness holds what the model-checking tests, cmd/slcheck and
// examples/adversary share: the simulated ABA-register and snapshot
// workloads, the paper's Observation 4 transcript tree, the guided Hunt
// that rediscovers it, and the Recorder that turns a native (really
// parallel) run into a history the checkers accept. The paper's claims
// themselves are asserted by tests beside their objects; the claim index in
// docs/ARCHITECTURE.md names them.
package harness

import (
	"fmt"

	"slmem/internal/aba"
	"slmem/internal/core"
	"slmem/internal/sched"
	"slmem/internal/spec"
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

func newABA(impl ABAImpl, env *sched.Env, n int) dregister {
	if impl == ABALinearizable {
		return aba.NewLinearizable[string](env, n, spec.Bot)
	}
	return aba.NewStrong[string](env, n, spec.Bot)
}

// ABASystem builds a simulated ABA workload: readerPids perform reads DReads
// each, the rest perform writes DWrites each.
func ABASystem(impl ABAImpl, n, readers, reads, writes int) sched.System {
	return sched.System{
		N: n,
		Setup: func(env *sched.Env) []sched.Program {
			reg := newABA(impl, env, n)
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
			reg := newABA(impl, env, 2)
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
	prefixS := cat(
		rep(1, 4), // dw1
		rep(0, 3), // dr1 through line 16
		rep(1, 4), // dw2 (the paper's dw_{i+1}, choosing s' != s)
	)
	contT1 := cat(
		rep(1, 12), // dw3, dw4, dw5 (dw5 = the paper's dw_j, reusing s)
		rep(0, 3),  // dr1 from line 17 to completion
		rep(0, 6),  // dr2
	)
	contT2 := cat(
		rep(0, 3), // dr1 from line 17 to completion
		rep(0, 6), // dr2
	)
	return sched.PrefixTree(Observation4System(ABALinearizable), prefixS, [][]int{contT1, contT2}, sched.Options{})
}

package snapshot

import (
	"fmt"
	"testing"

	"slmem/internal/lincheck"
	"slmem/internal/memory"
	"slmem/internal/sched"
	"slmem/internal/spec"
)

// brokenCollect is a deliberately incorrect snapshot whose Scan performs a
// single collect with no clean-double-collect check. It exists to prove the
// linearizability harness has teeth: the classic two-scanner interleaving
// below produces contradictory views that lincheck must reject.
type brokenCollect struct {
	n    int
	regs []memory.Reg[string]
}

var _ Snapshot[string] = (*brokenCollect)(nil)

func newBrokenCollect(alloc memory.Allocator, n int) *brokenCollect {
	s := &brokenCollect{n: n, regs: make([]memory.Reg[string], n)}
	for i := range s.regs {
		s.regs[i] = memory.NewReg(alloc, fmt.Sprintf("broken.R[%d]", i), spec.Bot)
	}
	return s
}

func (s *brokenCollect) Update(pid int, x string) {
	s.regs[pid].Write(pid, x)
}

func (s *brokenCollect) Scan(pid int) []string {
	out := make([]string, s.n)
	for i := range s.regs {
		out[i] = s.regs[i].Read(pid)
	}
	return out
}

func (s *brokenCollect) ScanVersioned(pid int) ([]string, uint64, bool) { return s.Scan(pid), 0, false }

// TestCheckerCatchesTornCollect scripts the classic counterexample: two
// concurrent single-collect scans observe two concurrent updates in
// contradictory orders. scan0 sees {a, not b}, scan1 sees {b, not a}, yet
// update(a) happens-before update(b) — no linearization exists.
func TestCheckerCatchesTornCollect(t *testing.T) {
	sys := sched.System{
		N: 4,
		Setup: func(env *sched.Env) []sched.Program {
			s := newBrokenCollect(env, 4)
			progs := make([]sched.Program, 4)
			for pid := 0; pid < 2; pid++ {
				pid := pid
				progs[pid] = func(p *sched.Proc) {
					p.Do("scan()", func() string {
						return spec.FormatView(s.Scan(pid))
					})
				}
			}
			for pid := 2; pid < 4; pid++ {
				pid := pid
				x := string(rune('a' + pid - 2))
				progs[pid] = func(p *sched.Proc) {
					p.Do(spec.FormatInvocation("update", x), func() string {
						s.Update(pid, x)
						return "ok"
					})
				}
			}
			return progs
		},
	}

	// p1 reads comps 0..2 (comp2 still old) / p2 writes a to comp2 in full /
	// p0 scans comps 0..3 (comp2 new, comp3 old) / p3 writes b to comp3 in
	// full / p1 reads comp3 (new) and returns / p0 returns.
	schedule := []int{
		1, 1, 1, 1, // p1: inv, r0, r1, r2(old)
		2, 2, 2, // p2: update(a) complete
		0, 0, 0, 0, 0, // p0: inv, r0, r1, r2(new), r3(old)
		3, 3, 3, // p3: update(b) complete
		1, 1, // p1: r3(new), ret
		0, // p0: ret
	}
	res := sched.RunScript(sys, schedule, sched.Options{})
	if res.Err != nil {
		t.Fatalf("script error: %v", res.Err)
	}

	h := res.T.Interpreted()
	var v0, v1 string
	for _, op := range h.Ops {
		if op.Desc == "scan()" && op.Complete() {
			if op.PID == 0 {
				v0 = op.Res
			} else {
				v1 = op.Res
			}
		}
	}
	wantV0 := "[" + spec.Bot + " " + spec.Bot + " a " + spec.Bot + "]"
	wantV1 := "[" + spec.Bot + " " + spec.Bot + " " + spec.Bot + " b]"
	if v0 != wantV0 || v1 != wantV1 {
		t.Fatalf("scripted views: scan0=%s scan1=%s, want %s / %s", v0, v1, wantV0, wantV1)
	}

	chk, err := lincheck.CheckTranscript(res.T, spec.Snapshot{N: 4})
	if err != nil {
		t.Fatal(err)
	}
	if chk.Ok {
		t.Fatal("torn single-collect views accepted as linearizable — checker is toothless")
	}

	// The real implementations must survive the same schedule shape; run the
	// correct double-collect under every seed of the same process mix.
	good := sched.System{
		N: 4,
		Setup: func(env *sched.Env) []sched.Program {
			s := NewDoubleCollect[string](env, 4, spec.Bot)
			progs := make([]sched.Program, 4)
			for pid := 0; pid < 2; pid++ {
				pid := pid
				progs[pid] = func(p *sched.Proc) {
					p.Do("scan()", func() string {
						return spec.FormatView(s.Scan(pid))
					})
				}
			}
			for pid := 2; pid < 4; pid++ {
				pid := pid
				x := string(rune('a' + pid - 2))
				progs[pid] = func(p *sched.Proc) {
					p.Do(spec.FormatInvocation("update", x), func() string {
						s.Update(pid, x)
						return "ok"
					})
				}
			}
			return progs
		},
	}
	for seed := int64(0); seed < 20; seed++ {
		res := sched.Run(good, sched.NewSeeded(seed), sched.Options{})
		if !res.Completed() {
			t.Fatalf("seed %d incomplete: %v", seed, res.Err)
		}
		chk, err := lincheck.CheckTranscript(res.T, spec.Snapshot{N: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !chk.Ok {
			t.Fatalf("seed %d: double-collect not linearizable", seed)
		}
	}
}

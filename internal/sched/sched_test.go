package sched

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"slmem/internal/memory"
	"slmem/internal/trace"
)

// regSystem is a tiny system: each process writes its pid+1 to a shared
// register and then reads it, ops times.
func regSystem(n, ops int) System {
	return System{
		N: n,
		Setup: func(env *Env) []Program {
			x := memory.NewReg(env, "X", 0)
			progs := make([]Program, n)
			for pid := 0; pid < n; pid++ {
				pid := pid
				progs[pid] = func(p *Proc) {
					for i := 0; i < ops; i++ {
						p.Do(fmt.Sprintf("write(%d)", pid+1), func() string {
							x.Write(p.PID(), pid+1)
							return "ok"
						})
						p.Do("read()", func() string {
							return fmt.Sprintf("%d", x.Read(p.PID()))
						})
					}
				}
			}
			return progs
		},
	}
}

func TestRunToCompletionRoundRobin(t *testing.T) {
	res := Run(regSystem(3, 2), &RoundRobin{}, Options{})
	if !res.Completed() {
		t.Fatalf("run did not complete: err=%v enabled=%v", res.Err, res.Enabled)
	}
	h := res.T.Interpreted()
	if len(h.Ops) != 3*2*2 {
		t.Fatalf("got %d ops, want 12", len(h.Ops))
	}
	if !h.Complete() {
		t.Fatal("history has pending ops after completed run")
	}
	if res.Registers != 1 {
		t.Errorf("Registers = %d, want 1", res.Registers)
	}
}

func TestDeterministicReplay(t *testing.T) {
	r1 := Run(regSystem(3, 3), NewSeeded(42), Options{})
	r2 := Run(regSystem(3, 3), NewSeeded(42), Options{})
	if !r1.Completed() || !r2.Completed() {
		t.Fatalf("runs incomplete: %v / %v", r1.Err, r2.Err)
	}
	if !reflect.DeepEqual(r1.T.Events, r2.T.Events) {
		t.Fatal("same seed produced different transcripts")
	}
	r3 := Run(regSystem(3, 3), NewSeeded(43), Options{})
	if reflect.DeepEqual(r1.T.Events, r3.T.Events) {
		t.Log("different seeds produced identical transcripts (possible but unlikely)")
	}
}

func TestScriptExactControl(t *testing.T) {
	// p0's first op is write(1): steps are inv, reg write, ret.
	res := RunScript(regSystem(2, 1), []int{0, 0, 0}, Options{})
	if res.Err != nil {
		t.Fatalf("script run error: %v", res.Err)
	}
	events := res.T.Events
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3:\n%s", len(events), res.T)
	}
	if events[0].Kind != trace.KindInvoke || events[1].Kind != trace.KindWrite || events[2].Kind != trace.KindReturn {
		t.Fatalf("unexpected event kinds:\n%s", res.T)
	}
	// Both processes should still be enabled.
	if !reflect.DeepEqual(res.Enabled, []int{0, 1}) {
		t.Errorf("Enabled = %v, want [0 1]", res.Enabled)
	}
}

func TestScriptViolation(t *testing.T) {
	// Schedule a pid that does not exist / is not enabled.
	res := RunScript(regSystem(2, 1), []int{5}, Options{})
	if !errors.Is(res.Err, ErrScheduleViolation) {
		t.Fatalf("err = %v, want ErrScheduleViolation", res.Err)
	}
}

func TestStepLimit(t *testing.T) {
	res := Run(regSystem(2, 100), &RoundRobin{}, Options{StepLimit: 10})
	if res.Err == nil {
		t.Fatal("expected step-limit error")
	}
	if res.Steps != 10 {
		t.Errorf("Steps = %d, want 10", res.Steps)
	}
}

func TestInterleavingVisible(t *testing.T) {
	// p0 writes 1; p1 writes 2; p0 reads. Schedule p1's write between p0's
	// write and read; p0 must read 2.
	sys := System{
		N: 2,
		Setup: func(env *Env) []Program {
			x := memory.NewReg(env, "X", 0)
			return []Program{
				func(p *Proc) {
					p.Do("write(1)", func() string { x.Write(0, 1); return "ok" })
					p.Do("read()", func() string { return fmt.Sprintf("%d", x.Read(0)) })
				},
				func(p *Proc) {
					p.Do("write(2)", func() string { x.Write(1, 2); return "ok" })
				},
			}
		},
	}
	// p0: inv,w,ret, then p1: inv,w,ret, then p0: inv,r,ret.
	res := RunScript(sys, []int{0, 0, 0, 1, 1, 1, 0, 0, 0}, Options{})
	if res.Err != nil {
		t.Fatalf("run error: %v", res.Err)
	}
	h := res.T.Interpreted()
	var readRes string
	for _, op := range h.Ops {
		if op.Desc == "read()" {
			readRes = op.Res
		}
	}
	if readRes != "2" {
		t.Errorf("p0 read %q, want 2 (p1's write scheduled in between)", readRes)
	}
}

func TestAbortLeavesPendingOps(t *testing.T) {
	// Stop p0 mid-operation: between its invocation and register step.
	res := RunScript(regSystem(1, 1), []int{0}, Options{})
	if res.Err != nil {
		t.Fatalf("run error: %v", res.Err)
	}
	h := res.T.Interpreted()
	if len(h.Ops) != 1 || h.Ops[0].Complete() {
		t.Fatalf("want exactly one pending op, got:\n%s", h)
	}
}

// TestRunEndsLeaveNoGoroutine: however a run ends, Run has unwound every
// process's coroutine before it returns, and its Result reports the end.
func TestRunEndsLeaveNoGoroutine(t *testing.T) {
	cases := []struct {
		name     string
		adv      Adversary
		opts     Options
		steps    int
		enabled  []int
		err      string
		complete bool
	}{
		{"completed", &RoundRobin{}, Options{}, 12, nil, "<nil>", true},
		{"adversary stops", NewScript(0, 1, 0), Options{}, 3, []int{0, 1}, "<nil>", false},
		{"step limit", &RoundRobin{}, Options{StepLimit: 5}, 5, []int{0, 1}, "sched: step limit 5 reached", false},
		{"schedule violation", NewScript(0, 2), Options{}, 1, []int{0, 1}, ErrScheduleViolation.Error() + ": pid 2, enabled [0 1]", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			res := Run(regSystem(2, 1), c.adv, c.opts)
			if after := runtime.NumGoroutine(); after != before {
				t.Errorf("%d goroutines after Run, %d before", after, before)
			}
			if res.Steps != c.steps || len(res.Schedule) != c.steps {
				t.Errorf("Steps = %d, Schedule = %v; want %d steps", res.Steps, res.Schedule, c.steps)
			}
			if !reflect.DeepEqual(res.Enabled, c.enabled) {
				t.Errorf("Enabled = %v, want %v", res.Enabled, c.enabled)
			}
			if got := fmt.Sprint(res.Err); got != c.err {
				t.Errorf("Err = %s, want %s", got, c.err)
			}
			if res.Completed() != c.complete || res.Registers != 1 || len(res.T.Events) != c.steps {
				t.Errorf("Completed = %v, Registers = %d, %d events; want %v, 1, %d",
					res.Completed(), res.Registers, len(res.T.Events), c.complete, c.steps)
			}
		})
	}
}

// TestProgramPanicReachesCaller: a panic in a program, before its first step
// or after one, comes back out of Run, and the other processes are unwound.
func TestProgramPanicReachesCaller(t *testing.T) {
	for _, steps := range []int{0, 1} {
		sys := System{
			N: 2,
			Setup: func(env *Env) []Program {
				x := memory.NewReg(env, "X", 0)
				return []Program{
					func(p *Proc) { x.Read(0) },
					func(p *Proc) {
						for i := 0; i < steps; i++ {
							x.Read(1)
						}
						panic("boom")
					},
				}
			},
		}
		before := runtime.NumGoroutine()
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Errorf("steps=%d: recovered %v, want boom", steps, r)
				}
			}()
			Run(sys, NewScript(1), Options{})
			t.Errorf("steps=%d: Run returned", steps)
		}()
		if after := runtime.NumGoroutine(); after != before {
			t.Errorf("steps=%d: %d goroutines after Run, %d before", steps, after, before)
		}
	}
}

// TestRunStartsProgramsInPidOrder: code before a program's first step runs
// in pid order, one program at a time.
func TestRunStartsProgramsInPidOrder(t *testing.T) {
	var order []int
	sys := System{
		N: 4,
		Setup: func(env *Env) []Program {
			x := memory.NewReg(env, "X", 0)
			progs := make([]Program, 4)
			for pid := range progs {
				progs[pid] = func(p *Proc) {
					order = append(order, pid)
					x.Read(pid)
				}
			}
			return progs
		},
	}
	res := Run(sys, NewScript(), Options{})
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3}) {
		t.Errorf("programs started in order %v, want [0 1 2 3]", order)
	}
	if !reflect.DeepEqual(res.Enabled, []int{0, 1, 2, 3}) || res.Steps != 0 {
		t.Errorf("Enabled = %v after %d steps, want [0 1 2 3] after 0", res.Enabled, res.Steps)
	}
}

func TestRunToCompletionAfterPrefix(t *testing.T) {
	res := RunToCompletion(regSystem(2, 2), []int{0, 0}, Options{})
	if !res.Completed() {
		t.Fatalf("not completed: %v", res.Err)
	}
	if !res.T.Interpreted().Complete() {
		t.Fatal("history incomplete")
	}
}

func TestExploreSmall(t *testing.T) {
	// One process, one op: linear chain of 3+1 nodes, no branching.
	tree, err := Explore(regSystem(1, 1), 0, 100, Options{})
	if err != nil {
		t.Fatal(err)
	}
	depth := 0
	for n := tree; n != nil; {
		if len(n.Children) > 1 {
			t.Fatal("single-process exploration branched")
		}
		if len(n.Children) == 0 {
			break
		}
		n = n.Children[0]
		depth++
	}
	// write op: inv, reg, ret; read op: inv, reg, ret.
	if depth != 6 {
		t.Errorf("chain depth = %d, want 6", depth)
	}
}

func TestExploreBranches(t *testing.T) {
	tree, err := Explore(regSystem(2, 1), 3, 1000, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Children) != 2 {
		t.Fatalf("root has %d children, want 2", len(tree.Children))
	}
	// Every child transcript must extend its parent's.
	var verify func(n *TreeNode)
	verify = func(n *TreeNode) {
		for _, c := range n.Children {
			if !n.T.IsPrefixOf(c.T) {
				t.Fatalf("child transcript does not extend parent (schedule %v -> %v)", n.Schedule, c.Schedule)
			}
			verify(c)
		}
	}
	verify(tree)
}

func TestExploreNodeBudget(t *testing.T) {
	_, err := Explore(regSystem(3, 3), 0, 5, Options{})
	if !errors.Is(err, ErrTooManyNodes) {
		t.Fatalf("err = %v, want ErrTooManyNodes", err)
	}
}

func TestPrefixTree(t *testing.T) {
	prefix := []int{0, 0} // p0: inv + write step
	conts := [][]int{
		{0, 1, 1, 1},
		{1, 1, 1, 0},
	}
	tree, err := PrefixTree(regSystem(2, 1), prefix, conts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Children) != 2 {
		t.Fatalf("children = %d, want 2", len(tree.Children))
	}
	for _, c := range tree.Children {
		if !tree.T.IsPrefixOf(c.T) {
			t.Fatal("continuation does not extend prefix")
		}
	}
}

func TestAnnotateRecorded(t *testing.T) {
	sys := System{
		N: 1,
		Setup: func(env *Env) []Program {
			x := memory.NewReg(env, "X", 0)
			return []Program{func(p *Proc) {
				p.Do("op()", func() string {
					x.Write(0, 1)
					p.Annotate("linearized")
					return "ok"
				})
			}}
		},
	}
	res := Run(sys, &RoundRobin{}, Options{})
	if !res.Completed() {
		t.Fatalf("incomplete: %v", res.Err)
	}
	found := false
	for _, e := range res.T.Events {
		if e.Kind == trace.KindAnnotate && e.Desc == "linearized" {
			found = true
		}
	}
	if !found {
		t.Error("annotation not recorded")
	}
}

func TestRegisterNameUniquing(t *testing.T) {
	env := newEnv(1)
	r1 := env.NewRegister("A", 0)
	r2 := env.NewRegister("A", 0)
	if r1.Name() == r2.Name() {
		t.Errorf("duplicate register names: %q", r1.Name())
	}
	if env.Registers() != 2 {
		t.Errorf("Registers = %d, want 2", env.Registers())
	}
}

// Property: for any seed, a completed run of the tiny system yields a
// transcript whose per-process projection is well-formed (inv/step/ret
// pattern, sequential ops).
func TestWellFormedPerProcess(t *testing.T) {
	f := func(seed int64) bool {
		res := Run(regSystem(2, 2), NewSeeded(seed), Options{})
		if !res.Completed() {
			return false
		}
		for pid := 0; pid < 2; pid++ {
			proj := res.T.ProjectPID(pid)
			depth := 0 // 0 = between ops, 1 = inside an op
			for _, e := range proj.Events {
				switch e.Kind {
				case trace.KindInvoke:
					if depth != 0 {
						return false
					}
					depth = 1
				case trace.KindReturn:
					if depth != 1 {
						return false
					}
					depth = 0
				case trace.KindRead, trace.KindWrite:
					if depth != 1 {
						return false
					}
				case trace.KindAnnotate:
					// allowed anywhere
				}
			}
			if depth != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestTranscriptLabelsAddresses: a register holding a pointer is recorded
// with a label for the address, not the address, so that two runs of one
// schedule record one transcript even though each allocates its objects
// elsewhere — which is what lets DeepBranchTree hold a parent's transcript to
// be a prefix of its child's. One object keeps one label, and two objects
// never share one.
func TestTranscriptLabelsAddresses(t *testing.T) {
	type box struct{ v int }
	type cell struct {
		b *box
		i int
	}
	sys := System{
		N: 2,
		Setup: func(env *Env) []Program {
			x := memory.NewReg(env, "X", cell{})
			progs := make([]Program, 2)
			for pid := range progs {
				progs[pid] = func(p *Proc) {
					for i := 0; i < 3; i++ {
						p.Do("write()", func() string {
							x.Write(pid, cell{b: &box{v: pid}, i: i})
							return "ok"
						})
						p.Do("read()", func() string { return fmt.Sprint(x.Read(pid).i) })
					}
				}
			}
			return progs
		},
	}
	r1 := Run(sys, NewSeeded(7), Options{})
	r2 := Run(sys, NewSeeded(7), Options{})
	if !r1.Completed() || !r2.Completed() {
		t.Fatalf("incomplete: %v / %v", r1.Err, r2.Err)
	}
	if !reflect.DeepEqual(r1.T.Events, r2.T.Events) {
		t.Fatal("two runs of one schedule recorded different transcripts")
	}
	written := map[string]bool{}
	for _, e := range r1.T.Events {
		if strings.Contains(e.Val, "0x") {
			t.Fatalf("transcript shows an address: %v", e)
		}
		switch e.Kind {
		case trace.KindWrite:
			if written[e.Val] {
				t.Errorf("two writes of distinct objects recorded as one value %s", e.Val)
			}
			written[e.Val] = true
		case trace.KindRead:
			if e.Val != "{<nil> 0}" && !written[e.Val] {
				t.Errorf("read %s, which no write recorded", e.Val)
			}
		}
	}
	if len(written) != 6 {
		t.Errorf("%d distinct written values, want 6", len(written))
	}
}

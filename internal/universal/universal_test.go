package universal

import (
	"strings"
	"testing"
	"testing/quick"

	"slmem/internal/lincheck"
	"slmem/internal/memory"
	"slmem/internal/sched"
	"slmem/internal/spec"
	"slmem/internal/trace"
)

func TestProvidedTypesAreSimple(t *testing.T) {
	pids := []int{0, 1, 2}
	tests := []struct {
		typ   Type
		descs []string
	}{
		{CounterType{}, []string{"inc()", "read()"}},
		{SetType{}, []string{"add(a)", "add(b)", "contains(a)", "contains(b)"}},
		{AccumulatorType{}, []string{"addTo(1)", "addTo(-2)", "read()"}},
		{MaxRegType{}, []string{"maxWrite(3)", "maxWrite(7)", "maxRead()"}},
		{RegisterType{}, []string{"write(a)", "write(b)", "read()"}},
		{SnapshotType{N: 3}, []string{"update(a)", "update(b)", "scan()"}},
	}
	for _, tc := range tests {
		t.Run(tc.typ.Name(), func(t *testing.T) {
			if err := ValidateSimple(tc.typ, tc.descs, pids); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestDominanceAntisymmetric(t *testing.T) {
	types := []struct {
		typ   Type
		descs []string
	}{
		{CounterType{}, []string{"inc()", "read()"}},
		{SetType{}, []string{"add(a)", "contains(a)", "add(b)"}},
		{MaxRegType{}, []string{"maxWrite(3)", "maxWrite(7)", "maxRead()"}},
		{RegisterType{}, []string{"write(a)", "write(b)", "read()"}},
		{SnapshotType{N: 2}, []string{"update(a)", "scan()"}},
	}
	for _, tc := range types {
		for _, a := range tc.descs {
			for _, b := range tc.descs {
				for pa := 0; pa < 2; pa++ {
					for pb := 0; pb < 2; pb++ {
						if a == b && pa == pb {
							continue
						}
						if Dominates(tc.typ, a, pa, b, pb) && Dominates(tc.typ, b, pb, a, pa) {
							t.Errorf("%s: dominance not antisymmetric for %s(p%d) / %s(p%d)",
								tc.typ.Name(), a, pa, b, pb)
						}
					}
				}
			}
		}
	}
}

func mustExecute(t *testing.T, o *Object, p int, invoke string) string {
	t.Helper()
	resp, err := o.Execute(p, invoke)
	if err != nil {
		t.Fatalf("Execute(%d, %s): %v", p, invoke, err)
	}
	return resp
}

func TestCounterSequential(t *testing.T) {
	var alloc memory.NativeAllocator
	o := New(&alloc, CounterType{}, 3)
	if got := mustExecute(t, o, 0, "read()"); got != "0" {
		t.Errorf("initial read = %q", got)
	}
	mustExecute(t, o, 0, "inc()")
	mustExecute(t, o, 1, "inc()")
	mustExecute(t, o, 2, "inc()")
	if got := mustExecute(t, o, 1, "read()"); got != "3" {
		t.Errorf("read = %q, want 3", got)
	}
}

func TestSetSequential(t *testing.T) {
	var alloc memory.NativeAllocator
	o := New(&alloc, SetType{}, 2)
	if got := mustExecute(t, o, 0, "contains(x)"); got != "false" {
		t.Errorf("contains on empty = %q", got)
	}
	mustExecute(t, o, 0, "add(x)")
	mustExecute(t, o, 1, "add(y)")
	if got := mustExecute(t, o, 1, "contains(x)"); got != "true" {
		t.Errorf("contains(x) = %q", got)
	}
	if got := mustExecute(t, o, 0, "contains(z)"); got != "false" {
		t.Errorf("contains(z) = %q", got)
	}
}

func TestRegisterSequential(t *testing.T) {
	var alloc memory.NativeAllocator
	o := New(&alloc, RegisterType{}, 2)
	mustExecute(t, o, 0, "write(a)")
	mustExecute(t, o, 1, "write(b)")
	if got := mustExecute(t, o, 0, "read()"); got != "b" {
		t.Errorf("read = %q, want b (last write)", got)
	}
}

func TestExecuteRejectsBadInvocation(t *testing.T) {
	var alloc memory.NativeAllocator
	o := New(&alloc, CounterType{}, 1)
	if _, err := o.Execute(0, "frobnicate()"); err == nil {
		t.Error("bad invocation accepted")
	}
}

// TestNewRefusesNoProcesses: New refuses n < 1 with this package's message,
// before the snapshot it builds can refuse with core's.
func TestNewRefusesNoProcesses(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if want := "universal: n = 0, need at least 1 process"; msg != want {
			t.Errorf("New(n = 0) panicked with %q, want %q", msg, want)
		}
	}()
	var alloc memory.NativeAllocator
	New(&alloc, CounterType{}, 0)
}

func TestSequentialRandomAgainstSpec(t *testing.T) {
	const n = 3
	builders := map[string]struct {
		typ Type
		ops []string
		sp  spec.Spec
	}{
		"counter":     {CounterType{}, []string{"inc()", "read()"}, spec.Counter{}},
		"set":         {SetType{}, []string{"add(a)", "add(b)", "contains(a)", "contains(b)"}, spec.Set{}},
		"accumulator": {AccumulatorType{}, []string{"addTo(2)", "addTo(-1)", "read()"}, spec.Accumulator{}},
		"maxreg":      {MaxRegType{}, []string{"maxWrite(3)", "maxWrite(9)", "maxRead()"}, spec.MaxRegister{}},
	}
	for name, b := range builders {
		b := b
		t.Run(name, func(t *testing.T) {
			f := func(script []uint8) bool {
				var alloc memory.NativeAllocator
				o := New(&alloc, b.typ, n)
				state := b.sp.Initial()
				for _, raw := range script {
					pid := int(raw) % n
					desc := b.ops[int(raw/3)%len(b.ops)]
					got, err := o.Execute(pid, desc)
					if err != nil {
						return false
					}
					next, want, err := b.sp.Apply(state, pid, desc)
					if err != nil {
						return false
					}
					if got != want {
						t.Logf("%s by p%d: got %q, want %q", desc, pid, got, want)
						return false
					}
					state = next
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Error(err)
			}
		})
	}
}

// simSystem builds a simulated system executing the given per-process
// invocation scripts against a universal object of the given type.
func simSystem(typ Type, scripts [][]string) sched.System {
	n := len(scripts)
	return sched.System{
		N: n,
		Setup: func(env *sched.Env) []sched.Program {
			o := New(env, typ, n)
			progs := make([]sched.Program, n)
			for pid := range scripts {
				pid := pid
				progs[pid] = func(p *sched.Proc) {
					for _, desc := range scripts[pid] {
						desc := desc
						p.Do(desc, func() string {
							resp, err := o.Execute(pid, desc)
							if err != nil {
								return "ERR:" + err.Error()
							}
							return resp
						})
					}
				}
			}
			return progs
		},
	}
}

func TestLinearizableUnderRandomSchedules(t *testing.T) {
	cases := []struct {
		name    string
		typ     Type
		scripts [][]string
		sp      spec.Spec
	}{
		{"counter", CounterType{}, [][]string{{"inc()", "read()"}, {"inc()", "read()"}, {"inc()"}}, spec.Counter{}},
		{"set", SetType{}, [][]string{{"add(a)", "contains(b)"}, {"add(b)", "contains(a)"}}, spec.Set{}},
		{"register", RegisterType{}, [][]string{{"write(a)", "read()"}, {"write(b)", "read()"}}, spec.Register{}},
		{"maxreg", MaxRegType{}, [][]string{{"maxWrite(5)", "maxRead()"}, {"maxWrite(3)", "maxRead()"}}, spec.MaxRegister{}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 20; seed++ {
				res := sched.Run(simSystem(tc.typ, tc.scripts), sched.NewSeeded(seed), sched.Options{})
				if !res.Completed() {
					t.Fatalf("seed %d: incomplete: %v", seed, res.Err)
				}
				chk, err := lincheck.CheckTranscript(res.T, tc.sp)
				if err != nil {
					t.Fatal(err)
				}
				if !chk.Ok {
					t.Fatalf("seed %d: not linearizable:\n%s", seed, res.T.Interpreted())
				}
			}
		})
	}
}

func TestStrongChainMonitor(t *testing.T) {
	scripts := [][]string{{"inc()", "read()"}, {"inc()", "read()"}}
	for seed := int64(0); seed < 10; seed++ {
		res := sched.Run(simSystem(CounterType{}, scripts), sched.NewSeeded(seed), sched.Options{})
		if !res.Completed() {
			t.Fatalf("seed %d: incomplete: %v", seed, res.Err)
		}
		chk, err := lincheck.CheckChain(res.T, spec.Counter{})
		if err != nil {
			t.Fatal(err)
		}
		if !chk.Ok {
			t.Fatalf("seed %d: chain check failed at %s", seed, chk.FailNode)
		}
	}
}

func TestStrongBranchingTrees(t *testing.T) {
	sys := simSystem(CounterType{}, [][]string{{"inc()", "read()"}, {"inc()", "read()"}})
	for seed := int64(0); seed < 6; seed++ {
		tree, err := sched.RandomBranchTree(sys, seed, 12, 3)
		if err != nil {
			t.Fatal(err)
		}
		res, err := lincheck.CheckStrong(lincheck.FromSchedTree(tree), spec.Counter{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Ok {
			t.Fatalf("seed %d: strong tree check failed at %s", seed, res.FailNode)
		}
	}
}

// firstNodeWrite returns the index of the first event that writes a node
// into a register — a value naming a heap address, which transcripts show as
// a label — or -1.
func firstNodeWrite(tr *trace.Transcript) int {
	for i, e := range tr.Events {
		if e.Kind == trace.KindWrite && strings.Contains(e.Val, "&") {
			return i
		}
	}
	return -1
}

// TestTranscriptsAreReplayable: the registers of the universal object hold
// nodes, and two runs of one schedule — each allocating its nodes somewhere
// else — still record one transcript, addresses shown as labels.
func TestTranscriptsAreReplayable(t *testing.T) {
	sys := simSystem(CounterType{}, [][]string{{"inc()", "read()"}, {"inc()", "read()"}})
	for seed := int64(0); seed < 4; seed++ {
		r1 := sched.Run(sys, sched.NewSeeded(seed), sched.Options{})
		r2 := sched.Run(sys, sched.NewSeeded(seed), sched.Options{})
		if !r1.Completed() || !r2.Completed() {
			t.Fatalf("seed %d: incomplete: %v / %v", seed, r1.Err, r2.Err)
		}
		if firstNodeWrite(r1.T) < 0 {
			t.Fatalf("seed %d: no node was written; the test proves nothing", seed)
		}
		if !r1.T.IsPrefixOf(r2.T) || !r2.T.IsPrefixOf(r1.T) {
			t.Fatalf("seed %d: two runs of one schedule recorded different transcripts", seed)
		}
		for _, e := range r1.T.Events {
			if strings.Contains(e.Val, "0x") {
				t.Fatalf("seed %d: transcript shows an address: %v", seed, e)
			}
		}
	}
}

// TestStrongBranchingTreesPastFirstNode is TestStrongBranchingTrees with a
// prefix long enough that it publishes a node before the continuations
// branch off: the children replay the parent's schedule, and their
// transcripts must extend the parent's although every run allocates its
// nodes at other addresses.
func TestStrongBranchingTreesPastFirstNode(t *testing.T) {
	const prefixLen = 24
	sys := simSystem(CounterType{}, [][]string{{"inc()", "read()"}, {"inc()", "read()"}})
	for seed := int64(0); seed < 6; seed++ {
		tree, err := sched.RandomBranchTree(sys, seed, prefixLen, 3)
		if err != nil {
			t.Fatal(err)
		}
		if firstNodeWrite(tree.T) < 0 {
			t.Fatalf("seed %d: the %d-choice prefix publishes no node", seed, prefixLen)
		}
		res, err := lincheck.CheckStrong(lincheck.FromSchedTree(tree), spec.Counter{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Ok {
			t.Fatalf("seed %d: strong tree check failed at %s", seed, res.FailNode)
		}
	}
}

func TestHistoryGrowth(t *testing.T) {
	// The shared precedence graph keeps every operation (the construction is
	// not bounded wait-free; Section 5.3). LiveNodes must track the total
	// number of executed operations.
	var alloc memory.NativeAllocator
	o := New(&alloc, CounterType{}, 2)
	for i := 1; i <= 10; i++ {
		mustExecute(t, o, i%2, "inc()")
		if got := o.GCStats(0).LiveNodes; got != i {
			t.Fatalf("after %d ops LiveNodes = %d", i, got)
		}
	}
}

func TestDeterministicLinearization(t *testing.T) {
	// Two processes observing the same root view must compute identical
	// histories; otherwise responses would diverge. Exercised by running the
	// same mixed workload twice and comparing all responses.
	run := func() []string {
		var alloc memory.NativeAllocator
		o := New(&alloc, SetType{}, 3)
		var out []string
		script := []struct {
			pid  int
			desc string
		}{
			{0, "add(a)"}, {1, "contains(a)"}, {2, "add(b)"},
			{0, "contains(b)"}, {1, "add(a)"}, {2, "contains(a)"},
		}
		for _, s := range script {
			resp, err := o.Execute(s.pid, s.desc)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, resp)
		}
		return out
	}
	r1, r2 := run(), run()
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Errorf("response %d differs across identical runs: %q vs %q", i, r1[i], r2[i])
		}
	}
}

func TestPrecgraphStructure(t *testing.T) {
	// White box: after sequential ops by two processes, the precedence graph
	// must contain a path between every pair of non-concurrent ops.
	var alloc memory.NativeAllocator
	o := New(&alloc, CounterType{}, 2)
	mustExecute(t, o, 0, "inc()")
	mustExecute(t, o, 1, "inc()")
	mustExecute(t, o, 0, "read()")

	g := precgraph(o.root.View(0))
	if len(g.nodes) != 3 {
		t.Fatalf("graph has %d nodes, want 3", len(g.nodes))
	}
	// Sequential execution: op1 -> op2 -> op3 must all be connected.
	order := g.topoSort()
	if len(order) != 3 {
		t.Fatalf("topoSort returned %d nodes", len(order))
	}
	for i := 0; i < len(order)-1; i++ {
		if !g.reaches(order[i], order[i+1]) {
			t.Errorf("no path between sequential ops %d and %d", i, i+1)
		}
	}
}

func TestValidateSimpleRejectsNonSimple(t *testing.T) {
	if err := ValidateSimple(stickyBitType{}, []string{"write0()", "write1()"}, []int{0, 1}); err == nil {
		t.Error("sticky bit accepted as simple")
	}
}

func TestValidateSimpleRejectsEmptyPidSample(t *testing.T) {
	err := ValidateSimple(CounterType{}, []string{"inc()", "read()"}, nil)
	if err == nil || !strings.Contains(err.Error(), "pid sample is empty") {
		t.Errorf("ValidateSimple with no pids: %v, want an error naming the empty pid sample", err)
	}
}

// stickyBitType is a deliberately non-simple type: write0 and write1 neither
// commute nor overwrite (a sticky bit keeps its first value, and has
// consensus number 2 — Definition 33 excludes it).
type stickyBitType struct{}

func (stickyBitType) Name() string    { return "stickybit" }
func (stickyBitType) Spec() spec.Spec { return spec.Register{} }
func (stickyBitType) Commutes(a string, _ int, b string, _ int) bool {
	return a == b
}
func (stickyBitType) Overwrites(a string, _ int, b string, _ int) bool {
	return false
}

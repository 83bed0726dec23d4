package core

import (
	"fmt"
	"strconv"
	"sync"
	"testing"
	"testing/quick"

	"slmem/internal/aba"
	"slmem/internal/lincheck"
	"slmem/internal/memory"
	"slmem/internal/sched"
	"slmem/internal/snapshot"
	"slmem/internal/spec"
)

// slsnapshot abstracts Algorithm 3 and Algorithm 4 for shared tests.
type slsnapshot interface {
	Update(p int, x string)
	Scan(p int) []string
	Stats() *Stats
}

func implementations(alloc memory.Allocator, n int) map[string]slsnapshot {
	return map[string]slsnapshot{
		"alg3": New[string](alloc, n, spec.Bot),
		"alg4": NewSeq[string](alloc, n, spec.Bot),
	}
}

func TestSequentialSemantics(t *testing.T) {
	const n = 3
	for name := range implementations(&memory.NativeAllocator{}, n) {
		name := name
		t.Run(name, func(t *testing.T) {
			var alloc memory.NativeAllocator
			s := implementations(&alloc, n)[name]

			for i, v := range s.Scan(0) {
				if v != spec.Bot {
					t.Errorf("initial component %d = %q", i, v)
				}
			}
			s.Update(1, "x")
			s.Update(2, "y")
			s.Update(1, "z")
			got := spec.FormatView(s.Scan(0))
			want := "[" + spec.Bot + " z y]"
			if got != want {
				t.Errorf("scan = %s, want %s", got, want)
			}
		})
	}
}

func TestSequentialRandomAgainstSpec(t *testing.T) {
	const n = 3
	for name := range implementations(&memory.NativeAllocator{}, n) {
		name := name
		t.Run(name, func(t *testing.T) {
			f := func(script []uint8) bool {
				var alloc memory.NativeAllocator
				s := implementations(&alloc, n)[name]
				sp := spec.Snapshot{N: n}
				state := sp.Initial()
				for i, b := range script {
					pid := int(b) % n
					if b%2 == 0 {
						x := fmt.Sprintf("v%d", i)
						s.Update(pid, x)
						state, _, _ = sp.Apply(state, pid, spec.FormatInvocation("update", x))
					} else {
						got := spec.FormatView(s.Scan(pid))
						_, want, _ := sp.Apply(state, pid, "scan()")
						if got != want {
							return false
						}
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestScanReturnsCopy(t *testing.T) {
	var alloc memory.NativeAllocator
	s := New[string](&alloc, 2, spec.Bot)
	s.Update(0, "a")
	v := s.Scan(0)
	v[0] = "mutated"
	if s.Scan(0)[0] != "a" {
		t.Error("Scan result shares storage with the object")
	}
}

// simSystem: odd pids update, even pids scan.
func simSystem(name string, n, updates, scans int) sched.System {
	return sched.System{
		N: n,
		Setup: func(env *sched.Env) []sched.Program {
			s := implementations(env, n)[name]
			progs := make([]sched.Program, n)
			for pid := 0; pid < n; pid++ {
				pid := pid
				if pid%2 == 1 {
					progs[pid] = func(p *sched.Proc) {
						for i := 0; i < updates; i++ {
							x := fmt.Sprintf("u%d.%d", pid, i)
							p.Do(spec.FormatInvocation("update", x), func() string {
								s.Update(pid, x)
								return "ok"
							})
						}
					}
				} else {
					progs[pid] = func(p *sched.Proc) {
						for i := 0; i < scans; i++ {
							p.Do("scan()", func() string {
								return spec.FormatView(s.Scan(pid))
							})
						}
					}
				}
			}
			return progs
		},
	}
}

func TestLinearizableUnderRandomSchedules(t *testing.T) {
	for _, name := range []string{"alg3", "alg4"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 20; seed++ {
				res := sched.Run(simSystem(name, 3, 2, 2), sched.NewSeeded(seed), sched.Options{})
				if !res.Completed() {
					t.Fatalf("seed %d: incomplete: %v", seed, res.Err)
				}
				chk, err := lincheck.CheckTranscript(res.T, spec.Snapshot{N: 3})
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
	for _, name := range []string{"alg3", "alg4"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 12; seed++ {
				res := sched.Run(simSystem(name, 2, 2, 2), sched.NewSeeded(seed), sched.Options{})
				if !res.Completed() {
					t.Fatalf("seed %d: incomplete: %v", seed, res.Err)
				}
				chk, err := lincheck.CheckChain(res.T, spec.Snapshot{N: 2})
				if err != nil {
					t.Fatal(err)
				}
				if !chk.Ok {
					t.Fatalf("seed %d: no monotone linearization (fail at %s)", seed, chk.FailNode)
				}
			}
		})
	}
}

// TestStrongBranchingTrees: the composed snapshot must admit a prefix-
// preserving linearization function on randomly sampled branching trees.
func TestStrongBranchingTrees(t *testing.T) {
	sys := simSystem("alg3", 2, 2, 2)
	for seed := int64(0); seed < 10; seed++ {
		tree, err := sched.RandomBranchTree(sys, seed, 10, 3)
		if err != nil {
			t.Fatal(err)
		}
		res, err := lincheck.CheckStrong(lincheck.FromSchedTree(tree), spec.Snapshot{N: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Ok {
			t.Fatalf("seed %d: strong-linearizability tree check failed at %s", seed, res.FailNode)
		}
	}
}

// TestWidthStrongBranchingTrees: Algorithm 3 stays strongly linearizable
// over a substrate that collects only as wide as the pids that have written,
// when a high pid writes late. At n = 4 pid 2 never runs, so a scan of S is
// 1 or 2 components wide until pid 3 raises its flags, and 4 after.
func TestWidthStrongBranchingTrees(t *testing.T) {
	const n = 4
	sys := sched.System{
		N: n,
		Setup: func(env *sched.Env) []sched.Program {
			s := New[string](env, n, spec.Bot)
			scan := func(p *sched.Proc) {
				p.Do("scan()", func() string { return spec.FormatView(s.Scan(p.PID())) })
			}
			update := func(p *sched.Proc, x string) {
				p.Do(spec.FormatInvocation("update", x), func() string { s.Update(p.PID(), x); return "ok" })
			}
			return []sched.Program{
				func(p *sched.Proc) { scan(p); scan(p) },
				func(p *sched.Proc) { update(p, "a"); update(p, "b") },
				func(*sched.Proc) {},
				func(p *sched.Proc) { update(p, "c"); scan(p) },
			}
		},
	}
	for seed := int64(0); seed < 12; seed++ {
		tree, err := sched.RandomBranchTree(sys, seed, 40, 3)
		if err != nil {
			t.Fatal(err)
		}
		res, err := lincheck.CheckStrong(lincheck.FromSchedTree(tree), spec.Snapshot{N: n})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Ok {
			t.Fatalf("seed %d: strong-linearizability tree check failed at %s", seed, res.FailNode)
		}
	}
}

// TestConstructorsRefuseNoProcesses: a constructor refuses n < 1 with this
// package's message, before a substrate it builds can refuse with its own.
func TestConstructorsRefuseNoProcesses(t *testing.T) {
	var alloc memory.NativeAllocator
	for name, build := range map[string]func(){
		"New":     func() { New[string](&alloc, 0, spec.Bot) },
		"NewOver": func() { NewOver[string](&alloc, 0, spec.Bot, nil) },
		"NewSeq":  func() { NewSeq[string](&alloc, 0, spec.Bot) },
		"NewWith": func() { NewWith[string](0, nil, nil) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if want := "core: n = 0, need at least 1 process"; msg != want {
					t.Errorf("%s(n = 0) panicked with %q, want %q", name, msg, want)
				}
			}()
			build()
		}()
	}
}

// --- Theorem 32(a) and the contention-free fast path ----------------------------

func TestUpdateBaseOpCounts(t *testing.T) {
	// Theorem 32(a): each SLupdate performs at most one S.update, one
	// S.scan, and one R.DWrite — here exactly one of each.
	var alloc memory.NativeAllocator
	s := New[string](&alloc, 3, spec.Bot)
	const k = 10
	for i := 0; i < k; i++ {
		s.Update(0, strconv.Itoa(i))
	}
	st := s.Stats()
	if st.SUpdates.Load() != k || st.SScans.Load() != k || st.RDWrites.Load() != k {
		t.Errorf("counts = (%d updates, %d scans, %d dwrites), want %d each",
			st.SUpdates.Load(), st.SScans.Load(), st.RDWrites.Load(), k)
	}
	if st.RDReads.Load() != 0 {
		t.Errorf("SLupdate performed %d DReads, want 0", st.RDReads.Load())
	}
}

func TestSoloScanFastPath(t *testing.T) {
	// Contention-free SLscan: exactly one loop iteration — one S.scan and
	// two R.DReads, no helping writes (Section 4.5 remarks).
	for name := range implementations(&memory.NativeAllocator{}, 2) {
		name := name
		t.Run(name, func(t *testing.T) {
			var alloc memory.NativeAllocator
			s := implementations(&alloc, 2)[name]
			s.Update(0, "a")
			before := s.Stats().OpsInScan.Load()
			s.Scan(1)
			delta := s.Stats().OpsInScan.Load() - before
			if delta != 3 {
				t.Errorf("solo scan issued %d base ops, want 3", delta)
			}
			if got := s.Stats().MaxScanIters.Load(); got != 1 {
				t.Errorf("solo scan took %d iterations, want 1", got)
			}
		})
	}
}

// TestCollectReuseCoreReads pins the register reads of the two paths every
// operation takes, at n = 16 with pids 0 and 1 written: S's width is 2 and
// its flags W[0] set, W[1] unset. S's scan compares the registers against
// the pid's last collect, so a quiet View is two reads of X per DRead around
// one collect and the flags of S, 2 + 4 + 2 = 8 (10 when S's scan opened
// with a collect of its own), and an Update after the pid's own Update is
// one collect and the flags of S and R's one announcement read: 5 (7).
func TestCollectReuseCoreReads(t *testing.T) {
	const n = 16
	steps := memory.NewStepCounter(n)
	s := New[string](&memory.CountingAllocator{Inner: &memory.NativeAllocator{}, Counter: steps}, n, spec.Bot)
	s.Update(0, "a")
	s.Update(1, "b")
	s.View(0)
	s.View(0)
	steps.Reset()
	if view := s.View(0); view[0] != "a" || view[1] != "b" {
		t.Fatalf("View = %q, want a and b in front", view)
	}
	if got := steps.Reads(0); got != 8 {
		t.Errorf("a quiet View read %d registers, want 8", got)
	}
	s.Update(0, "c")
	steps.Reset()
	s.Update(0, "d")
	if got := steps.Reads(0); got != 5 {
		t.Errorf("an Update after an Update read %d registers, want 5", got)
	}
}

func TestHelpingPublishesToR(t *testing.T) {
	// If R and S disagree when a scan starts, the scanner must help by
	// writing its S-scan to R. Build the disagreement with an injected
	// test-double R whose content lags S.
	var alloc memory.NativeAllocator
	s := New[string](&alloc, 2, spec.Bot)
	s.Update(0, "a") // brings S and R in sync

	// Make R lag behind S by writing a stale view directly into R.
	s.r.DWrite(1, []string{spec.Bot, spec.Bot})

	before := s.Stats().RDWrites.Load()
	got := s.Scan(1)
	if got[0] != "a" {
		t.Fatalf("scan = %v, want component 0 = a", got)
	}
	if s.Stats().RDWrites.Load() == before {
		t.Error("scan observed R≠S but did not help (no R.DWrite)")
	}
}

// TestMemoKeysOnSVersion: line 50's memo is a stored view of R and the
// version of the scan of S found equal to it. An updater paused between its
// S.update (line 43) and its R.DWrite (line 45) has moved S and left R where
// it was, so a scanner that memoized R's current view must find l ≠ s2 and
// help — one helping write — which it would not if the memo were keyed on
// R's view alone.
func TestMemoKeysOnSVersion(t *testing.T) {
	check := func(t *testing.T, view func() []string, pause func(), st func() *Stats, agreed func() bool) {
		t.Helper()
		view()
		if !agreed() {
			t.Fatal("a quiet scan left no memo of R's view")
		}
		before := st().RDWrites.Load()
		pause()
		if got := view(); got[2] != "b" {
			t.Errorf("scan = %v, want the paused update's b in component 2", got)
		}
		if helps := st().RDWrites.Load() - before; helps != 1 {
			t.Errorf("%d helping writes, want 1: the scan trusted a memo of R's view that S has left", helps)
		}
	}
	t.Run("alg3", func(t *testing.T) {
		var alloc memory.NativeAllocator
		o := New[string](&alloc, 3, spec.Bot)
		o.Update(0, "a")
		check(t, func() []string { return o.View(1) },
			func() { o.s.Update(2, "b") },
			o.Stats,
			func() bool { v, _ := o.r.DRead(0); return sameView(o.pids[1].agreed, v) })
	})
	t.Run("alg4", func(t *testing.T) {
		var alloc memory.NativeAllocator
		o := NewSeq[string](&alloc, 3, spec.Bot)
		o.Update(0, "a")
		check(t, func() []string { return o.Scan(1) },
			func() { o.s.Update(2, SeqCell[string]{Val: "b", Seq: 1}) },
			o.Stats,
			func() bool { v, _ := o.r.DRead(0); return sameView(o.pids[1].agreed, v) })
	})
}

// --- Derived counter and max-register -------------------------------------------

func TestCounterSequential(t *testing.T) {
	var alloc memory.NativeAllocator
	c := NewCounter(&alloc, 3)
	if got := c.Read(0); got != 0 {
		t.Errorf("initial Read = %d", got)
	}
	c.Inc(0)
	c.Inc(1)
	c.Inc(0)
	if got := c.Read(2); got != 3 {
		t.Errorf("Read = %d, want 3", got)
	}
}

func TestCounterSimLinearizable(t *testing.T) {
	sys := sched.System{
		N: 3,
		Setup: func(env *sched.Env) []sched.Program {
			c := NewCounter(env, 3)
			progs := make([]sched.Program, 3)
			for pid := 0; pid < 3; pid++ {
				pid := pid
				progs[pid] = func(p *sched.Proc) {
					p.Do("inc()", func() string { c.Inc(pid); return "ok" })
					p.Do("read()", func() string {
						return strconv.FormatUint(c.Read(pid), 10)
					})
				}
			}
			return progs
		},
	}
	for seed := int64(0); seed < 15; seed++ {
		res := sched.Run(sys, sched.NewSeeded(seed), sched.Options{})
		if !res.Completed() {
			t.Fatalf("seed %d: incomplete: %v", seed, res.Err)
		}
		chk, err := lincheck.CheckTranscript(res.T, spec.Counter{})
		if err != nil {
			t.Fatal(err)
		}
		if !chk.Ok {
			t.Fatalf("seed %d: counter not linearizable:\n%s", seed, res.T.Interpreted())
		}
	}
}

func TestMaxRegisterSequential(t *testing.T) {
	var alloc memory.NativeAllocator
	m := NewMaxRegister(&alloc, 2)
	if got := m.MaxRead(0); got != 0 {
		t.Errorf("initial MaxRead = %d", got)
	}
	m.MaxWrite(0, 5)
	m.MaxWrite(1, 3)
	if got := m.MaxRead(0); got != 5 {
		t.Errorf("MaxRead = %d, want 5", got)
	}
	m.MaxWrite(1, 9)
	if got := m.MaxRead(0); got != 9 {
		t.Errorf("MaxRead = %d, want 9", got)
	}
}

func TestMaxRegisterNoOpWritesAreFree(t *testing.T) {
	var alloc memory.NativeAllocator
	m := NewMaxRegister(&alloc, 2)
	m.MaxWrite(0, 10)
	before := m.Stats().SUpdates.Load()
	m.MaxWrite(0, 3) // does not raise the max
	m.MaxWrite(0, 10)
	if m.Stats().SUpdates.Load() != before {
		t.Error("non-raising MaxWrite performed shared work")
	}
}

func TestMaxRegisterSimLinearizable(t *testing.T) {
	sys := sched.System{
		N: 2,
		Setup: func(env *sched.Env) []sched.Program {
			m := NewMaxRegister(env, 2)
			return []sched.Program{
				func(p *sched.Proc) {
					for _, v := range []uint64{3, 1, 7} {
						v := v
						p.Do(spec.FormatInvocation("maxWrite", strconv.FormatUint(v, 10)), func() string {
							m.MaxWrite(0, v)
							return "ok"
						})
					}
				},
				func(p *sched.Proc) {
					for i := 0; i < 3; i++ {
						p.Do("maxRead()", func() string {
							return strconv.FormatUint(m.MaxRead(1), 10)
						})
					}
				},
			}
		},
	}
	for seed := int64(0); seed < 15; seed++ {
		res := sched.Run(sys, sched.NewSeeded(seed), sched.Options{})
		if !res.Completed() {
			t.Fatalf("seed %d: incomplete: %v", seed, res.Err)
		}
		chk, err := lincheck.CheckTranscript(res.T, spec.MaxRegister{})
		if err != nil {
			t.Fatal(err)
		}
		if !chk.Ok {
			t.Fatalf("seed %d: max-register not linearizable:\n%s", seed, res.T.Interpreted())
		}
	}
}

// TestVals and TestSeq cover the Algorithm 4 view helpers.
func TestValsAndSeq(t *testing.T) {
	view := []SeqCell[string]{{Val: "a", Seq: 2}, {Val: "b", Seq: 5}}
	if got := spec.FormatView(Vals(view)); got != "[a b]" {
		t.Errorf("Vals = %s", got)
	}
	if got := Seq(view); got != 7 {
		t.Errorf("Seq = %d, want 7", got)
	}
}

// TestSeqIncrementsPerUpdate: Algorithm 4 line 55 — each update by p
// increments p's sequence number exactly once (white box).
func TestSeqIncrementsPerUpdate(t *testing.T) {
	var alloc memory.NativeAllocator
	s := NewSeq[string](&alloc, 2, spec.Bot)
	for i := 1; i <= 5; i++ {
		s.Update(0, strconv.Itoa(i))
		if s.pids[0].local != uint64(i) {
			t.Fatalf("after %d updates seq[0] = %d", i, s.pids[0].local)
		}
	}
	if s.pids[1].local != 0 {
		t.Errorf("seq[1] = %d, want 0", s.pids[1].local)
	}
}

// TestInjectedSubstrates: NewWith composes over caller-provided substrates;
// the composition must behave identically with the wait-free Afek snapshot
// as S.
func TestInjectedSubstrates(t *testing.T) {
	var alloc memory.NativeAllocator
	n := 3
	initView := make([]string, n)
	for i := range initView {
		initView[i] = spec.Bot
	}
	s := NewWith[string](n,
		snapshot.NewAfek[string](&alloc, n, spec.Bot),
		aba.NewStrongFunc(&alloc, n, initView, viewsEqual[string]),
	)
	s.Update(0, "a")
	s.Update(2, "c")
	if got := spec.FormatView(s.Scan(1)); got != "[a "+spec.Bot+" c]" {
		t.Errorf("scan = %s", got)
	}
}

// TestAfekSubstrateConcurrentSoak runs Algorithm 3 over the wait-free
// Afek-style substrate on native memory with every process updating and
// scanning at once: no process loses its own progress, and no component
// it sees ever goes back.
func TestAfekSubstrateConcurrentSoak(t *testing.T) {
	const n, rounds = 4, 150
	var alloc memory.NativeAllocator
	s := NewOver[int](&alloc, n, 0, snapshot.NewAfek[int](&alloc, n, 0))
	var wg sync.WaitGroup
	for pid := 0; pid < n; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			last := make([]int, n)
			for i := 1; i <= rounds; i++ {
				s.Update(pid, i)
				view := s.Scan(pid)
				if view[pid] < i {
					t.Errorf("p%d: own progress lost: %v", pid, view)
					return
				}
				for q, v := range view {
					if v < last[q] {
						t.Errorf("p%d: component %d regressed %d -> %d", pid, q, last[q], v)
						return
					}
					last[q] = v
				}
			}
		}(pid)
	}
	wg.Wait()
}

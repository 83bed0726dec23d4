package snapshot

import (
	"fmt"
	"testing"
	"testing/quick"

	"slmem/internal/lincheck"
	"slmem/internal/memory"
	"slmem/internal/sched"
	"slmem/internal/spec"
	"slmem/internal/trace"
)

func implementations(alloc memory.Allocator, n int) map[string]Snapshot[string] {
	return map[string]Snapshot[string]{
		"doublecollect": NewDoubleCollect[string](alloc, n, spec.Bot),
		"afek":          NewAfek[string](alloc, n, spec.Bot),
		"handshake":     NewHandshake[string](alloc, n, spec.Bot),
	}
}

func TestSequentialSemantics(t *testing.T) {
	const n = 3
	for name := range implementations(&memory.NativeAllocator{}, n) {
		name := name
		t.Run(name, func(t *testing.T) {
			var alloc memory.NativeAllocator
			s := implementations(&alloc, n)[name]

			view := s.Scan(0)
			for i, v := range view {
				if v != spec.Bot {
					t.Errorf("initial component %d = %q, want %q", i, v, spec.Bot)
				}
			}
			s.Update(1, "x")
			s.Update(2, "y")
			s.Update(1, "z") // overwrite own component
			view = s.Scan(0)
			want := []string{spec.Bot, "z", "y"}
			for i := range want {
				if view[i] != want[i] {
					t.Errorf("view[%d] = %q, want %q", i, view[i], want[i])
				}
			}
		})
	}
}

// TestScanBufferIsPrivateToItsPid: a Scan hands out the scanning process's
// own buffer. Nothing another process reads can come from it — not even when
// a caller breaks the rule and writes to it — a component that moves is read
// into it again, and two processes never share one.
func TestScanBufferIsPrivateToItsPid(t *testing.T) {
	const n = 2
	for name := range implementations(&memory.NativeAllocator{}, n) {
		name := name
		t.Run(name, func(t *testing.T) {
			var alloc memory.NativeAllocator
			s := implementations(&alloc, n)[name]
			s.Update(0, "a")
			v0 := s.Scan(0)
			v0[0] = "mutated"
			if v1 := s.Scan(1); v1[0] != "a" {
				t.Errorf("process 1 scanned %q: process 0's buffer is shared with the object", v1[0])
			} else if &v1[0] == &v0[0] {
				t.Error("processes 0 and 1 scan into one buffer")
			}
			s.Update(0, "b")
			s.Update(1, "c")
			if v2 := s.Scan(0); v2[0] != "b" || v2[1] != "c" {
				t.Errorf("scan after the scribble = %q, want [b c]", v2)
			}
		})
	}
}

// TestEmbeddedViewsAreCopies: an updater that embeds its scan with its write
// (afek, handshake) puts a copy in the register, where every scanner may
// borrow it, not the buffer its own next scan will overwrite.
func TestEmbeddedViewsAreCopies(t *testing.T) {
	var alloc memory.NativeAllocator
	a := NewAfek[string](&alloc, 2, spec.Bot)
	a.Update(0, "a")
	if view := a.regs[0].Read(0).view; &view[0] == &a.local[0].vals[0] {
		t.Error("afek: the embedded view is the updater's scan buffer")
	}
	h := NewHandshake[string](&alloc, 2, spec.Bot)
	h.Update(0, "a")
	if view := h.regs[0].Read(0).view; &view[0] == &h.local[0].vals[0] {
		t.Error("handshake: the embedded view is the updater's scan buffer")
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
			if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
				t.Error(err)
			}
		})
	}
}

// simSystem: odd pids update twice, even pids scan twice.
func simSystem(name string, n int) sched.System {
	return sched.System{
		N: n,
		Setup: func(env *sched.Env) []sched.Program {
			s := implementations(env, n)[name]
			progs := make([]sched.Program, n)
			for pid := 0; pid < n; pid++ {
				pid := pid
				if pid%2 == 1 {
					progs[pid] = func(p *sched.Proc) {
						for i := 0; i < 2; i++ {
							x := fmt.Sprintf("u%d.%d", pid, i)
							p.Do(spec.FormatInvocation("update", x), func() string {
								s.Update(pid, x)
								return "ok"
							})
						}
					}
				} else {
					progs[pid] = func(p *sched.Proc) {
						for i := 0; i < 2; i++ {
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
	for _, name := range []string{"doublecollect", "afek", "handshake"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 25; seed++ {
				res := sched.Run(simSystem(name, 3), sched.NewSeeded(seed), sched.Options{})
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

// TestAfekWaitFreeUnderWriterStorm: an Afek scan completes in a bounded
// number of its own steps even when every other process writes constantly;
// a double-collect scan does not (it is only lock-free). The adversary
// always lets writers land between the scanner's collects.
func TestAfekWaitFreeUnderWriterStorm(t *testing.T) {
	const n = 3
	const writerOps = 40

	system := func(name string) sched.System {
		return sched.System{
			N: n,
			Setup: func(env *sched.Env) []sched.Program {
				s := implementations(env, n)[name]
				progs := make([]sched.Program, n)
				progs[0] = func(p *sched.Proc) {
					p.Do("scan()", func() string {
						return spec.FormatView(s.Scan(0))
					})
				}
				for pid := 1; pid < n; pid++ {
					pid := pid
					progs[pid] = func(p *sched.Proc) {
						for i := 0; i < writerOps; i++ {
							x := fmt.Sprintf("u%d.%d", pid, i)
							p.Do(spec.FormatInvocation("update", x), func() string {
								s.Update(pid, x)
								return "ok"
							})
						}
					}
				}
				return progs
			},
		}
	}

	// Storm adversary: every 4th step goes to the scanner, the rest to
	// writers; once writers are done, the scanner runs alone.
	stormy := func() sched.Adversary {
		step := 0
		return sched.AdversaryFunc(func(enabled []int, _ *trace.Transcript) int {
			step++
			if step%4 != 0 {
				for _, pid := range enabled {
					if pid != 0 {
						return pid
					}
				}
			}
			for _, pid := range enabled {
				if pid == 0 {
					return 0
				}
			}
			return enabled[0]
		})
	}

	resAfek := sched.Run(system("afek"), stormy(), sched.Options{})
	if !resAfek.Completed() {
		t.Fatalf("afek run incomplete: %v", resAfek.Err)
	}
	resDC := sched.Run(system("doublecollect"), stormy(), sched.Options{})
	if !resDC.Completed() {
		t.Fatalf("doublecollect run incomplete: %v", resDC.Err)
	}

	// Afek: the scan must finish well before the writers are exhausted.
	if scanReturnIndex(resAfek.T) > lastWriterReturnIndex(resAfek.T) {
		t.Error("afek scan did not complete until writers finished — helping failed")
	}
	// Double-collect: with a writer landing between every pair of scanner
	// steps, the scan only finishes once the storm subsides.
	if scanReturnIndex(resDC.T) < lastWriterReturnIndex(resDC.T) {
		t.Error("double-collect scan finished amid the storm — adversary too weak to exercise lock-freedom")
	}
}

func scanReturnIndex(tr *trace.Transcript) int {
	for _, op := range tr.Interpreted().Ops {
		if op.Desc == "scan()" {
			return op.Ret
		}
	}
	return -1
}

func lastWriterReturnIndex(tr *trace.Transcript) int {
	last := -1
	for _, op := range tr.Interpreted().Ops {
		if op.Desc != "scan()" && op.Ret > last {
			last = op.Ret
		}
	}
	return last
}

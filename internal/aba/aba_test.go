package aba

import (
	"fmt"
	"testing"
	"testing/quick"
	"unsafe"

	"slmem/internal/lincheck"
	"slmem/internal/memory"
	"slmem/internal/sched"
	"slmem/internal/spec"
)

// dregister abstracts over both implementations for shared tests.
type dregister interface {
	DWrite(p int, x string)
	DRead(q int) (string, bool)
}

func newImpls(alloc memory.Allocator, n int) map[string]dregister {
	return map[string]dregister{
		"linearizable": NewLinearizable[string](alloc, n, spec.Bot),
		"strong":       NewStrong[string](alloc, n, spec.Bot),
	}
}

// --- Sequential semantics vs. the specification -------------------------------

func TestSequentialAgainstSpec(t *testing.T) {
	const n = 3
	for name := range newImpls(&memory.NativeAllocator{}, n) {
		name := name
		t.Run(name, func(t *testing.T) {
			// Random sequential op streams must match the state machine.
			f := func(script []uint8) bool {
				var alloc memory.NativeAllocator
				reg := newImpls(&alloc, n)[name]
				sp := spec.ABARegister{N: n}
				state := sp.Initial()
				for i, b := range script {
					pid := int(b) % n
					if b%2 == 0 {
						x := fmt.Sprintf("v%d", i%5)
						reg.DWrite(pid, x)
						next, _, err := sp.Apply(state, pid, spec.FormatInvocation("DWrite", x))
						if err != nil {
							return false
						}
						state = next
					} else {
						val, flag := reg.DRead(pid)
						next, want, err := sp.Apply(state, pid, "DRead()")
						if err != nil {
							return false
						}
						if fmt.Sprintf("(%s,%t)", val, flag) != want {
							t.Logf("step %d pid %d: got (%s,%t), want %s", i, pid, val, flag, want)
							return false
						}
						state = next
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestFirstDReadAfterDWriteFlagsTrue(t *testing.T) {
	for name, reg := range newImpls(&memory.NativeAllocator{}, 2) {
		t.Run(name, func(t *testing.T) {
			reg.DWrite(1, "a")
			if v, flag := reg.DRead(0); v != "a" || !flag {
				t.Errorf("DRead = (%s,%t), want (a,true)", v, flag)
			}
			if v, flag := reg.DRead(0); v != "a" || flag {
				t.Errorf("second DRead = (%s,%t), want (a,false)", v, flag)
			}
		})
	}
}

func TestABADetected(t *testing.T) {
	// Value returns to "a" between two DReads; the flag must expose it.
	for name, reg := range newImpls(&memory.NativeAllocator{}, 2) {
		t.Run(name, func(t *testing.T) {
			reg.DWrite(1, "a")
			reg.DRead(0)
			reg.DWrite(1, "b")
			reg.DWrite(1, "a")
			if v, flag := reg.DRead(0); v != "a" || !flag {
				t.Errorf("ABA DRead = (%s,%t), want (a,true)", v, flag)
			}
		})
	}
}

// --- Sequence number machinery (white box) -------------------------------------

func TestGetSeqRange(t *testing.T) {
	const n = 3
	var alloc memory.NativeAllocator
	b := newBase(&alloc, n, spec.Bot, func(a, b string) bool { return a == b })
	for i := 0; i < 100; i++ {
		s := b.getSeq(1)
		if s < 0 || s > 2*n+1 {
			t.Fatalf("getSeq returned %d, outside [0,%d]", s, 2*n+1)
		}
	}
}

func TestConsecutiveSeqsDiffer(t *testing.T) {
	// Paper statement (1) in the proof of Observation 4: no two consecutive
	// DWrites by the same process choose the same sequence number.
	f := func(nRaw uint8, k uint8) bool {
		n := int(nRaw)%4 + 1
		var alloc memory.NativeAllocator
		b := newBase(&alloc, n, spec.Bot, func(a, b string) bool { return a == b })
		prev := -2
		for i := 0; i < int(k)+2; i++ {
			s := b.getSeq(0)
			if s == prev {
				return false
			}
			prev = s
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSeqAvoidsAnnouncement(t *testing.T) {
	// If a reader has announced (writer, s), the writer must not pick s
	// while the announcement is visible at its cursor position.
	const n = 2
	var alloc memory.NativeAllocator
	reg := NewStrong[string](&alloc, n, spec.Bot)

	reg.DWrite(1, "a") // writer picks s0, cursor now at A[1]
	// Reader announces (1, s0) into A[0].
	if v, _ := reg.DRead(0); v != "a" {
		t.Fatal("setup read failed")
	}
	// Writer's next two writes read A[1] then A[0]; when it reads A[0] it
	// must exclude the announced number from then on.
	seen := make(map[int]bool)
	for i := 0; i < 2*n+2; i++ {
		reg.DWrite(1, "b")
		seen[int(reg.x.Read(1).seq)] = true
	}
	announced := reg.a[0].Read(0)
	if announced.pid != 1 {
		t.Fatalf("announcement = %+v, want writer 1", announced)
	}
	if seen[announced.seq] {
		t.Errorf("writer reused announced sequence number %d", announced.seq)
	}
}

// TestCellSize pins X's cell for a slice value — core's R holds one per
// DWrite — at 32 bytes: the slice header and the two bounded tags as int32s.
func TestCellSize(t *testing.T) {
	if got := unsafe.Sizeof(cell[[]int]{}); got != 32 {
		t.Errorf("cell[[]int] is %d bytes, want 32", got)
	}
}

func TestSeqQueue(t *testing.T) {
	q := seqQueue{buf: noSeqs(make([]int, 3))}
	for _, s := range []int{0, 1, 2} {
		if old := q.pushPop(s); old != noSeq {
			t.Errorf("push %d into a queue with room displaced %d", s, old)
		}
	}
	// A full queue gives up its entries oldest first and keeps the rest.
	for i, s := range []int{3, 4, 5} {
		if old := q.pushPop(s); old != i {
			t.Errorf("push %d displaced %d, want the oldest entry %d", s, old, i)
		}
	}
}

// --- Simulated linearizability ---------------------------------------------------

// simSystem builds a simulated system: writers do DWrites, readers do DReads.
func simSystem(name string, n, writes, reads int) sched.System {
	return abaSystem(func(env *sched.Env) dregister { return newImpls(env, n)[name] }, n, writes, reads)
}

// abaSystem is simSystem over the register newReg builds: the even pids read,
// the odd ones write.
func abaSystem(newReg func(env *sched.Env) dregister, n, writes, reads int) sched.System {
	return sched.System{
		N: n,
		Setup: func(env *sched.Env) []sched.Program {
			reg := newReg(env)
			progs := make([]sched.Program, n)
			for pid := 0; pid < n; pid++ {
				pid := pid
				if pid%2 == 0 {
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

func TestLinearizableUnderRandomSchedules(t *testing.T) {
	for _, name := range []string{"linearizable", "strong"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 30; seed++ {
				res := sched.Run(simSystem(name, 3, 3, 3), sched.NewSeeded(seed), sched.Options{})
				if !res.Completed() {
					t.Fatalf("seed %d: run incomplete: %v", seed, res.Err)
				}
				chk, err := lincheck.CheckTranscript(res.T, spec.ABARegister{N: 3})
				if err != nil {
					t.Fatal(err)
				}
				if !chk.Ok {
					t.Fatalf("seed %d: history not linearizable:\n%s", seed, res.T.Interpreted())
				}
			}
		})
	}
}

func TestStrongChainMonitor(t *testing.T) {
	// Necessary condition for strong linearizability along single runs.
	for seed := int64(0); seed < 20; seed++ {
		res := sched.Run(simSystem("strong", 2, 3, 3), sched.NewSeeded(seed), sched.Options{})
		if !res.Completed() {
			t.Fatalf("seed %d: incomplete: %v", seed, res.Err)
		}
		chk, err := lincheck.CheckChain(res.T, spec.ABARegister{N: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !chk.Ok {
			t.Fatalf("seed %d: no monotone linearization along run (fail at %s)", seed, chk.FailNode)
		}
	}
}

// TestObservation6a: two GetSeq calls by the same process returning the same
// sequence number have at least n GetSeq calls between them (the usedQ keeps
// the last n+1 numbers distinct).
func TestObservation6a(t *testing.T) {
	f := func(nRaw uint8, kRaw uint8) bool {
		n := int(nRaw)%5 + 1
		k := int(kRaw)%64 + 2*n + 2
		var alloc memory.NativeAllocator
		b := newBase(&alloc, n, spec.Bot, func(a, b string) bool { return a == b })
		seqs := make([]int, k)
		for i := range seqs {
			seqs[i] = b.getSeq(0)
		}
		for i := range seqs {
			for j := i + 1; j < len(seqs) && j <= i+n; j++ {
				if seqs[i] == seqs[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestDWriteAlwaysTwoSteps: Theorem 14(a) on the native path, any process
// mix, any history length.
func TestDWriteAlwaysTwoSteps(t *testing.T) {
	const n = 3
	counter := memory.NewStepCounter(n)
	alloc := &memory.CountingAllocator{Inner: &memory.NativeAllocator{}, Counter: counter}
	reg := NewStrong[string](alloc, n, spec.Bot)
	for i := 0; i < 50; i++ {
		pid := i % n
		before := counter.Steps(pid)
		reg.DWrite(pid, "v")
		if got := counter.Steps(pid) - before; got != 2 {
			t.Fatalf("DWrite %d took %d steps, want 2", i, got)
		}
		if i%7 == 0 {
			reg.DRead((pid + 1) % n)
		}
	}
}

// TestTagPackRoundTrip covers the packed announcement word: every tag the
// algorithm can announce, ⊥ included, survives pack/unpack, and ⊥ packs to
// the zero word.
func TestTagPackRoundTrip(t *testing.T) {
	const n = 70000 // pids and sequence numbers well past 16 bits
	if w := (tag{pid: noSeq, seq: noSeq}).pack(); w != 0 {
		t.Errorf("⊥ packs to %#x, want 0", w)
	}
	for _, pid := range []int{noSeq, 0, 1, 255, 65535, n - 1} {
		for _, seq := range []int{noSeq, 0, 1, 2*n + 1} {
			in := tag{pid: pid, seq: seq}
			if out := unpack(in.pack()); out != in {
				t.Errorf("unpack(pack(%+v)) = %+v", in, out)
			}
		}
	}
}

// TestAnnouncementRegisterModes pins which allocator gets which register:
// a bare native allocator the packed word, a decorated one the ordinary
// register whose steps it can count.
func TestAnnouncementRegisterModes(t *testing.T) {
	var native memory.NativeAllocator
	if a := newAnnReg(&native, "A", tag{pid: noSeq, seq: noSeq}); a.word == nil {
		t.Error("native allocator did not get a packed word")
	}
	steps := memory.NewStepCounter(1)
	counting := &memory.CountingAllocator{Inner: &native, Counter: steps}
	a := newAnnReg(counting, "A", tag{pid: noSeq, seq: noSeq})
	if a.word != nil {
		t.Fatal("counting allocator got a packed word: its steps would go uncounted")
	}
	a.Write(0, tag{pid: 3, seq: 5})
	if got := a.Read(0); got != (tag{pid: 3, seq: 5}) || steps.Steps(0) != 2 {
		t.Errorf("read %+v after %d counted steps, want {3 5} after 2", got, steps.Steps(0))
	}
}

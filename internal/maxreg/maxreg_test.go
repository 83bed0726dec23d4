package maxreg

import (
	"errors"
	"strconv"
	"testing"
	"testing/quick"

	"slmem/internal/lincheck"
	"slmem/internal/memory"
	"slmem/internal/sched"
	"slmem/internal/spec"
)

func TestSequentialBasics(t *testing.T) {
	var alloc memory.NativeAllocator
	m := NewBounded[string](&alloc, 4, "init")

	if v, pl := m.MaxRead(0); v != 0 || pl != "init" {
		t.Errorf("initial MaxRead = (%d,%q)", v, pl)
	}
	if err := m.MaxWrite(0, 5, "five"); err != nil {
		t.Fatal(err)
	}
	if v, pl := m.MaxRead(1); v != 5 || pl != "five" {
		t.Errorf("MaxRead = (%d,%q), want (5,five)", v, pl)
	}
	// Lower write: ignored, payload discarded.
	if err := m.MaxWrite(1, 3, "three"); err != nil {
		t.Fatal(err)
	}
	if v, pl := m.MaxRead(0); v != 5 || pl != "five" {
		t.Errorf("MaxRead after lower write = (%d,%q), want (5,five)", v, pl)
	}
	if err := m.MaxWrite(0, 15, "fifteen"); err != nil {
		t.Fatal(err)
	}
	if v, pl := m.MaxRead(0); v != 15 || pl != "fifteen" {
		t.Errorf("MaxRead = (%d,%q), want (15,fifteen)", v, pl)
	}
}

func TestOutOfRange(t *testing.T) {
	var alloc memory.NativeAllocator
	m := NewBounded[string](&alloc, 3, "")
	if err := m.MaxWrite(0, 8, "x"); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("MaxWrite(8) err = %v, want ErrOutOfRange", err)
	}
	if err := m.MaxWrite(0, 7, "x"); err != nil {
		t.Errorf("MaxWrite(7) err = %v", err)
	}
}

func TestCapacity(t *testing.T) {
	var alloc memory.NativeAllocator
	tests := []struct {
		k    int
		want uint64
	}{
		{0, 1}, {1, 2}, {8, 256}, {64, ^uint64(0)},
	}
	for _, tc := range tests {
		m := NewBounded[struct{}](&alloc, tc.k, struct{}{})
		if got := m.Capacity(); got != tc.want {
			t.Errorf("Capacity(k=%d) = %d, want %d", tc.k, got, tc.want)
		}
	}
}

func TestMonotoneProperty(t *testing.T) {
	f := func(vals []uint16) bool {
		var alloc memory.NativeAllocator
		m := NewBounded[string](&alloc, 16, "")
		var max uint64
		for _, raw := range vals {
			v := uint64(raw)
			if err := m.MaxWrite(0, v, strconv.FormatUint(v, 10)); err != nil {
				return false
			}
			if v > max {
				max = v
			}
			got, pl := m.MaxRead(0)
			if got != max {
				return false
			}
			if max > 0 && pl != strconv.FormatUint(max, 10) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestUnbounded(t *testing.T) {
	var alloc memory.NativeAllocator
	m := NewUnbounded[string](&alloc, "init")
	big := uint64(1) << 62
	if err := m.MaxWrite(0, big, "big"); err != nil {
		t.Fatal(err)
	}
	if v, pl := m.MaxRead(0); v != big || pl != "big" {
		t.Errorf("MaxRead = (%d,%q)", v, pl)
	}
}

func TestLazyAllocationGrowth(t *testing.T) {
	// The unbounded trie allocates registers as new values are written:
	// space grows without bound with the written range (experiment E5's
	// mechanism). Monotonically increasing versions force fresh paths.
	var alloc memory.NativeAllocator
	m := NewUnbounded[string](&alloc, "")
	prev := alloc.Registers()
	grew := 0
	for v := uint64(1); v <= 64; v++ {
		if err := m.MaxWrite(0, v, "s"); err != nil {
			t.Fatal(err)
		}
		cur := alloc.Registers()
		if cur > prev {
			grew++
		}
		prev = cur
	}
	if grew < 32 {
		t.Errorf("register count grew on only %d/64 writes; lazy allocation broken?", grew)
	}
}

func TestStepBounds(t *testing.T) {
	// Reads and writes take at most k+1 shared steps.
	const k = 10
	counter := memory.NewStepCounter(1)
	alloc := &memory.CountingAllocator{Inner: &memory.NativeAllocator{}, Counter: counter}
	m := NewBounded[struct{}](alloc, k, struct{}{})

	before := counter.Steps(0)
	if err := m.MaxWrite(0, 1023, struct{}{}); err != nil {
		t.Fatal(err)
	}
	if steps := counter.Steps(0) - before; steps > k+1 {
		t.Errorf("MaxWrite took %d steps, want <= %d", steps, k+1)
	}
	before = counter.Steps(0)
	m.MaxRead(0)
	if steps := counter.Steps(0) - before; steps > k+1 {
		t.Errorf("MaxRead took %d steps, want <= %d", steps, k+1)
	}
}

// simSystem: writers issue maxWrites, readers issue maxReads.
func simSystem(n int, writes [][]uint64, reads int) sched.System {
	return sched.System{
		N: n,
		Setup: func(env *sched.Env) []sched.Program {
			m := NewBounded[string](env, 5, "")
			progs := make([]sched.Program, n)
			for pid := 0; pid < n; pid++ {
				pid := pid
				if pid < len(writes) && writes[pid] != nil {
					vals := writes[pid]
					progs[pid] = func(p *sched.Proc) {
						for _, v := range vals {
							v := v
							p.Do(spec.FormatInvocation("maxWrite", strconv.FormatUint(v, 10)), func() string {
								if err := m.MaxWrite(pid, v, "s"+strconv.FormatUint(v, 10)); err != nil {
									return "err"
								}
								return "ok"
							})
						}
					}
				} else {
					progs[pid] = func(p *sched.Proc) {
						for i := 0; i < reads; i++ {
							p.Do("maxRead()", func() string {
								v, _ := m.MaxRead(pid)
								return strconv.FormatUint(v, 10)
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
	sys := simSystem(3, [][]uint64{{3, 9, 5}, {7, 2}}, 3)
	for seed := int64(0); seed < 30; seed++ {
		res := sched.Run(sys, sched.NewSeeded(seed), sched.Options{})
		if !res.Completed() {
			t.Fatalf("seed %d: incomplete: %v", seed, res.Err)
		}
		chk, err := lincheck.CheckTranscript(res.T, spec.MaxRegister{})
		if err != nil {
			t.Fatal(err)
		}
		if !chk.Ok {
			t.Fatalf("seed %d: not linearizable:\n%s", seed, res.T.Interpreted())
		}
	}
}

func TestStrongChainMonitor(t *testing.T) {
	// The trie construction is strongly linearizable (Helmi–Higham–Woelfel);
	// every single run must admit a monotone linearization.
	sys := simSystem(2, [][]uint64{{3, 9}}, 3)
	for seed := int64(0); seed < 20; seed++ {
		res := sched.Run(sys, sched.NewSeeded(seed), sched.Options{})
		if !res.Completed() {
			t.Fatalf("seed %d: incomplete: %v", seed, res.Err)
		}
		chk, err := lincheck.CheckChain(res.T, spec.MaxRegister{})
		if err != nil {
			t.Fatal(err)
		}
		if !chk.Ok {
			t.Fatalf("seed %d: chain check failed at %s", seed, chk.FailNode)
		}
	}
}

func TestStrongBranchingTrees(t *testing.T) {
	sys := simSystem(2, [][]uint64{{3, 9}}, 2)
	for seed := int64(0); seed < 10; seed++ {
		tree, err := sched.RandomBranchTree(sys, seed, 9, 3)
		if err != nil {
			t.Fatal(err)
		}
		res, err := lincheck.CheckStrong(lincheck.FromSchedTree(tree), spec.MaxRegister{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Ok {
			t.Fatalf("seed %d: strong tree check failed at %s", seed, res.FailNode)
		}
	}
}

func TestPayloadConsistencyUnderConcurrency(t *testing.T) {
	// Each value carries a canonical payload; a read must never pair value v
	// with a payload of a different value (sim, all interleavings random).
	sys := sched.System{
		N: 3,
		Setup: func(env *sched.Env) []sched.Program {
			m := NewBounded[string](env, 5, "p0")
			progs := make([]sched.Program, 3)
			for pid := 0; pid < 2; pid++ {
				pid := pid
				vals := [][]uint64{{4, 11, 20}, {9, 13, 27}}[pid]
				progs[pid] = func(p *sched.Proc) {
					for _, v := range vals {
						v := v
						p.Do("w", func() string {
							_ = m.MaxWrite(pid, v, "p"+strconv.FormatUint(v, 10))
							return "ok"
						})
					}
				}
			}
			progs[2] = func(p *sched.Proc) {
				for i := 0; i < 6; i++ {
					p.Do("r", func() string {
						v, pl := m.MaxRead(2)
						if pl != "p"+strconv.FormatUint(v, 10) {
							return "MISMATCH:" + strconv.FormatUint(v, 10) + "/" + pl
						}
						return "ok"
					})
				}
			}
			return progs
		},
	}
	for seed := int64(0); seed < 40; seed++ {
		res := sched.Run(sys, sched.NewSeeded(seed), sched.Options{})
		if !res.Completed() {
			t.Fatalf("seed %d: incomplete: %v", seed, res.Err)
		}
		for _, op := range res.T.Interpreted().Ops {
			if op.Complete() && len(op.Res) > 2 && op.Res[:2] == "MI" {
				t.Fatalf("seed %d: payload mismatch: %s", seed, op.Res)
			}
		}
	}
}

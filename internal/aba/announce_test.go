package aba

import (
	"fmt"
	"math/rand"
	"testing"

	"slmem/internal/memory"
	"slmem/internal/sched"
	"slmem/internal/spec"
	"slmem/internal/trace"
)

// TestAnnouncementMatchesLocalCopy: Strong's DRead reads A[q] from q's local
// copy, which is sound only while the copy is what A[q] holds. After every
// DRead of seeded schedules with concurrent writers, each reader reads its
// own A[q] — one extra step, outside the operation — and compares.
func TestAnnouncementMatchesLocalCopy(t *testing.T) {
	const n, writes, reads = 4, 6, 6
	for seed := int64(0); seed < 40; seed++ {
		var mismatches []string
		sys := sched.System{
			N: n,
			Setup: func(env *sched.Env) []sched.Program {
				reg := NewStrong[string](env, n, spec.Bot)
				progs := make([]sched.Program, n)
				for pid := range progs {
					if pid%2 == 1 {
						progs[pid] = func(p *sched.Proc) {
							for i := 0; i < writes; i++ {
								x := fmt.Sprintf("w%d.%d", pid, i)
								p.Do(spec.FormatInvocation("DWrite", x), func() string { reg.DWrite(pid, x); return "ok" })
							}
						}
						continue
					}
					progs[pid] = func(p *sched.Proc) {
						for i := 0; i < reads; i++ {
							p.Do("DRead()", func() string { v, _ := reg.DRead(pid); return v })
							if got, local := reg.a[pid].Read(pid), reg.w[pid].announced; got != local {
								mismatches = append(mismatches, fmt.Sprintf("p%d: A[%d] = %+v, local copy %+v", pid, pid, got, local))
							}
						}
					}
				}
				return progs
			},
		}
		res := sched.Run(sys, sched.NewSeeded(seed), sched.Options{StepLimit: 1 << 16})
		if !res.Completed() {
			t.Fatalf("seed %d: incomplete: %v", seed, res.Err)
		}
		for _, m := range mismatches {
			t.Errorf("seed %d: %s", seed, m)
		}
	}
}

// TestDReadWritesAnnouncementOnlyOnNewTag: a DRead writes A[q] exactly when
// X's tag is not the one q's previous DRead saw — some DWrite landed since,
// or this is q's first DRead after any — and otherwise takes its two reads of
// X alone. Counted with a step counter over random sequential mixes.
func TestDReadWritesAnnouncementOnlyOnNewTag(t *testing.T) {
	const n = 4
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		counter := memory.NewStepCounter(n)
		alloc := &memory.CountingAllocator{Inner: &memory.NativeAllocator{}, Counter: counter}
		reg := NewStrong[string](alloc, n, spec.Bot)
		// moved[q]: X's tag changed since q's last DRead (a DWrite landed).
		moved := make([]bool, n)
		quiet, fresh := 0, 0
		for i := 0; i < 400; i++ {
			p := rng.Intn(n)
			if rng.Intn(3) == 0 {
				reg.DWrite(p, fmt.Sprintf("v%d", i))
				for q := range moved {
					moved[q] = true
				}
				continue
			}
			before, steps := counter.Writes(p), counter.Steps(p)
			_, flag := reg.DRead(p)
			wrote, took := counter.Writes(p)-before, counter.Steps(p)-steps
			want, wantSteps := int64(0), int64(2)
			if moved[p] {
				want, wantSteps = 1, 5
				fresh++
			} else {
				quiet++
			}
			if wrote != want || took != wantSteps || flag != moved[p] {
				t.Fatalf("seed %d op %d: DRead by p%d after a DWrite: %v; wrote A[q] %d times in %d steps, flag %v; want %d in %d, flag %v",
					seed, i, p, moved[p], wrote, took, flag, want, wantSteps, moved[p])
			}
			moved[p] = false
		}
		if quiet == 0 || fresh == 0 {
			t.Fatalf("seed %d: %d quiet and %d fresh DReads; the mix exercises one case only", seed, quiet, fresh)
		}
	}
}

// algorithm2 is Algorithm 2's DRead as the paper states it, reading A[q] and
// writing it back on every iteration: the reference Strong is checked
// against.
type algorithm2[V any] struct{ *base[V] }

func (r algorithm2[V]) DWrite(p int, x V) { r.dWrite(p, x) }

func (r algorithm2[V]) DRead(q int) (V, bool) {
	changed := false // line 32
	for {            // line 33
		c1 := r.x.Read(q)         // line 34
		ann := r.a[q].Read(q)     // line 35
		r.a[q].Write(q, c1.tag()) // line 36
		c2 := r.x.Read(q)         // line 37
		if c1.tag() == ann && r.cellEq(c1, c2) {
			return c2.val, changed // line 42
		}
		changed = true // lines 38-41
	}
}

// TestStrongElidesOnlyInvisibleSteps checks Strong's soundness argument on
// recorded runs: put back, right after each line-34 read of X by a reader
// q, q's read of A[q] and — unless q's next step writes A[q] — its write of
// the tag A[q] already holds, and the schedule so extended drives Algorithm 2
// as the paper states it through the very same transcript, event for event.
// Every process reads the same values, every operation returns the same
// response, and every DRead's last step is the same line-37 read.
func TestStrongElidesOnlyInvisibleSteps(t *testing.T) {
	const n, writes, reads = 4, 5, 5
	newStrong := func(env *sched.Env) dregister { return NewStrong[string](env, n, spec.Bot) }
	newAlgorithm2 := func(env *sched.Env) dregister {
		return algorithm2[string]{newBase(env, n, spec.Bot, func(a, b string) bool { return a == b })}
	}
	advs := map[string]func() sched.Adversary{
		"storm": func() sched.Adversary {
			return &sched.Storm{IsVictim: func(pid int) bool { return pid%2 == 0 }, Period: 3}
		},
	}
	for seed := int64(0); seed < 30; seed++ {
		advs[fmt.Sprintf("seed%d", seed)] = func() sched.Adversary { return sched.NewSeeded(seed) }
	}
	for name, adv := range advs {
		res := sched.Run(abaSystem(newStrong, n, writes, reads), adv(), sched.Options{})
		if !res.Completed() {
			t.Fatalf("%s: incomplete: %v", name, res.Err)
		}
		var schedule []int
		var want []trace.Event
		xReads := map[int]int{}
		announced := map[int]string{}
		elided := 0
		for i, e := range res.T.Events {
			schedule = append(schedule, e.PID)
			want = append(want, e)
			ann := fmt.Sprintf("aba.A[%d]", e.PID)
			if e.Kind == trace.KindWrite && e.Reg == ann {
				announced[e.PID] = e.Val
			}
			if e.Kind != trace.KindRead || !isXReg(e.Reg) {
				continue
			}
			if xReads[e.PID]++; xReads[e.PID]%2 == 0 {
				continue // line 37
			}
			held, ok := announced[e.PID]
			if !ok {
				held = fmt.Sprint(tag{pid: noSeq, seq: noSeq})
			}
			step := trace.Event{PID: e.PID, OpID: e.OpID, Reg: ann, Val: held}
			step.Kind = trace.KindRead
			schedule, want = append(schedule, e.PID), append(want, step)
			elided++
			if !writesNext(res.T.Events[i+1:], e.PID, ann) {
				step.Kind = trace.KindWrite
				schedule, want = append(schedule, e.PID), append(want, step)
				elided++
			}
		}
		ref := sched.Run(abaSystem(newAlgorithm2, n, writes, reads), sched.NewScript(schedule...), sched.Options{})
		if ref.Err != nil || !ref.Completed() {
			t.Fatalf("%s: Algorithm 2 under the extended schedule: %v", name, ref.Err)
		}
		if elided == 0 {
			t.Fatalf("%s: no step was elided; the check proves nothing", name)
		}
		if len(ref.T.Events) != len(want) {
			t.Fatalf("%s: Algorithm 2 recorded %d events, the extended transcript has %d", name, len(ref.T.Events), len(want))
		}
		for i, e := range ref.T.Events {
			if e != want[i] {
				t.Fatalf("%s: event %d: Algorithm 2 recorded %v, the extended transcript has %v", name, i, e, want[i])
			}
		}
	}
}

// writesNext reports whether pid's next step in events writes register reg.
func writesNext(events []trace.Event, pid int, reg string) bool {
	for _, e := range events {
		if e.PID == pid {
			return e.Kind == trace.KindWrite && e.Reg == reg
		}
	}
	return false
}

package snapshot

import (
	"fmt"
	"math/bits"
	"strings"
	"testing"

	"slmem/internal/lincheck"
	"slmem/internal/memory"
	"slmem/internal/sched"
	"slmem/internal/spec"
	"slmem/internal/trace"
)

// TestCollectReadsFollowWidth: a quiet DoubleCollect scan reads the
// components below its width twice and the flags between the collects, up
// to the first unset one — and at full width no flag at all. The scanner's
// hint has caught up with each writer set before the counted scan.
func TestCollectReadsFollowWidth(t *testing.T) {
	const n = 16
	steps := memory.NewStepCounter(n)
	s := NewDoubleCollect[string](&memory.CountingAllocator{Inner: &memory.NativeAllocator{}, Counter: steps}, n, spec.Bot)
	written := 0
	for _, tc := range []struct {
		writers int // pids 0 … writers−1 have written
		reads   int64
	}{
		{1, 1 + 1 + 1},   // R[0]; W[0] unset; R[0]
		{2, 2 + 2 + 2},   // R[0..1]; W[0], W[1] unset; R[0..1]
		{3, 4 + 3 + 4},   // R[0..3]; W[0], W[1], W[2] unset; R[0..3]
		{n, 16 + 0 + 16}, // full width: no flag read
	} {
		for ; written < tc.writers; written++ {
			steps.Reset()
			s.Update(written, fmt.Sprint("v", written))
			// A pid's first Update raises flags 0 … bits.Len(pid)−1, then writes.
			if got, want := steps.Writes(written), int64(bits.Len(uint(written))+1); got != want {
				t.Errorf("pid %d's first update wrote %d registers, want %d", written, got, want)
			}
		}
		s.Update(0, "again")
		s.Scan(0) // the scanner's hint catches up
		steps.Reset()
		view := s.Scan(0)
		if got := steps.Reads(0); got != tc.reads {
			t.Errorf("%d writers: a quiet scan read %d registers, want %d", tc.writers, got, tc.reads)
		}
		if got := steps.Writes(0); got != 0 {
			t.Errorf("%d writers: a scan wrote %d registers", tc.writers, got)
		}
		for q, v := range view {
			want := spec.Bot
			switch {
			case q == 0:
				want = "again"
			case q < tc.writers:
				want = fmt.Sprint("v", q)
			}
			if v != want {
				t.Errorf("%d writers: component %d = %q, want %q", tc.writers, q, v, want)
			}
		}
	}
	steps.Reset()
	s.Update(5, "later")
	if got := steps.Writes(5); got != 1 {
		t.Errorf("a later update wrote %d registers, want 1", got)
	}
}

// leg is one stretch of a hand-built schedule: pid takes steps until one of
// them satisfies done.
type leg struct {
	pid  int
	done func(e trace.Event) bool
}

func returned(e trace.Event) bool { return e.Kind == trace.KindReturn }

// legs schedules the legs in order, each from the step after the one that
// ended the leg before it; a leg whose process has finished is skipped.
func legs(ls ...leg) sched.Adversary {
	i, mark := 0, 0
	return sched.AdversaryFunc(func(enabled []int, tr *trace.Transcript) int {
		for i < len(ls) {
			if len(tr.Events) > mark && ls[i].done(tr.Events[len(tr.Events)-1]) {
				i, mark = i+1, len(tr.Events)
				continue
			}
			for _, pid := range enabled {
				if pid == ls[i].pid {
					return pid
				}
			}
			i, mark = i+1, len(tr.Events)
		}
		return -1
	})
}

// TestWidthScanSeesLateHighPid is the schedule the width flags exist for.
// At n = 4, pid 1 has written and the scanner's width is 1. The scanner
// collects and reads the flags up to the first unset one, which shows width
// 2; then pid 3 raises its flags and writes c, and pid 1 writes b; then the
// scanner finishes. Its view holds b, written after c's update completed, so
// it must hold c too. It does because a pass that widened is not clean: the
// flags are read again before the next collect counts.
func TestWidthScanSeesLateHighPid(t *testing.T) {
	const n = 4
	sys := sched.System{
		N: n,
		Setup: func(env *sched.Env) []sched.Program {
			s := NewDoubleCollect[string](env, n, spec.Bot)
			update := func(pid int, xs ...string) sched.Program {
				return func(p *sched.Proc) {
					for _, x := range xs {
						p.Do(spec.FormatInvocation("update", x), func() string { s.Update(pid, x); return "ok" })
					}
				}
			}
			return []sched.Program{
				func(p *sched.Proc) { p.Do("scan()", func() string { return spec.FormatView(s.Scan(0)) }) },
				update(1, "a", "b"),
				update(2),
				update(3, "c"),
			}
		},
	}
	unsetFlag := func(e trace.Event) bool {
		return e.Kind == trace.KindRead && strings.HasPrefix(e.Reg, "snap.W") && e.Val == "false"
	}
	res := sched.Run(sys, legs(
		leg{1, returned},  // update(a)
		leg{0, unsetFlag}, // the scanner reads the flags
		leg{3, returned},  // update(c): flags, then the write
		leg{1, returned},  // update(b)
		leg{0, returned},  // the scanner finishes
	), sched.Options{})
	if !res.Completed() {
		t.Fatalf("incomplete: %v", res.Err)
	}
	var view string
	for _, op := range res.T.Interpreted().Ops {
		if op.Desc == "scan()" {
			view = op.Res
		}
	}
	if want := "[" + spec.Bot + " b " + spec.Bot + " c]"; view != want {
		t.Errorf("scan = %s, want %s", view, want)
	}
	chk, err := lincheck.CheckTranscript(res.T, spec.Snapshot{N: n})
	if err != nil {
		t.Fatal(err)
	}
	if !chk.Ok {
		t.Fatalf("not linearizable:\n%s", res.T.Interpreted())
	}
}

// widthSystem runs DoubleCollect at n = 4 with pid 2 idle: pid 0 scans
// twice, pid 1 updates twice and pid 3, whose first write widens every
// scan from 2 components to 4, updates once and scans.
func widthSystem() sched.System {
	const n = 4
	return sched.System{
		N: n,
		Setup: func(env *sched.Env) []sched.Program {
			s := NewDoubleCollect[string](env, n, spec.Bot)
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
}

// TestWidthLinearizableSearch: the width flags keep DoubleCollect
// linearizable under seeded random schedules of widthSystem — a search
// that, unlike TestWidthScanSeesLateHighPid, is not told where to look.
func TestWidthLinearizableSearch(t *testing.T) {
	sys := widthSystem()
	for seed := int64(0); seed < 4000; seed++ {
		res := sched.Run(sys, sched.NewSeeded(seed), sched.Options{})
		if !res.Completed() {
			t.Fatalf("seed %d: incomplete: %v", seed, res.Err)
		}
		chk, err := lincheck.CheckTranscript(res.T, spec.Snapshot{N: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !chk.Ok {
			t.Fatalf("seed %d: not linearizable:\n%s", seed, res.T.Interpreted())
		}
	}
}

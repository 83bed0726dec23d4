package core

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"slmem/internal/sched"
	"slmem/internal/snapshot"
	"slmem/internal/spec"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/steps.golden from this tree")

const goldenFile = "testdata/steps.golden"

// goldenSystems are scan/update mixes in which every process both writes and
// reads, over each object of this package and each substrate a Snapshot can
// be composed over.
func goldenSystems() map[string]sched.System {
	const n, ops = 3, 4
	mix := func(write func(pid, i int), read func(pid int) string) []sched.Program {
		progs := make([]sched.Program, n)
		for pid := range progs {
			pid := pid
			progs[pid] = func(p *sched.Proc) {
				for i := 0; i < ops; i++ {
					i := i
					if (pid+i)%2 == 0 {
						p.Do(fmt.Sprintf("write(%d.%d)", pid, i), func() string { write(pid, i); return "ok" })
					} else {
						p.Do("read()", func() string { return read(pid) })
					}
				}
			}
		}
		return progs
	}
	snap := func(build func(env *sched.Env) *Snapshot[string]) sched.System {
		return sched.System{N: n, Setup: func(env *sched.Env) []sched.Program {
			s := build(env)
			return mix(
				func(pid, i int) { s.Update(pid, fmt.Sprintf("u%d.%d", pid, i)) },
				func(pid int) string { return spec.FormatView(s.Scan(pid)) },
			)
		}}
	}
	return map[string]sched.System{
		"snapshot": snap(func(env *sched.Env) *Snapshot[string] { return New[string](env, n, spec.Bot) }),
		"snapshot/afek": snap(func(env *sched.Env) *Snapshot[string] {
			return NewOver[string](env, n, spec.Bot, snapshot.NewAfek[string](env, n, spec.Bot))
		}),
		"snapshot/handshake": snap(func(env *sched.Env) *Snapshot[string] {
			return NewOver[string](env, n, spec.Bot, snapshot.NewHandshake[string](env, n, spec.Bot))
		}),
		"seqsnapshot": {N: n, Setup: func(env *sched.Env) []sched.Program {
			s := NewSeq[string](env, n, spec.Bot)
			return mix(
				func(pid, i int) { s.Update(pid, fmt.Sprintf("u%d.%d", pid, i)) },
				func(pid int) string { return spec.FormatView(s.Scan(pid)) },
			)
		}},
		"counter": {N: n, Setup: func(env *sched.Env) []sched.Program {
			c := NewCounter(env, n)
			return mix(
				func(pid, _ int) { c.Inc(pid) },
				func(pid int) string { return fmt.Sprint(c.Read(pid)) },
			)
		}},
		"maxreg": {N: n, Setup: func(env *sched.Env) []sched.Program {
			m := NewMaxRegister(env, n)
			return mix(
				func(pid, i int) { m.MaxWrite(pid, uint64(10*i+pid)) },
				func(pid int) string { return fmt.Sprint(m.MaxRead(pid)) },
			)
		}},
	}
}

// goldenRuns lists the schedules each system is run under: fixed random
// seeds, and a storm that starves the even pids so that scans overlap
// updates and take the helping path (lines 50-52).
func goldenRuns() map[string]func() sched.Adversary {
	runs := map[string]func() sched.Adversary{
		"storm": func() sched.Adversary {
			return &sched.Storm{IsVictim: func(pid int) bool { return pid%2 == 0 }, Period: 5}
		},
	}
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		runs[fmt.Sprintf("seed%d", seed)] = func() sched.Adversary { return sched.NewSeeded(seed) }
	}
	return runs
}

// TestGoldenTranscripts pins the shared-memory behaviour of the scan path:
// for fixed schedules, the complete transcript — every register read and
// write with its process, register name and rendered value, and every
// response — must hash to what testdata/steps.golden records. The file was
// recorded before the scan path stopped copying views (go test -run
// TestGoldenTranscripts -update) and re-recorded once, on purpose, when S's
// collects began to read its width flags. So a change to local bookkeeping
// that adds, drops, reorders or alters one shared step, or publishes a
// buffer that is later overwritten (values are rendered when the step
// happens), fails here.
func TestGoldenTranscripts(t *testing.T) {
	got := map[string]string{}
	var keys []string
	for sysName, sys := range goldenSystems() {
		for runName, adv := range goldenRuns() {
			res := sched.Run(sys, adv(), sched.Options{})
			if !res.Completed() {
				t.Fatalf("%s %s: incomplete: %v", sysName, runName, res.Err)
			}
			h := sha256.New()
			for _, e := range res.T.Events {
				fmt.Fprintln(h, e)
			}
			key := sysName + " " + runName
			got[key] = fmt.Sprintf("events=%d sha256=%x", res.T.Len(), h.Sum(nil))
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)

	if *updateGolden {
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "%s %s\n", k, got[k])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	data, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != len(keys) {
		t.Fatalf("%s has %d runs, this tree produces %d", goldenFile, len(lines), len(keys))
	}
	for i, k := range keys {
		if want := k + " " + got[k]; lines[i] != want {
			t.Errorf("transcript differs from the recorded one:\n got %s\nwant %s", want, lines[i])
		}
	}
}

package universal

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"slmem/internal/lincheck"
	"slmem/internal/memory"
	"slmem/internal/sched"
	"slmem/internal/spec"
)

// gcSimSystem builds a simulated system like cachedSimSystem, with
// truncation enabled at the given window; every object a run sets up is
// appended to objs.
func gcSimSystem(typ Type, scripts [][]string, window int, objs *[]*Object) sched.System {
	n := len(scripts)
	return sched.System{
		N: n,
		Setup: func(env *sched.Env) []sched.Program {
			o := New(env, typ, n)
			o.SetGC(GCOptions{Window: window})
			*objs = append(*objs, o)
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

// TestGCDifferentialNative replays identical randomized interleavings
// against a truncating and an unbounded object: every response must be
// byte-identical. The window is tiny so the truncating run collects many
// times mid-script, and the unbounded run proves the graph would otherwise
// keep every node.
func TestGCDifferentialNative(t *testing.T) {
	types := map[string]struct {
		typ Type
		ops []string
	}{
		"counter":     {CounterType{}, []string{"inc()", "read()"}},
		"set":         {SetType{}, []string{"add(a)", "add(b)", "add(c)", "contains(a)", "contains(c)"}},
		"accumulator": {AccumulatorType{}, []string{"addTo(3)", "addTo(-1)", "read()"}},
		"register":    {RegisterType{}, []string{"write(x)", "write(y)", "read()"}},
	}
	const n, ops = 3, 150
	for name, tc := range types {
		tc := tc
		t.Run(name, func(t *testing.T) {
			var truncated int64
			for seed := int64(0); seed < 5; seed++ {
				rng := rand.New(rand.NewSource(seed))
				type step struct {
					pid  int
					desc string
				}
				script := make([]step, ops)
				for i := range script {
					script[i] = step{pid: rng.Intn(n), desc: tc.ops[rng.Intn(len(tc.ops))]}
				}

				var alloc1, alloc2 memory.NativeAllocator
				gcObj := New(&alloc1, tc.typ, n)
				gcObj.SetGC(GCOptions{Window: 4})
				unbounded := New(&alloc2, tc.typ, n)
				for i, s := range script {
					got, err := gcObj.Execute(s.pid, s.desc)
					if err != nil {
						t.Fatalf("seed %d gc op %d: %v", seed, i, err)
					}
					want, err := unbounded.Execute(s.pid, s.desc)
					if err != nil {
						t.Fatalf("seed %d unbounded op %d: %v", seed, i, err)
					}
					if got != want {
						t.Fatalf("seed %d: op %d %s by p%d diverges: gc %q, unbounded %q",
							seed, i, s.desc, s.pid, got, want)
					}
				}
				st := gcObj.GCStats(0)
				truncated += st.TruncatedNodes
				if st.LiveNodes+int(st.TruncatedNodes) != ops {
					t.Errorf("seed %d: live %d + truncated %d != %d ops",
						seed, st.LiveNodes, st.TruncatedNodes, ops)
				}
				if got := unbounded.GCStats(0); got.LiveNodes != ops {
					t.Errorf("seed %d: unbounded object lost nodes: %d != %d", seed, got.LiveNodes, ops)
				}
			}
			if truncated == 0 {
				t.Error("no seed triggered a truncation; shrink the window")
			}
		})
	}
}

// staleWindows are the collector windows the simulated batteries run at: at
// 1 every operation runs a pass, at 3 every third, so under the adversary a
// pass often runs over a scan that another pass has since overtaken.
var staleWindows = []int{1, 3}

// truncationsOf sums the truncations of the objects the runs set up (no
// GCStats: its scan would block outside the simulation).
func truncationsOf(objs []*Object) int64 {
	var sum int64
	for _, o := range objs {
		sum += o.gc.truncations.Load()
	}
	return sum
}

// TestGCDifferentialSched runs the same adversarial schedule against a
// truncating and an unbounded system. The collector performs no
// shared-memory steps of its own — it reuses the triggering operation's
// scan and keeps watermarks outside the simulated memory — so the same
// seed must yield byte-identical schedules and interpreted histories.
func TestGCDifferentialSched(t *testing.T) {
	scripts := counterScripts(3, 6)
	for _, window := range staleWindows {
		t.Run("window="+strconv.Itoa(window), func(t *testing.T) {
			var objs []*Object
			for seed := int64(0); seed < 25; seed++ {
				resGC := sched.Run(gcSimSystem(CounterType{}, scripts, window, &objs), sched.NewSeeded(seed), sched.Options{})
				resPlain := sched.Run(cachedSimSystem(CounterType{}, scripts, true, nil), sched.NewSeeded(seed), sched.Options{})
				if !resGC.Completed() || !resPlain.Completed() {
					t.Fatalf("seed %d: incomplete run: %v / %v", seed, resGC.Err, resPlain.Err)
				}
				if got, want := len(resGC.Schedule), len(resPlain.Schedule); got != want {
					t.Fatalf("seed %d: schedules diverge: %d vs %d steps (GC must add no shared steps)", seed, got, want)
				}
				for i := range resGC.Schedule {
					if resGC.Schedule[i] != resPlain.Schedule[i] {
						t.Fatalf("seed %d: schedules diverge at step %d", seed, i)
					}
				}
				if got, want := resGC.T.Interpreted().String(), resPlain.T.Interpreted().String(); got != want {
					t.Fatalf("seed %d: truncated and unbounded histories diverge:\n--- gc ---\n%s\n--- unbounded ---\n%s",
						seed, got, want)
				}
			}
			if truncationsOf(objs) == 0 {
				t.Error("no adversarial schedule triggered a truncation")
			}
		})
	}
}

// TestGCFallbackUnderAdversary checks the miss path with truncation live:
// under heavily interleaved schedules operations observe non-covering
// stragglers and fall back — now to the truncation root's state, not
// the (possibly trimmed) full history — and every history must stay
// linearizable.
func TestGCFallbackUnderAdversary(t *testing.T) {
	scripts := counterScripts(4, 5)
	for _, window := range staleWindows {
		t.Run("window="+strconv.Itoa(window), func(t *testing.T) {
			var objs []*Object
			var totalMisses int64
			for seed := int64(0); seed < 40; seed++ {
				res := sched.Run(gcSimSystem(CounterType{}, scripts, window, &objs), sched.NewSeeded(seed), sched.Options{})
				if !res.Completed() {
					t.Fatalf("seed %d: incomplete: %v", seed, res.Err)
				}
				chk, err := lincheck.CheckTranscript(res.T, spec.Counter{})
				if err != nil {
					t.Fatal(err)
				}
				if !chk.Ok {
					t.Fatalf("seed %d: truncated history not linearizable:\n%s", seed, res.T.Interpreted())
				}
				totalMisses += objs[len(objs)-1].CacheStats().Misses
			}
			if totalMisses == 0 {
				t.Error("no schedule exercised the fallback (miss) path; widen the adversary")
			}
			if truncationsOf(objs) == 0 {
				t.Error("no schedule triggered a truncation")
			}
		})
	}
}

// TestGCStrongPrefixTrees runs the strong-linearizability prefix-tree check
// over truncated histories: branch several adversarial continuations off
// shared prefixes of a GC-enabled system and verify a prefix-preserving
// linearization order exists. This is the Attiya–Castañeda–Enea point that
// reclamation must be validated against prefix-preserving checks, not plain
// linearizability.
func TestGCStrongPrefixTrees(t *testing.T) {
	for _, window := range staleWindows {
		t.Run("window="+strconv.Itoa(window), func(t *testing.T) {
			var objs []*Object
			sys := gcSimSystem(CounterType{}, counterScripts(2, 4), window, &objs)
			for seed := int64(0); seed < 6; seed++ {
				tree, err := sched.RandomBranchTree(sys, seed, 16, 3)
				if err != nil {
					t.Fatal(err)
				}
				res, err := lincheck.CheckStrong(lincheck.FromSchedTree(tree), spec.Counter{})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Ok {
					t.Fatalf("seed %d: strong prefix-tree check failed at %s", seed, res.FailNode)
				}
			}
			if truncationsOf(objs) == 0 {
				t.Error("no branch of any tree triggered a truncation")
			}
		})
	}
}

// pass runs one collector pass by hand as process p would after an
// operation: over a fresh scan of p's, against the root loaded before it.
func pass(o *Object, p int) {
	version := o.trunc.Load().version
	view := o.root.View(p)
	o.gc.mu.Lock()
	o.collect(p, view, version)
	o.gc.mu.Unlock()
}

// TestGCTruncationRules pins the truncation rules at the unit level,
// mirroring TestDeltaNodesCovering: the covering fixpoint must refuse a cut
// some node outside it does not cover, and accept (and correctly replay) one
// that every node covers. Both graphs hold six operations of p0 and one of
// p1, and p1's pass takes p0's newest node as its watermark.
func TestGCTruncationRules(t *testing.T) {
	build := func(p1First bool) *Object {
		var alloc memory.NativeAllocator
		o := New(&alloc, CounterType{}, 2)
		o.SetGC(GCOptions{Window: 1 << 30}) // collect only when driven by hand
		if p1First {
			// p1's node, with an empty view, covers nothing, but every node
			// of p0 covers it.
			mustExecute(t, o, 1, "inc()")
		}
		for i := 0; i < 6; i++ {
			mustExecute(t, o, 0, "inc()")
		}
		if !p1First {
			// p1 scanned at time zero and publishes only now: no node of
			// p0 covers its node, nor it theirs.
			o.root.Update(1, &node{invocation: "inc()", pid: 1, index: 0, preceding: make([]*node, 2)})
		}
		return o
	}

	t.Run("refuses-uncovered-cut", func(t *testing.T) {
		o := build(false)
		// The candidate {5, -1} anchors p0's prefix while p1's node — whose
		// view covers none of it — stays outside. The fixpoint must walk the
		// cut back to nothing.
		pass(o, 1)
		if st := o.GCStats(0); st.Truncations != 0 || st.RootVersion != 0 || st.LiveNodes != 7 {
			t.Fatalf("unsafe cut was accepted: %+v", st)
		}
	})

	t.Run("accepts-covered-cut", func(t *testing.T) {
		o := build(true)
		// The candidate {5, 0} holds p1's node, and p0's newest node, whose
		// prefix it is, covers p1's scan exactly: it is the pass's floor, and
		// its state is taken with nothing replayed.
		pass(o, 1)
		st := o.GCStats(0)
		if st.Truncations != 1 || st.RootVersion != 1 || st.TruncatedNodes != 7 {
			t.Fatalf("covered cut not applied: %+v", st)
		}
		if st.LiveNodes != 0 {
			t.Fatalf("live nodes after full truncation = %d, want 0", st.LiveNodes)
		}
		// The root's state must carry all seven increments.
		if got, err := o.Execute(0, "read()"); err != nil || got != "7" {
			t.Fatalf("read() after truncation = %q, %v; want \"7\"", got, err)
		}
	})
}

// TestGCScanWatermarkGap is the regression test for the scan-to-watermark
// race: an operation that scanned a stale view publishes its node after the
// collector's scan, and its process runs a further operation past it, before
// the pass reads the begun bits. The covering fixpoint never examines the
// node (it is unreachable from the collector's scan) — a pass that left its
// process out, as one that has not begun, would commit a cut the node does
// not cover, and every later extraction against the root would fail, wedging
// the object permanently. The process began before its first root load, as
// Execute does, so the pass finds it begun with no node in its scan and must
// neither cut nor trim.
func TestGCScanWatermarkGap(t *testing.T) {
	var alloc memory.NativeAllocator
	o := New(&alloc, CounterType{}, 2)
	o.SetGC(GCOptions{Window: 1 << 30}) // collect only when driven by hand
	// p1's slow first operation begins and scans at time zero (empty view).
	o.begin(1)
	for i := 0; i < 4; i++ {
		if _, err := o.Execute(0, "inc()"); err != nil {
			t.Fatal(err)
		}
	}
	// The collector's scan, as p0's: p1 has published nothing yet.
	version, view := o.trunc.Load().version, o.root.View(0)

	// p1's slow operation publishes only now — after the collector's scan.
	slow := &node{invocation: "inc()", pid: 1, index: 0, preceding: make([]*node, 2)}
	o.root.Update(1, slow)
	// p1 then completes a second operation with a fresh scan.
	if _, err := o.Execute(1, "inc()"); err != nil {
		t.Fatal(err)
	}
	// The candidate cut, p0's scan, leaves the slow node outside the prefix
	// while truncating p0's operations — which the slow node's empty view does
	// not cover.
	g := o.gc
	g.mu.Lock()
	o.collect(0, view, version)
	g.mu.Unlock()

	if st := o.GCStats(0); st.Truncations != 0 {
		t.Fatalf("collector committed a cut across the scan-to-watermark gap: %+v", st)
	}
	// The object must not be wedged: extraction still succeeds and the
	// count reflects all six increments (slow one included).
	if got, err := o.Execute(0, "read()"); err != nil || got != "6" {
		t.Fatalf("read() after refused pass = %q, %v; want \"6\"", got, err)
	}
	// Liveness: a pass over a fresh scan, which holds the slow node's
	// successors, truncates normally.
	if _, err := o.Execute(1, "inc()"); err != nil {
		t.Fatal(err)
	}
	pass(o, 0)
	st := o.GCStats(0)
	if st.Truncations != 1 || st.CoverageFailures != 0 || st.ReplayFailures != 0 {
		t.Fatalf("fresh pass after the refused one did not truncate cleanly: %+v", st)
	}
	if got, err := o.Execute(0, "read()"); err != nil || got != "7" {
		t.Fatalf("read() after truncation = %q, %v; want \"7\"", got, err)
	}
}

// TestGCReplayFailureSurfaced pins the observability of an abandoned
// truncation: a prefix that fails to replay onto the root's state
// leaves the graph untruncated, but the failure must show up in GCStats
// rather than masquerade as normal non-advancement. The fabricated nodes hold
// no state, so neither is a floor — a floor's state would be taken, replaying
// nothing — and the caller's walk ends at its fabricated newest node: the
// pass replays from the root.
func TestGCReplayFailureSurfaced(t *testing.T) {
	var alloc memory.NativeAllocator
	o := New(&alloc, CounterType{}, 2)
	o.SetGC(GCOptions{Window: 1 << 30})
	for i := 0; i < 2; i++ {
		if _, err := o.Execute(0, "inc()"); err != nil {
			t.Fatal(err)
		}
	}
	// A fabricated node whose invocation the spec rejects: any truncation
	// prefix containing it fails to replay. p0's third node is fabricated
	// too — an Execute that scanned the bogus node would fail to replay it —
	// so that every node outside the cut covers it.
	bogus := &node{invocation: "bogus()", pid: 1, index: 0, preceding: o.root.View(1)}
	o.root.Update(1, bogus)
	o.root.Update(0, &node{invocation: "inc()", pid: 0, index: 2, preceding: o.root.View(0)})
	// p0's pass: the candidate is the bogus node's prefix, {1, 0}.
	pass(o, 0)
	st := o.GCStats(0)
	if st.Truncations != 0 {
		t.Fatalf("unreplayable prefix was truncated: %+v", st)
	}
	if st.ReplayFailures != 1 {
		t.Fatalf("abandoned replay not surfaced: %+v", st)
	}
}

// TestGCCoverageFailureSurfaced pins the observability of a broken
// truncation invariant: if a reachable node does not cover the root,
// Execute errors and GCStats must count the failure, and its live count,
// read from the scan's indexes, must not shrink with the refused extraction.
func TestGCCoverageFailureSurfaced(t *testing.T) {
	var alloc memory.NativeAllocator
	o := New(&alloc, CounterType{}, 2)
	o.SetGC(GCOptions{Window: 4})
	const ops = 64
	for i := 0; i < ops; i++ {
		if _, err := o.Execute(i%2, "inc()"); err != nil {
			t.Fatal(err)
		}
	}
	if cut := o.trunc.Load().prefix; cut[0] < 0 && cut[1] < 0 {
		t.Fatal("no truncation happened; the violation needs a non-trivial root")
	}
	// Fabricate the violation: a node above the cut whose view covers
	// nothing.
	bad := &node{invocation: "inc()", pid: 1, index: top(o.root.View(1)[1]) + 1, preceding: make([]*node, 2)}
	o.root.Update(1, bad)

	if _, err := o.Execute(0, "read()"); err == nil {
		t.Fatal("Execute succeeded against a node that does not cover the root")
	}
	st := o.GCStats(0)
	if st.CoverageFailures == 0 {
		t.Fatalf("broken truncation invariant not surfaced: %+v", st)
	}
	if st.LiveNodes == 0 {
		t.Error("a refused extraction reported zero live nodes")
	}
}

// poisonPassed gives every node process p keeps at or below the root a
// poisoned state, and returns how many it poisoned. No floor may read them
// while every operation loads a root at or past this one: p's walk down its
// chain stops at the first node the root has passed, and covered never looks
// at such a node.
func poisonPassed(o *Object, p int, root *anchor) int {
	poisoned := 0
	for _, nd := range o.local[p].mine {
		if nd != nil && nd.index <= root.prefix[p] {
			nd.setState("POISON")
			poisoned++
		}
	}
	return poisoned
}

// TestGCStaleAnchorFallback is the GC/replay-cache interaction contract: once
// the truncation root has passed a process's newest node — it idled while the
// others caught the root up to its newest node — every node it keeps lies at or
// below the root, and their states, poisoned here, must never come back: the
// floors fall to the root without extracting from any of them, and never
// panic.
func TestGCStaleAnchorFallback(t *testing.T) {
	const ops, window = 64, 4
	var alloc memory.NativeAllocator
	o := New(&alloc, CounterType{}, 2)
	o.SetGC(GCOptions{Window: window})
	for i := 0; i < ops; i++ {
		mustExecute(t, o, i%2, "inc()")
	}
	// p0 idles while p1's passes move the root up to p0's newest node.
	extra := 0
	for ; o.trunc.Load().prefix[0] < top(o.root.View(0)[0]); extra++ {
		if extra == 4*window {
			t.Fatalf("the root %v did not reach p0's newest node in %d operations of p1", o.trunc.Load().prefix, extra)
		}
		mustExecute(t, o, 1, "inc()")
	}
	if poisoned := poisonPassed(o, 0, o.trunc.Load()); poisoned != anchorRing+1 {
		t.Fatalf("the root passed %d of p0's kept nodes, want all %d", poisoned, anchorRing+1)
	}
	// p1's newest node scanned p0's idle chain, so it covers p0's scan exactly
	// and would be the floor before any node of p0's is tried. Its state is
	// dropped, as if it had left p1's last nodes, and the floors are driven
	// directly first.
	atomic.StorePointer(&o.root.View(0)[1].state, nil)
	want := strconv.Itoa(ops + extra)
	before := o.CacheStats()
	if got, err := o.replay(0, o.trunc.Load(), o.root.View(0)); err != nil || got != want {
		t.Fatalf("replay over passed nodes = %q, %v; want %s", got, err, want)
	}
	if st := o.CacheStats(); st != before {
		t.Fatalf("a node the root passed was extracted from: %+v -> %+v", before, st)
	}
	if got := mustExecute(t, o, 0, "read()"); got != want {
		t.Fatalf("read() over passed nodes = %q, want %s", got, want)
	}
}

// TestGCEarlierAnchorBelowRootSkipped: every node a process keeps — its newest
// and the anchorRing before it — lies at or below the truncation root, each
// with a prefix the untrimmed graph would still accept, and each with a
// poisoned state. All must be skipped without an extraction (no hit, no miss)
// and the state served from the root. The operations alternate, so a covering
// node would answer Execute before any floor is tried: the floors are driven
// directly, white-box, as collect and extract are.
func TestGCEarlierAnchorBelowRootSkipped(t *testing.T) {
	var alloc memory.NativeAllocator
	o := New(&alloc, CounterType{}, 2)
	o.SetGC(GCOptions{Window: 1 << 30}) // collect only when driven by hand
	// p0 runs anchorRing+2 operations, and p1 one past p0's last: p1's newest
	// node, the pass's watermark, has scanned p0's newest.
	const ops = 2*anchorRing + 3
	for i := 0; i < ops; i++ {
		mustExecute(t, o, i%2, "inc()")
	}
	mustExecute(t, o, 1, "inc()")
	// One pass: the root moves to p0's newest node, and the boundary views
	// stay intact (they are cut by a later pass), so extraction past any node
	// p0 keeps would succeed.
	view := o.root.View(0)
	pass(o, 0)
	if root := o.trunc.Load(); root.version != 1 || root.prefix[0] != top(view[0]) {
		t.Fatalf("root v%d %v did not reach p0's newest node %d", root.version, root.prefix, top(view[0]))
	}
	l := &o.local[0]
	prefix := make([]int, 2)
	for _, nd := range l.mine {
		if nd == nil {
			t.Fatalf("p0 keeps fewer than %d nodes", len(l.mine))
		}
		prefixOf(prefix, nd)
		if _, _, ok := l.extract(prefix, view); !ok {
			t.Fatalf("the graph refuses node %d's prefix %v anyway; the case needs it extractable", nd.index, prefix)
		}
		l.release()
	}
	if poisoned := poisonPassed(o, 0, o.trunc.Load()); poisoned != len(l.mine) {
		t.Fatalf("the root passed %d of p0's kept nodes, want all %d", poisoned, len(l.mine))
	}
	want := strconv.Itoa(ops + 1)
	before := o.CacheStats()
	got, err := o.replay(0, o.trunc.Load(), o.root.View(0))
	if err != nil || got != want {
		t.Fatalf("replay over passed nodes = %q, %v; want %s", got, err, want)
	}
	if st := o.CacheStats(); st != before {
		t.Fatalf("a node the root passed was extracted from: %+v -> %+v", before, st)
	}
	if got := mustExecute(t, o, 0, "read()"); got != want {
		t.Fatalf("read() over passed nodes = %q, want %s", got, want)
	}
}

// TestGCSeveredAnchorAtRootSkipped: the collector severs a boundary node's view
// once every process has executed past its root, and the boundary may be the
// newest node of an idle process, which still keeps it. That process's next
// floor must stop at the node — it lies exactly at the root it loaded — without
// reading its view: no panic, no poisoned state, no race report, the answer
// from the root.
func TestGCSeveredAnchorAtRootSkipped(t *testing.T) {
	const ops = 10
	var alloc memory.NativeAllocator
	o := New(&alloc, CounterType{}, 2)
	o.SetGC(GCOptions{Window: 1 << 30}) // collect only when driven by hand
	for i := 0; i < ops; i++ {
		mustExecute(t, o, i%2, "inc()")
	}
	view := o.root.View(0)
	o.trunc.Store(&anchor{prefix: []int{top(view[0]), top(view[1])}, state: strconv.Itoa(ops), version: 1})
	if o.local[0].mine[view[0].index%len(o.local[0].mine)] != view[0] {
		t.Fatal("p0 does not keep its newest node")
	}
	view[0].setState("POISON")
	view[0].preceding = nil // the collector's cut
	before := o.CacheStats()
	if got, err := o.replay(0, o.trunc.Load(), o.root.View(0)); err != nil || got != strconv.Itoa(ops) {
		t.Fatalf("replay over a severed node at the root = %q, %v; want %d", got, err, ops)
	}
	if st := o.CacheStats(); st != before {
		t.Fatalf("the severed node was tried as a floor: %+v -> %+v", before, st)
	}
	if got := mustExecute(t, o, 0, "read()"); got != strconv.Itoa(ops) {
		t.Fatalf("read() over a severed node at the root = %q, want %d", got, ops)
	}
}

// TestGCStragglerPastEveryAnchor: a straggler that covers none of the anchors
// its observer keeps sends the operation to the root, one that covers an
// earlier anchor stops there, and both responses are those of a twin object
// that replays everything every time. Each miss extracts from one kept node
// only: the straggler's view of the observer, below the refused node, tells
// which others it refuses too.
func TestGCStragglerPastEveryAnchor(t *testing.T) {
	var alloc1, alloc2 memory.NativeAllocator
	cached, twin := New(&alloc1, CounterType{}, 2), New(&alloc2, CounterType{}, 2)
	twin.SetCaching(false)
	both := func(desc string) string {
		t.Helper()
		got, err := cached.Execute(0, desc)
		if err != nil {
			t.Fatal(err)
		}
		want, err := twin.Execute(0, desc)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s: cached %q, uncached twin %q", desc, got, want)
		}
		return got
	}
	// straggle publishes p1's next node with the view p1 would have scanned
	// back p0-operations ago (everything, for back < 0: p1 scanned at time zero).
	straggle := func(o *Object, back int) {
		view := make([]*node, 2)
		if back >= 0 {
			now := o.root.View(1)
			view[0], view[1] = now[0], now[1]
			for ; back > 0; back-- {
				view[0] = view[0].preceding[0]
			}
		}
		o.root.Update(1, &node{invocation: "inc()", pid: 1, index: top(o.root.View(1)[1]) + 1, preceding: view})
	}
	for i := 0; i < anchorRing+2; i++ {
		both("inc()")
	}

	straggle(cached, -1)
	straggle(twin, -1)
	if got := both("read()"); got != strconv.Itoa(anchorRing+3) {
		t.Fatalf("read() = %q, want %d", got, anchorRing+3)
	}
	if st := cached.CacheStats(); st.Misses != 1 || st.RootReplays != 1 {
		t.Fatalf("a straggler covering no kept anchor must replay from the root once: %+v", st)
	}
	// The straggler's view of p0 is below every kept node, so the first
	// refusal says it refuses them all.
	if st := cached.CacheStats(); st.Refused != 1 {
		t.Fatalf("the miss to the root extracted from %d kept nodes, want 1: %+v", st.Refused, st)
	}

	for i := 0; i < anchorRing; i++ {
		both("inc()")
	}
	straggle(cached, 3)
	straggle(twin, 3)
	if got := both("read()"); got != strconv.Itoa(2*anchorRing+4) {
		t.Fatalf("read() = %q, want %d", got, 2*anchorRing+4)
	}
	if st := cached.CacheStats(); st.Misses != 2 || st.RootReplays != 1 {
		t.Fatalf("a straggler covering an earlier anchor must stop there: %+v", st)
	}
	// The straggler scanned p0's node three back: the nodes above it refuse,
	// and only the newest is extracted to learn that.
	if st := cached.CacheStats(); st.Refused != 2 {
		t.Fatalf("the second miss extracted from %d refused kept nodes, want 1: %+v", st.Refused-1, st)
	}
}

// TestGCRefusedBaseFallsBackToRoot: a node the caller of a pass keeps, whose
// prefix lies between the root and the cut, is the pass's floor, but the graph
// refuses it — a node outside it does not cover it — so the pass must not take
// its state: it falls to the root and commits exactly what a twin commits in
// which that node holds no state, and so is no floor.
func TestGCRefusedBaseFallsBackToRoot(t *testing.T) {
	build := func(state string) *Object {
		var alloc memory.NativeAllocator
		o := New(&alloc, CounterType{}, 2)
		o.SetGC(GCOptions{Window: 1 << 30}) // collect only when driven by hand
		exec := func(times int) {
			for i := 0; i < times; i++ {
				if _, err := o.Execute(0, "inc()"); err != nil {
					t.Fatal(err)
				}
			}
		}
		exec(3)
		// p1's first operation scanned after p0's first and publishes only
		// now; its second scanned after p0's second and before p0's third
		// published.
		v := o.root.View(1)
		first, second := v[0].preceding[0].preceding[0], v[0].preceding[0]
		straggler := &node{invocation: "inc()", pid: 1, index: 0, preceding: []*node{first, nil}}
		o.root.Update(1, straggler)
		o.root.Update(1, &node{invocation: "inc()", pid: 1, index: 1, preceding: []*node{second, straggler}})
		exec(2)
		// p0's second node is the candidate; p0's first has dropped its state,
		// as if it had left p0's last nodes, so the root lies next below.
		atomic.StorePointer(&first.state, nil)
		if state != "" {
			second.setState(state)
		} else {
			atomic.StorePointer(&second.state, nil)
		}
		pass(o, 0)
		return o
	}
	// p0's pass takes {1, 1} as its candidate (p1's second node and its view
	// of p0), and p0's second node, prefix {1, -1}, as its floor where it
	// holds a state. p1's first node lies outside that floor and does
	// not cover it, and p0's third node lies outside the candidate and does
	// not cover it, so the fixpoint lowers the cut to {0, -1}.
	forged, twin := build("POISON"), build("")
	got, want := forged.trunc.Load(), twin.trunc.Load()
	if want.version != 1 || want.state != "1" || want.prefix[0] != 0 || want.prefix[1] != -1 {
		t.Fatalf("twin truncated to %+v, want {[0 -1] 1 1}", *want)
	}
	if got.version != want.version || got.state != want.state || got.prefix[0] != want.prefix[0] || got.prefix[1] != want.prefix[1] {
		t.Fatalf("refused base: truncated to %+v, twin to %+v", *got, *want)
	}
	for _, o := range []*Object{forged, twin} {
		st := o.GCStats(0)
		if st.TruncatedNodes != 1 || st.LiveNodes != 6 || st.CoverageFailures+st.ReplayFailures != 0 {
			t.Fatalf("after the fallback: %+v", st)
		}
	}
	// The poisoned state went nowhere: p0's latest node covers p1's view, so
	// a read of p1's takes that node's state.
	for _, o := range []*Object{forged, twin} {
		if resp, err := o.Execute(1, "read()"); err != nil || resp != "7" {
			t.Fatalf("read() after the fallback = %q, %v; want \"7\"", resp, err)
		}
	}
}

// TestGCStaleAnchorUnderAdversary drives the same fallback through
// adversarial schedules: before its last operation each process poisons the
// states of the nodes it keeps that the truncation root has passed, and every
// resulting history must stay linearizable with truncation live. The root it
// poisons under is the oldest one the other processes observed before their
// latest operations: every operation in flight or to come loads a root at or
// past it.
func TestGCStaleAnchorUnderAdversary(t *testing.T) {
	const n = 3
	scripts := counterScripts(n, 6)
	var poisoned int
	system := func(obj **Object) sched.System {
		return sched.System{
			N: n,
			Setup: func(env *sched.Env) []sched.Program {
				o := New(env, CounterType{}, n)
				o.SetGC(GCOptions{Window: 1})
				if obj != nil {
					*obj = o
				}
				// observed[q] is the root q's program saw before its latest
				// operation began.
				observed := make([]*anchor, n)
				oldestOther := func(pid int) *anchor {
					oldest := o.trunc.Load()
					for q, root := range observed {
						if q != pid && (root == nil || root.version < oldest.version) {
							oldest = root
						}
						if oldest == nil {
							return nil
						}
					}
					return oldest
				}
				progs := make([]sched.Program, n)
				for pid := range scripts {
					pid := pid
					progs[pid] = func(p *sched.Proc) {
						for i, desc := range scripts[pid] {
							if i == len(scripts[pid])-1 {
								if root := oldestOther(pid); root != nil {
									poisoned += poisonPassed(o, pid, root)
								}
							}
							observed[pid] = o.trunc.Load()
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
	var truncations int64
	for seed := int64(0); seed < 20; seed++ {
		var obj *Object
		res := sched.Run(system(&obj), sched.NewSeeded(seed), sched.Options{})
		if !res.Completed() {
			t.Fatalf("seed %d: incomplete: %v", seed, res.Err)
		}
		chk, err := lincheck.CheckTranscript(res.T, spec.Counter{})
		if err != nil {
			t.Fatal(err)
		}
		if !chk.Ok {
			t.Fatalf("seed %d: stale-anchor history not linearizable:\n%s", seed, res.T.Interpreted())
		}
		truncations += obj.gc.truncations.Load()
	}
	if truncations == 0 {
		t.Error("no schedule triggered a truncation under the stale-anchor workload")
	}
	if poisoned == 0 {
		t.Error("no schedule let a process poison a node the root had passed")
	}
}

// TestGCChurnSoak is the acceptance soak: over >= 100k operations the
// truncating object's live-node count stays flat — within 2x of the
// collection period (window x processes) — while the unbounded object grows
// linearly with every operation.
func TestGCChurnSoak(t *testing.T) {
	const n, window = 4, 256
	ops := 100_000
	if testing.Short() {
		ops = 20_000
	}

	var alloc1, alloc2 memory.NativeAllocator
	bounded := New(&alloc1, CounterType{}, n)
	bounded.SetGC(GCOptions{Window: window})
	unbounded := New(&alloc2, CounterType{}, n)

	bound := 2 * n * window
	maxLive := 0
	for i := 0; i < ops; i++ {
		if _, err := bounded.Execute(i%n, "inc()"); err != nil {
			t.Fatal(err)
		}
		if i%1000 == 999 {
			if live := bounded.GCStats(i % n).LiveNodes; live > maxLive {
				maxLive = live
			}
		}
	}
	if maxLive == 0 || maxLive > bound {
		t.Errorf("bounded live nodes peaked at %d, want within (0, %d]", maxLive, bound)
	}

	st := bounded.GCStats(0)
	if st.LiveNodes+int(st.TruncatedNodes) != ops {
		t.Errorf("live %d + truncated %d != %d ops", st.LiveNodes, st.TruncatedNodes, ops)
	}
	if st.Truncations < int64(ops/(4*n*window)) {
		t.Errorf("only %d truncations over %d ops (window %d)", st.Truncations, ops, window)
	}
	if st.Truncations-st.PendingTrims <= 0 {
		t.Errorf("no boundary pointers were ever cut: %+v", st)
	}
	// Physical truncation: an unrestricted walk from a fresh scan must stop
	// at the severed boundaries, reaching far fewer nodes than executed.
	// (Quiescent now, so reading trimmed views is safe.)
	if reachable := len(precgraph(bounded.root.View(0)).nodes); reachable >= ops/10 {
		t.Errorf("unrestricted walk still reaches %d of %d nodes; boundary views not cut", reachable, ops)
	}

	// The unbounded control grows linearly: every op stays reachable.
	ubOps := ops / 10 // keep the control cheap; linearity is exact, not statistical
	for i := 0; i < ubOps; i++ {
		if _, err := unbounded.Execute(i%n, "inc()"); err != nil {
			t.Fatal(err)
		}
	}
	if got := unbounded.GCStats(0).LiveNodes; got != ubOps {
		t.Errorf("unbounded history = %d after %d ops, want exact linear growth", got, ubOps)
	}
}

// TestGCConcurrentChurn runs truncation under real goroutine concurrency
// (the race detector patrols the deferred boundary cuts) and checks no
// operation is lost or duplicated through any truncation: the final count
// equals the operations executed.
func TestGCConcurrentChurn(t *testing.T) {
	const n, window = 4, 64
	perProc := 5000
	if testing.Short() {
		perProc = 1000
	}
	var alloc memory.NativeAllocator
	o := New(&alloc, CounterType{}, n)
	o.SetCaching(true) // production config: without it a pinned collector makes ops O(history)
	o.SetGC(GCOptions{Window: window})

	// No per-op yield: on one CPU the goroutines run in scheduler-sized
	// bursts, and while one process that has begun has no node in a pass's
	// scan yet the collector is pinned and the others replay from an
	// ever-longer graph. That costs O(live·n) per miss, not the
	// pairwise O(live²) that used to stall this test on two cores, so the
	// run finishes under -cpu 1,2,4 either way; the barrier only makes the
	// overlap start at once.
	start := make(chan struct{})
	done := make(chan error, n)
	for p := 0; p < n; p++ {
		go func(pid int) {
			<-start
			for i := 0; i < perProc; i++ {
				if _, err := o.Execute(pid, "inc()"); err != nil {
					done <- err
					return
				}
				if i%512 == 511 {
					_ = o.GCStats(pid) // concurrent stats reads race-patrol the collector
				}
			}
			done <- nil
		}(p)
	}
	close(start)
	for p := 0; p < n; p++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	got, err := o.Execute(0, "read()")
	if err != nil {
		t.Fatal(err)
	}
	if want := strconv.Itoa(n * perProc); got != want {
		t.Fatalf("final count %q, want %q: truncation lost or duplicated operations", got, want)
	}
	// Whether a pass got through while the goroutines overlapped is the
	// scheduler's call: a process descheduled inside its first operation has
	// begun with no node to scan, so every pass meanwhile ends there, and the
	// few after it can all be held back by stragglers. A quiescent tail — each
	// process in turn, one window — leaves no such excuse: its passes scan
	// every process's newest node, and no straggler is outside them.
	for p := 0; p < n; p++ {
		for i := 0; i < window; i++ {
			if _, err := o.Execute(p, "inc()"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := o.GCStats(0); st.Truncations == 0 || st.CoverageFailures+st.ReplayFailures != 0 {
		t.Errorf("churn and a quiescent tail never truncated cleanly: %+v", st)
	}
}

// TestGCIdlePidsDoNotPin: a process that has never begun pins nothing. At
// n = 16 with k of the pids ever used — k goroutines running concurrently,
// then one window per pid in turn — at most 3·k·window nodes stay live; a
// pass that waited for a node from each of the 16 - k idle pids would keep
// every operation.
func TestGCIdlePidsDoNotPin(t *testing.T) {
	const n, window = 16, 64
	perProc := 20 * window
	if testing.Short() {
		perProc = 5 * window
	}
	for k := 1; k <= 3; k++ {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			var alloc memory.NativeAllocator
			o := New(&alloc, CounterType{}, n)
			o.SetGC(GCOptions{Window: window})
			var wg sync.WaitGroup
			errs := make(chan error, k)
			for p := 0; p < k; p++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perProc; i++ {
						if _, err := o.Execute(p, "inc()"); err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			for p := 0; p < k; p++ {
				for i := 0; i < window; i++ {
					mustExecute(t, o, p, "inc()")
				}
			}
			st := o.GCStats(0)
			t.Logf("k=%d: %+v", k, st)
			if st.LiveNodes > 3*k*window || st.CoverageFailures+st.ReplayFailures != 0 {
				t.Fatalf("%d of 16 pids used: %d live nodes, want at most %d: %+v", k, st.LiveNodes, 3*k*window, st)
			}
			if walked := extractedLive(t, o, 0); st.LiveNodes != walked {
				t.Fatalf("GCStats counts %d live nodes, a full extraction from the root walks %d", st.LiveNodes, walked)
			}
			if ops := k * (perProc + window); st.LiveNodes+int(st.TruncatedNodes) != ops {
				t.Fatalf("live %d + truncated %d != %d ops", st.LiveNodes, st.TruncatedNodes, ops)
			}
		})
	}
}

// extractedLive returns the number of nodes a full extraction from the
// truncation root walks, as process p: the count GCStats reads off a scan's
// indexes instead.
func extractedLive(t *testing.T, o *Object, p int) int {
	t.Helper()
	sc := &scratch{n: o.n}
	if _, _, ok := sc.extract(o.trunc.Load().prefix, o.root.View(p)); !ok {
		t.Fatal("the live graph refused an extraction from the truncation root")
	}
	defer sc.release()
	return len(sc.nodes)
}

// TestGCBegunIdlePidReleasesOnResume pins the liveness bound gc.go states
// and the recovery after it. Pid 1 runs one operation and idles while pid 0
// runs ten windows: pid 1's newest node pins the graph, so live nodes grow
// with pid 0's run, but no further than the operations since pid 1's last
// one plus one window. Once pid 1 runs again, pid 0's passes cut up to that
// new node, and live nodes fall back under pid 0's operations since then
// plus one window. This is the baseline an in-flight announcement (ROADMAP
// P0 (a2)) would tighten.
func TestGCBegunIdlePidReleasesOnResume(t *testing.T) {
	const window, idle, resumed = 64, 10 * 64, 130
	for _, c := range []struct {
		name string
		typ  Type
		inv  []string
	}{
		{"counter", CounterType{}, []string{"inc()", "read()"}},
		{"register", RegisterType{}, []string{"write(x)", "read()", "write(y)"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var alloc memory.NativeAllocator
			o := New(&alloc, c.typ, 2)
			o.SetGC(GCOptions{Window: window})
			ops := 0
			run := func(p, k int) {
				for range k {
					mustExecute(t, o, p, c.inv[ops%len(c.inv)])
					ops++
				}
			}
			run(1, 1)
			run(0, idle)
			pinned := o.GCStats(0)
			if pinned.LiveNodes > idle+window || pinned.CoverageFailures+pinned.ReplayFailures != 0 {
				t.Fatalf("pid 1 idle for %d operations: %+v, want at most %d live nodes", idle, pinned, idle+window)
			}
			run(1, 1)
			run(0, resumed)
			st := o.GCStats(0)
			if st.LiveNodes >= resumed+window || st.CoverageFailures+st.ReplayFailures != 0 {
				t.Fatalf("%d operations after pid 1 resumed: %+v, want under %d live nodes", resumed, st, resumed+window)
			}
			t.Logf("live nodes: %d after pid 1 idled, %d after it resumed", pinned.LiveNodes, st.LiveNodes)
		})
	}
}

// TestGCStatsReaderDoesNotPin: a pid that only reads GCStats — here while two
// others run ten windows side by side, then one more window each in turn —
// enters nothing into the collector's protocol, so passes still truncate and
// at most 3·2·window nodes stay live. A stats read that began its pid would
// leave it with no node to scan and end every pass.
func TestGCStatsReaderDoesNotPin(t *testing.T) {
	const n, window, rounds = 3, 64, 10
	var alloc memory.NativeAllocator
	o := New(&alloc, CounterType{}, n)
	o.SetGC(GCOptions{Window: window})
	runWindow := func(p int) error {
		for i := 0; i < window; i++ {
			if _, err := o.Execute(p, "inc()"); err != nil {
				return err
			}
		}
		return nil
	}
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for p := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[p] = runWindow(p)
			}()
		}
		o.GCStats(2)
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	for p := 0; p < 2; p++ {
		o.GCStats(2)
		if err := runWindow(p); err != nil {
			t.Fatal(err)
		}
	}
	st := o.GCStats(2)
	if st.Truncations == 0 || st.LiveNodes > 3*2*window || st.CoverageFailures+st.ReplayFailures != 0 {
		t.Fatalf("pid 2 only read stats: %+v, want truncations and at most %d live nodes", st, 3*2*window)
	}
}

// TestGCLateFirstOperation: a process whose first operation comes after ten
// truncations — every pass before it left it out — answers exactly as a
// GC-off, uncached twin, and so does every operation after it, its own and
// the others'.
func TestGCLateFirstOperation(t *testing.T) {
	const n, window = 4, 4
	var alloc1, alloc2 memory.NativeAllocator
	o, twin := New(&alloc1, CounterType{}, n), New(&alloc2, CounterType{}, n)
	o.SetGC(GCOptions{Window: window})
	twin.SetCaching(false)
	both := func(p int, desc string) {
		t.Helper()
		if got, want := mustExecute(t, o, p, desc), mustExecute(t, twin, p, desc); got != want {
			t.Fatalf("p%d %s: %q, GC-off uncached twin %q", p, desc, got, want)
		}
	}
	for i := 0; o.gc.truncations.Load() < 10; i++ {
		if i == 1000 {
			t.Fatalf("two of four pids running: %+v after %d operations, want 10 truncations", o.GCStats(0), i)
		}
		both(i%2, "inc()")
	}
	both(3, "read()")
	for i := 0; i < 60; i++ {
		both([]int{3, 0, 1}[i%3], []string{"inc()", "read()"}[i/3%2])
	}
	if st := o.GCStats(0); st.Truncations <= 10 || st.CoverageFailures+st.ReplayFailures != 0 {
		t.Fatalf("after the late process joined: %+v, want more truncations and no failures", st)
	}
}

// TestGCLateFirstOperationConcurrent: processes that begin one by one while
// the others keep truncating, under real concurrency — the race detector
// patrols a late process's first reads against the collector's boundary cuts
// — lose and duplicate no operation.
func TestGCLateFirstOperationConcurrent(t *testing.T) {
	const n, window = 4, 8
	perProc := 3000
	if testing.Short() {
		perProc = 600
	}
	var alloc memory.NativeAllocator
	o := New(&alloc, CounterType{}, n)
	o.SetGC(GCOptions{Window: window})
	// p0 lets p2 begin a third of the way through its run and p3 two thirds
	// (or as soon as it stops); those run a third of a run each.
	late := []chan struct{}{make(chan struct{}), make(chan struct{})}
	var wg sync.WaitGroup
	errs := make(chan error, n)
	run := func(p, ops int, wait <-chan struct{}) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if wait != nil {
				<-wait
			}
			released := 0
			if p == 0 {
				defer func() {
					for _, c := range late[released:] {
						close(c)
					}
				}()
			}
			for i := 0; i < ops; i++ {
				if p == 0 && released < len(late) && i == (released+1)*(ops/3) {
					close(late[released])
					released++
				}
				if _, err := o.Execute(p, "inc()"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	run(0, perProc, nil)
	run(1, perProc, nil)
	run(2, perProc/3, late[0])
	run(3, perProc/3, late[1])
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	want := strconv.Itoa(2*perProc + 2*(perProc/3))
	if got := mustExecute(t, o, 0, "read()"); got != want {
		t.Fatalf("final count %q, want %q", got, want)
	}
	if st := o.GCStats(0); st.Truncations == 0 || st.CoverageFailures+st.ReplayFailures != 0 {
		t.Fatalf("%+v, want truncations and no failures", st)
	}
}

// TestGCPassesOverFreshScans runs collector passes over fresh scans in one
// goroutine while two processes execute in another, against an unbounded,
// uncached twin that runs the same operations in the same order: every
// response must agree, and the race detector patrols what a pass reads of the
// nodes the processes publish — views, versions and states — against their
// owners' writes.
func TestGCPassesOverFreshScans(t *testing.T) {
	const ops = 200
	var alloc1, alloc2 memory.NativeAllocator
	o := New(&alloc1, CounterType{}, 3) // pid 2 scans for the collector goroutine
	o.SetGC(GCOptions{Window: 1 << 30})
	twin := New(&alloc2, CounterType{}, 3)
	twin.SetCaching(false)

	started, stop, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			pass(o, 2)
			if i == 0 {
				close(started)
			}
		}
	}()
	<-started
	for i := 0; i < ops; i++ {
		p, desc := i%2, []string{"inc()", "inc()", "read()"}[i%3]
		if got, want := mustExecute(t, o, p, desc), mustExecute(t, twin, p, desc); got != want {
			t.Fatalf("operation %d, p%d %s: %q, unbounded twin %q", i, p, desc, got, want)
		}
	}
	close(stop)
	<-done

	pass(o, 2) // the graph is quiescent now, so this pass truncates
	st := o.GCStats(0)
	if st.Truncations == 0 || st.CoverageFailures+st.ReplayFailures != 0 {
		t.Fatalf("%+v, want truncations and no failures", st)
	}
	if st.LiveNodes+int(st.TruncatedNodes) != ops {
		t.Fatalf("live %d + truncated %d != %d ops", st.LiveNodes, st.TruncatedNodes, ops)
	}
}

// TestGCSeveredWatermarkUnread hands a pass a stale scan whose node of p0 a
// later pass has severed: p1 scanned after the first truncation made p0's node
// its boundary, and before p1's pass runs, p0's pass finds every watermark at
// or past that root and cuts the node's view. The pass must not read the view
// — a severed view names no node, so read as a prefix it would bound nothing,
// and the cut would pass p0's straggler, which does not cover p1's node — and
// so must neither truncate nor count a failure.
func TestGCSeveredWatermarkUnread(t *testing.T) {
	var alloc memory.NativeAllocator
	o := New(&alloc, CounterType{}, 2)
	o.SetGC(GCOptions{Window: 1 << 30}) // collect only when driven by hand
	mustExecute(t, o, 0, "inc()")
	// p0's straggler scans now, before p1's first node, and publishes later.
	straggler := &node{invocation: "inc()", pid: 0, index: 1, preceding: o.root.View(0)}
	mustExecute(t, o, 1, "inc()")
	pass(o, 1)
	boundary := o.root.View(0)[0]
	if root := o.trunc.Load(); root.version != 1 || root.prefix[0] != boundary.index || root.prefix[1] != -1 {
		t.Fatalf("root v%d %v, want v1 at p0's first node only", root.version, root.prefix)
	}
	// p1's next operation loads that root and scans; its pass comes last.
	mustExecute(t, o, 1, "inc()")
	stale := o.root.View(1)[1]
	o.root.Update(0, straggler)
	mustExecute(t, o, 0, "inc()")
	// p0's pass sees both watermarks at root v1 and cuts the boundary's view;
	// the straggler keeps it from truncating.
	pass(o, 0)
	if st := o.GCStats(0); boundary.preceding != nil || st.Truncations != 1 || st.PendingTrims != 0 {
		t.Fatalf("the boundary was not severed (view %v): %+v", boundary.preceding, st)
	}

	o.gc.mu.Lock()
	o.collect(1, stale.preceding, stale.version)
	o.gc.mu.Unlock()
	if st := o.GCStats(0); st.Truncations != 1 || st.CoverageFailures+st.ReplayFailures != 0 {
		t.Fatalf("a pass over a severed watermark: %+v, want no truncation and no failure", st)
	}
	if walked := extractedLive(t, o, 0); walked != 4 {
		t.Fatalf("a full extraction from the root walks %d nodes, want 4", walked)
	}
	for p := 0; p < 2; p++ {
		if got := mustExecute(t, o, p, "read()"); got != "5" {
			t.Fatalf("p%d read() = %q, want 5", p, got)
		}
	}
}

// FuzzGCWatermarkOrder fuzzes the order processes advance their watermarks:
// each input byte selects the next process and operation, so the byte
// stream drives watermark publication and collection cadence through
// arbitrary interleavings. The truncating object must agree with the
// unbounded reference on every response, and its node accounting must
// balance.
func FuzzGCWatermarkOrder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 1, 2, 0, 1, 2, 3, 4, 5})
	f.Add([]byte("\x00\x00\x00\x01\x02\x03\x04\x05\x06\a\b\t\n\v\f\r"))
	f.Add([]byte{5, 4, 3, 2, 1, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 3
		ops := []string{"inc()", "read()"}
		var alloc1, alloc2 memory.NativeAllocator
		gcObj := New(&alloc1, CounterType{}, n)
		gcObj.SetGC(GCOptions{Window: 2})
		ref := New(&alloc2, CounterType{}, n)
		total := 0
		for i, b := range data {
			pid := int(b) % n
			desc := ops[(int(b)/n)%len(ops)]
			got, err := gcObj.Execute(pid, desc)
			if err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			want, err := ref.Execute(pid, desc)
			if err != nil {
				t.Fatalf("ref op %d: %v", i, err)
			}
			if got != want {
				t.Fatalf("op %d (%s by p%d): gc %q, unbounded %q", i, desc, pid, got, want)
			}
			total++
		}
		if st := gcObj.GCStats(0); st.LiveNodes+int(st.TruncatedNodes) != total {
			t.Fatalf("node accounting broken: live %d + truncated %d != %d ops",
				st.LiveNodes, st.TruncatedNodes, total)
		}
	})
}

// TestGCRetune pins the SetGC contract: enabling is sticky, re-calling only
// retunes the window.
func TestGCRetune(t *testing.T) {
	var alloc memory.NativeAllocator
	o := New(&alloc, CounterType{}, 1)
	if o.GCEnabled() {
		t.Fatal("GC enabled before SetGC")
	}
	o.SetGC(GCOptions{})
	if !o.GCEnabled() || o.gc.window != DefaultGCWindow {
		t.Fatalf("default window = %d, want %d", o.gc.window, DefaultGCWindow)
	}
	first := o.gc
	o.SetGC(GCOptions{Window: 8})
	if o.gc != first || o.gc.window != 8 {
		t.Fatal("SetGC retune replaced the collector state")
	}
	for i := 0; i < 64; i++ {
		if _, err := o.Execute(0, "inc()"); err != nil {
			t.Fatal(err)
		}
	}
	if st := o.GCStats(0); st.Truncations == 0 || st.LiveNodes+int(st.TruncatedNodes) != 64 {
		t.Fatalf("single-process truncation broken: %+v", st)
	}
	if got, err := o.Execute(0, "read()"); err != nil || got != "64" {
		t.Fatalf("read() = %q, %v; want \"64\"", got, err)
	}
}

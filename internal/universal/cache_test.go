package universal

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"slmem/internal/lincheck"
	"slmem/internal/memory"
	"slmem/internal/sched"
	"slmem/internal/spec"
)

// cachedSimSystem builds a simulated system like simSystem, but exposes the
// object (for cache stats) and lets tests disable the replay cache.
func cachedSimSystem(typ Type, scripts [][]string, caching bool, obj **Object) sched.System {
	n := len(scripts)
	return sched.System{
		N: n,
		Setup: func(env *sched.Env) []sched.Program {
			o := New(env, typ, n)
			o.SetCaching(caching)
			if obj != nil {
				*obj = o
			}
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

// counterScripts builds per-process scripts long enough that later
// operations run against a non-trivial history (so the replay cache is
// genuinely exercised, hits and fallbacks both).
func counterScripts(n, opsPerProc int) [][]string {
	scripts := make([][]string, n)
	for p := range scripts {
		for i := 0; i < opsPerProc; i++ {
			if i%3 == 2 {
				scripts[p] = append(scripts[p], "read()")
			} else {
				scripts[p] = append(scripts[p], "inc()")
			}
		}
	}
	return scripts
}

// TestReplayCacheDifferentialNative replays identical randomized invocation
// interleavings against a cached and an uncached object: every response must
// be byte-identical (the cache computes the same function of each scanned
// view, just incrementally).
func TestReplayCacheDifferentialNative(t *testing.T) {
	types := map[string]struct {
		typ Type
		ops []string
	}{
		"counter":     {CounterType{}, []string{"inc()", "read()"}},
		"set":         {SetType{}, []string{"add(a)", "add(b)", "add(c)", "contains(a)", "contains(c)"}},
		"accumulator": {AccumulatorType{}, []string{"addTo(3)", "addTo(-1)", "read()"}},
		"register":    {RegisterType{}, []string{"write(x)", "write(y)", "read()"}},
	}
	const n, ops = 3, 120
	for name, tc := range types {
		tc := tc
		t.Run(name, func(t *testing.T) {
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
				cached := New(&alloc1, tc.typ, n)
				uncached := New(&alloc2, tc.typ, n)
				uncached.SetCaching(false)
				for i, s := range script {
					got, err := cached.Execute(s.pid, s.desc)
					if err != nil {
						t.Fatalf("seed %d cached op %d: %v", seed, i, err)
					}
					want, err := uncached.Execute(s.pid, s.desc)
					if err != nil {
						t.Fatalf("seed %d uncached op %d: %v", seed, i, err)
					}
					if got != want {
						t.Fatalf("seed %d: op %d %s by p%d diverges: cached %q, uncached %q",
							seed, i, s.desc, s.pid, got, want)
					}
				}
				st := cached.CacheStats()
				if st.Hits == 0 {
					t.Errorf("seed %d: cached run recorded no cache hits", seed)
				}
				if un := uncached.CacheStats(); un.Hits != 0 || un.Misses != 0 {
					t.Errorf("seed %d: uncached object touched the cache: %+v", seed, un)
				}
			}
		})
	}
}

// TestReplayCacheDifferentialSched runs the same adversarial schedule against
// a cached and an uncached system. The cache performs no shared-memory steps
// of its own, so the same seed yields the same schedule — and the interpreted
// histories (invocations, responses, interleaving) must match byte for byte.
// (Raw transcripts render node pointer addresses, so they are compared at the
// operation level.)
func TestReplayCacheDifferentialSched(t *testing.T) {
	scripts := counterScripts(3, 6)
	for seed := int64(0); seed < 25; seed++ {
		var cachedObj *Object
		resCached := sched.Run(cachedSimSystem(CounterType{}, scripts, true, &cachedObj), sched.NewSeeded(seed), sched.Options{})
		resPlain := sched.Run(cachedSimSystem(CounterType{}, scripts, false, nil), sched.NewSeeded(seed), sched.Options{})
		if !resCached.Completed() || !resPlain.Completed() {
			t.Fatalf("seed %d: incomplete run: %v / %v", seed, resCached.Err, resPlain.Err)
		}
		if got, want := len(resCached.Schedule), len(resPlain.Schedule); got != want {
			t.Fatalf("seed %d: schedules diverge: %d vs %d steps (cache must add no shared steps)", seed, got, want)
		}
		for i := range resCached.Schedule {
			if resCached.Schedule[i] != resPlain.Schedule[i] {
				t.Fatalf("seed %d: schedules diverge at step %d", seed, i)
			}
		}
		if got, want := resCached.T.Interpreted().String(), resPlain.T.Interpreted().String(); got != want {
			t.Fatalf("seed %d: cached and uncached histories diverge:\n--- cached ---\n%s\n--- uncached ---\n%s",
				seed, got, want)
		}
		if st := cachedObj.CacheStats(); st.Hits+st.Misses == 0 {
			t.Fatalf("seed %d: cache never consulted", seed)
		}
	}
}

// TestReplayCacheFallbackUnderAdversary checks the miss path: under heavily
// interleaved schedules some operations must observe non-covering stragglers
// and fall back to full replay, and the histories must stay linearizable.
func TestReplayCacheFallbackUnderAdversary(t *testing.T) {
	scripts := counterScripts(4, 5)
	var totalMisses int64
	for seed := int64(0); seed < 40; seed++ {
		var obj *Object
		res := sched.Run(cachedSimSystem(CounterType{}, scripts, true, &obj), sched.NewSeeded(seed), sched.Options{})
		if !res.Completed() {
			t.Fatalf("seed %d: incomplete: %v", seed, res.Err)
		}
		chk, err := lincheck.CheckTranscript(res.T, spec.Counter{})
		if err != nil {
			t.Fatal(err)
		}
		if !chk.Ok {
			t.Fatalf("seed %d: cached history not linearizable:\n%s", seed, res.T.Interpreted())
		}
		totalMisses += obj.CacheStats().Misses
	}
	if totalMisses == 0 {
		t.Error("no schedule exercised the fallback (miss) path; widen the adversary")
	}
}

// TestReplayCacheStrongPrefixTrees runs the strong-linearizability prefix
// tree check over cached-path histories: branch several adversarial
// continuations off shared prefixes and verify a prefix-preserving
// linearization order exists (the paper's strong-linearizability witness).
func TestReplayCacheStrongPrefixTrees(t *testing.T) {
	sys := cachedSimSystem(CounterType{}, counterScripts(2, 3), true, nil)
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
}

// TestReplayCacheSteadyStateHits checks the amortization claim: once warm,
// a sequential workload (any number of processes taking turns) never misses,
// because every new node's view covers every earlier anchor.
func TestReplayCacheSteadyStateHits(t *testing.T) {
	var alloc memory.NativeAllocator
	o := New(&alloc, CounterType{}, 4)
	const ops = 400
	for i := 0; i < ops; i++ {
		if _, err := o.Execute(i%4, "inc()"); err != nil {
			t.Fatal(err)
		}
	}
	st := o.CacheStats()
	if st.Misses != 0 {
		t.Errorf("sequential workload recorded %d misses, want 0", st.Misses)
	}
	if st.Hits < ops-4 {
		t.Errorf("hits = %d, want >= %d (every op after each process's first)", st.Hits, ops-4)
	}
	if got := o.GCStats(0).LiveNodes; got != ops {
		t.Errorf("LiveNodes = %d, want %d (cache must not drop history)", got, ops)
	}
	if got, err := o.Execute(0, "read()"); err != nil || got != strconv.Itoa(ops) {
		t.Errorf("read() = %q, %v; want %d", got, err, ops)
	}
}

// TestReplayCacheDisableEnable checks SetCaching round trips: anchors
// describe closed history prefixes, so a cache that sat disabled while
// operations executed resumes correctly.
func TestReplayCacheDisableEnable(t *testing.T) {
	var alloc1, alloc2 memory.NativeAllocator
	o := New(&alloc1, CounterType{}, 2)
	ref := New(&alloc2, CounterType{}, 2)
	ref.SetCaching(false)
	run := func(pid int, desc string) {
		t.Helper()
		got, err := o.Execute(pid, desc)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Execute(pid, desc)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s by p%d: got %q, want %q", desc, pid, got, want)
		}
	}
	for i := 0; i < 10; i++ {
		run(i%2, "inc()")
	}
	o.SetCaching(false)
	for i := 0; i < 10; i++ {
		run(i%2, "inc()")
	}
	o.SetCaching(true) // stale anchor: 10 ops behind
	for i := 0; i < 10; i++ {
		run(i%2, "inc()")
	}
	run(0, "read()")
}

// TestDeltaNodesCovering pins the covering rule at the unit level, for the
// extraction Execute runs and for the reference the differential tests hold
// it to: a node whose scanned view misses an anchored node forces ok=false.
func TestDeltaNodesCovering(t *testing.T) {
	// Two processes. Anchor: p0 up to index 1, p1 none.
	a := &node{pid: 0, index: 0, invocation: "inc()", preceding: []*node{nil, nil}}
	b := &node{pid: 0, index: 1, invocation: "inc()", preceding: []*node{a, nil}}
	anchor := []int{1, -1}
	sc := &scratch{n: 2}

	covering := &node{pid: 1, index: 0, invocation: "inc()", preceding: []*node{b, nil}}
	nodes, ok := deltaNodes(anchor, []*node{b, covering})
	if !ok || len(nodes) != 1 || nodes[0] != covering {
		t.Fatalf("reference, covering node: nodes=%v ok=%v, want exactly the new node", nodes, ok)
	}
	live, _, ok := sc.extract(anchor, []*node{b, covering})
	if !ok || live != 1 || len(sc.nodes) != 1 || sc.nodes[0] != covering {
		t.Fatalf("covering node: nodes=%v live=%d ok=%v, want exactly the new node", sc.nodes, live, ok)
	}
	sc.release()

	straggler := &node{pid: 1, index: 0, invocation: "inc()", preceding: []*node{a, nil}}
	blind := &node{pid: 1, index: 0, invocation: "inc()", preceding: []*node{nil, nil}}
	for name, nd := range map[string]*node{
		"straggler whose view misses anchored node b": straggler,
		"node with an empty view":                     blind,
	} {
		if _, ok := deltaNodes(anchor, []*node{b, nd}); ok {
			t.Fatalf("reference: %s must force a fallback", name)
		}
		live, refuser, ok := sc.extract(anchor, []*node{b, nd})
		if ok || live != 1 || len(sc.nodes) != 0 {
			t.Fatalf("%s must force a fallback and leave nothing behind: live=%d ok=%v nodes=%v", name, live, ok, sc.nodes)
		}
		if refuser != nd {
			t.Fatalf("%s: extraction names %v as the node that refused, want it", name, refuser)
		}
	}
}

// TestExtractRefusesBrokenChains pins the checked walk: a graph that is not
// per-process chains under monotone scans is refused, never walked short.
func TestExtractRefusesBrokenChains(t *testing.T) {
	none := []int{-1, -1}
	a0 := &node{pid: 0, index: 0, preceding: []*node{nil, nil}}
	b0 := &node{pid: 1, index: 0, preceding: []*node{a0, nil}}
	for name, view := range map[string][]*node{
		"own component skips an index": {
			&node{pid: 0, index: 2, preceding: []*node{a0, nil}}, nil},
		"own component is another process's node": {
			&node{pid: 0, index: 1, preceding: []*node{{pid: 1, index: 0, preceding: []*node{nil, nil}}, nil}}, nil},
		"a view ahead of the scan it is reachable from": {
			a0, &node{pid: 1, index: 1, preceding: []*node{{pid: 0, index: 1, preceding: []*node{a0, nil}}, b0}}},
		"a view of the wrong width": {
			&node{pid: 0, index: 1, preceding: []*node{a0}}, nil},
	} {
		sc := &scratch{n: 2}
		if _, refuser, ok := sc.extract(none, view); ok || refuser != nil {
			t.Errorf("%s: extraction accepted it or blamed a node's view (%v)", name, refuser)
		}
	}
	// The same shapes, well-formed, pass.
	a1 := &node{pid: 0, index: 1, preceding: []*node{a0, b0}}
	sc := &scratch{n: 2}
	if live, _, ok := sc.extract(none, []*node{a1, b0}); !ok || live != 3 {
		t.Errorf("well-formed graph refused: live=%d ok=%v", live, ok)
	}
}

// TestReplayCacheContended is the replay cache under real overlap, in the
// shape of the served workload: two goroutines as pids 0 and 1 over 64
// truncating objects. When the two meet on an object one of them misses, and
// the straggler it saw overlapped one of its own recent operations, so an
// earlier anchor of its own covers it: misses must occur, and all but a few
// must end short of the truncation root. Nothing may be lost on the way.
func TestReplayCacheContended(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs two goroutines running at once: -cpu 2 or more")
	}
	const objects, pids = 64, 2
	perPid := 100_000
	if testing.Short() {
		perPid = 25_000
	}
	var alloc memory.NativeAllocator
	objs := make([]*Object, objects)
	for i := range objs {
		objs[i] = New(&alloc, CounterType{}, pids)
		objs[i].SetGC(GCOptions{})
	}
	var counts [pids][objects]int
	var wg sync.WaitGroup
	errs := make(chan error, pids)
	for pid := 0; pid < pids; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(pid) + 1))
			for i := 0; i < perPid; i++ {
				k := rng.Intn(objects)
				if _, err := objs[k].Execute(pid, "inc()"); err != nil {
					errs <- err
					return
				}
				counts[pid][k]++
			}
		}(pid)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var st CacheStats
	for k, o := range objs {
		want := strconv.Itoa(counts[0][k] + counts[1][k])
		if got, err := o.Execute(0, "read()"); err != nil || got != want {
			t.Fatalf("object %d: read() = %q, %v; want %s", k, got, err, want)
		}
		if gc := o.GCStats(0); gc.CoverageFailures+gc.ReplayFailures != 0 {
			t.Fatalf("object %d: %+v", k, gc)
		}
		c := o.CacheStats()
		st.Hits, st.Misses, st.RootReplays = st.Hits+c.Hits, st.Misses+c.Misses, st.RootReplays+c.RootReplays
	}
	ops := int64(pids * perPid)
	t.Logf("%d operations: %+v", ops, st)
	if st.Misses == 0 {
		t.Error("two overlapping pids never missed: the workload exercises no fallback")
	}
	// A pid the kernel deschedules mid-operation is a straggler by a whole
	// time slice, which no kept anchor reaches: those root replays follow the
	// box's load, not the workload (0 on a quiet box, one per 3000-10000
	// operations next to a busy neighbour), so they get an allowance of their
	// own. Measured quiet: 10-20 root replays in 2500 misses.
	if stalls := ops / 1000; st.RootReplays > st.Misses/10+stalls {
		t.Errorf("%d of %d misses replayed from the truncation root, want at most a tenth (+%d for descheduled pids)",
			st.RootReplays, st.Misses, stalls)
	}
}

// TestCacheStatsString keeps fmt coverage honest for the exported struct.
func TestCacheStatsString(t *testing.T) {
	st := CacheStats{Hits: 2, Covered: 1, Misses: 1, RootReplays: 1, Refused: 1}
	if s := fmt.Sprintf("%+v", st); s != "{Hits:2 Covered:1 Misses:1 RootReplays:1 Refused:1}" {
		t.Errorf("unexpected CacheStats rendering %q", s)
	}
}

package universal

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"slmem/internal/memory"
)

// diffTypes are the built-in types with invocation mixes chosen so that
// dominance is the rule, not the exception: every mix has classes that
// overwrite one another both ways (ties broken by pid), one way, and not at
// all.
func diffTypes(n int) []struct {
	typ Type
	ops []string
} {
	return []struct {
		typ Type
		ops []string
	}{
		{CounterType{}, []string{"inc()", "read()"}},
		{SetType{}, []string{"add(a)", "add(b)", "contains(a)", "contains(b)"}},
		{AccumulatorType{}, []string{"addTo(2)", "addTo(-1)", "read()"}},
		{MaxRegType{}, []string{"maxWrite(3)", "maxWrite(7)", "maxWrite(7)", "maxRead()"}},
		{RegisterType{}, []string{"write(x)", "write(y)", "write(x)", "read()"}},
		{SnapshotType{N: n}, []string{"update(u)", "update(v)", "scan()"}},
	}
}

// synthGraph builds a precedence graph the way executions do, from a byte
// stream: byte b is a step of process b%n, which scans (copies the current
// tops and picks its invocation) if it is idle and publishes its node if it
// has scanned — so operations overlap up to n deep, own components are own
// previous nodes, and scans are monotone. It stops after maxNodes nodes.
func synthGraph(n int, ops []string, data []byte, maxNodes int) (all []*node) {
	type pendingOp struct {
		view []*node
		inv  string
	}
	tops := make([]*node, n)
	pending := make([]*pendingOp, n)
	index := make([]int, n)
	for _, b := range data {
		if len(all) == maxNodes {
			break
		}
		p := int(b) % n
		if pending[p] == nil {
			pending[p] = &pendingOp{view: append([]*node(nil), tops...), inv: ops[int(b)/n%len(ops)]}
			continue
		}
		nd := &node{invocation: pending[p].inv, pid: p, index: index[p], preceding: pending[p].view}
		index[p]++
		tops[p], pending[p] = nd, nil
		all = append(all, nd)
	}
	return all
}

// viewOf is what nd's process knows right after publishing nd: the view nd
// scanned plus nd itself — a legal scan result.
func viewOf(nd *node) []*node {
	view := append([]*node(nil), nd.preceding...)
	view[nd.pid] = nd
	return view
}

func indexes(view []*node) []int {
	out := make([]int, len(view))
	for q, nd := range view {
		out[q] = -1
		if nd != nil {
			out[q] = nd.index
		}
	}
	return out
}

// checkAgainstReference extracts and linearizes past floor from view with
// both implementations and requires the same verdict, the same extracted
// order and the same linearization, node for node.
func checkAgainstReference(t testing.TB, sc *scratch, typ Type, floor []int, view []*node) {
	t.Helper()
	wantNodes, wantOK := deltaNodes(floor, view)
	live, ok := sc.extract(floor, view)
	if ok != wantOK {
		t.Fatalf("%s floor %v view %v: extract ok = %v, reference %v", typ.Name(), floor, indexes(view), ok, wantOK)
	}
	if !ok {
		if len(sc.nodes) != 0 {
			t.Fatalf("refused extraction left %d nodes behind", len(sc.nodes))
		}
		return
	}
	defer sc.release()
	if live != len(wantNodes) || len(sc.nodes) != len(wantNodes) {
		t.Fatalf("%s floor %v view %v: extracted %d (live %d) nodes, reference %d",
			typ.Name(), floor, indexes(view), len(sc.nodes), live, len(wantNodes))
	}
	for i, nd := range sc.nodes {
		if nd != wantNodes[i] {
			t.Fatalf("%s floor %v view %v: extraction differs at %d: p%d#%d vs reference p%d#%d",
				typ.Name(), floor, indexes(view), i, nd.pid, nd.index, wantNodes[i].pid, wantNodes[i].index)
		}
	}
	want := refLinearize(typ, deltaGraph(floor, wantNodes))
	got := sc.linearize(typ)
	if len(got) != len(want) {
		t.Fatalf("%s floor %v view %v: linearized %d nodes, reference %d", typ.Name(), floor, indexes(view), len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s floor %v view %v: linearization differs at %d of %d: p%d#%d %s vs reference p%d#%d %s",
				typ.Name(), floor, indexes(view), i, len(got),
				got[i].pid, got[i].index, got[i].invocation, want[i].pid, want[i].index, want[i].invocation)
		}
	}
}

// sampleAgainstReference draws views and floors over the graph `all` and
// checks each: the whole graph once, then views of random nodes against no
// floor, against the knowledge of a random node below the view (covered or
// not, as the execution had it), and against an arbitrary index vector.
func sampleAgainstReference(t testing.TB, sc *scratch, typ Type, n int, all []*node, rng *rand.Rand, samples int) {
	t.Helper()
	if len(all) == 0 {
		return
	}
	none := make([]int, n)
	for q := range none {
		none[q] = -1
	}
	tops := make([]*node, n)
	for _, nd := range all {
		if tops[nd.pid] == nil || nd.index > tops[nd.pid].index {
			tops[nd.pid] = nd
		}
	}
	checkAgainstReference(t, sc, typ, none, tops)
	for i := 0; i < samples; i++ {
		view := viewOf(all[rng.Intn(len(all))])
		top := indexes(view)
		var floor []int
		switch i % 4 {
		case 0:
			floor = none
		case 1, 2:
			below := all[rng.Intn(len(all))]
			if below.index > top[below.pid] {
				continue // not below this view
			}
			floor = indexes(viewOf(below))
		default:
			floor = make([]int, n)
			for q := range floor {
				floor[q] = rng.Intn(top[q]+2) - 1
			}
		}
		checkAgainstReference(t, sc, typ, floor, view)
	}
}

// recordGraph runs a really-concurrent execution — n goroutines, each
// executing perProc random invocations with a yield between them — on an
// object without truncation, and returns every node it published.
func recordGraph(t *testing.T, typ Type, ops []string, n, perProc int, seed int64) []*node {
	t.Helper()
	var alloc memory.NativeAllocator
	o := New(&alloc, typ, n)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*31 + int64(pid)))
			for i := 0; i < perProc; i++ {
				if _, err := o.Execute(pid, ops[rng.Intn(len(ops))]); err != nil {
					errs <- err
					return
				}
				runtime.Gosched()
			}
		}(p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	all, ok := deltaNodes(nil, o.root.View(0))
	if !ok || len(all) != n*perProc {
		t.Fatalf("recorded %d of %d nodes (ok=%v)", len(all), n*perProc, ok)
	}
	return all
}

// TestLinearizeMatchesReference is the differential that keeps the
// integer-indexed extraction and linearization honest: over graphs recorded
// from really-concurrent runs and over synthetic ones with up to 96 nodes and
// operations overlapping n deep, for every built-in type, it must agree with
// the map-based pairwise reference node for node.
func TestLinearizeMatchesReference(t *testing.T) {
	samples, rounds := 12, 5
	if testing.Short() {
		samples, rounds = 8, 2
	}
	for _, n := range []int{2, 4, 8} {
		for _, tc := range diffTypes(n) {
			n, tc := n, tc
			t.Run(fmt.Sprintf("%s/n=%d", tc.typ.Name(), n), func(t *testing.T) {
				// One scratch per type for the whole subtest, so the class
				// table and every reused buffer carry over between calls.
				sc := &scratch{n: n}
				rng := rand.New(rand.NewSource(int64(n)))
				recorded := recordGraph(t, tc.typ, tc.ops, n, 96/n, int64(n))
				sampleAgainstReference(t, sc, tc.typ, n, recorded, rng, samples)
				for round := 0; round < rounds; round++ {
					data := make([]byte, 400)
					rng.Read(data)
					if round%3 == 0 { // long stretches of one process: chains, few overlaps
						for i := range data {
							data[i] = data[i/16*16]
						}
					}
					all := synthGraph(n, tc.ops, data, 96)
					sampleAgainstReference(t, sc, tc.typ, n, all, rng, samples)
				}
			})
		}
	}
}

// FuzzLinearizeMatchesReference drives the same differential from fuzzed
// bytes: the first two choose the type and n, the rest are the steps of
// synthGraph; views and floors are drawn from a generator seeded by the
// input, so a failure replays from the input alone.
func FuzzLinearizeMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 1, 2, 3, 2, 3, 0, 1})
	f.Add([]byte{4, 1, 0, 1, 2, 3, 0, 1, 2, 3, 3, 2, 1, 0, 7, 6, 5, 4, 9, 9, 8, 8})
	f.Add([]byte{1, 2, 0, 8, 16, 24, 1, 9, 17, 25, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7})
	f.Add([]byte("\x05\x00update then scan, update then scan, and again"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := []int{2, 3, 4, 8}[int(data[1])%4]
		types := diffTypes(n)
		tc := types[int(data[0])%len(types)]
		all := synthGraph(n, tc.ops, data[2:], 96)
		h := fnv.New64a()
		h.Write(data)
		rng := rand.New(rand.NewSource(int64(h.Sum64())))
		sampleAgainstReference(t, &scratch{n: n}, tc.typ, n, all, rng, 8)
	})
}

// countingType wraps a Type and counts the questions the construction asks
// it about pairs of invocations.
type countingType struct {
	Type
	calls *int
}

func (c countingType) Overwrites(a string, pa int, b string, pb int) bool {
	*c.calls++
	return c.Type.Overwrites(a, pa, b, pb)
}

func (c countingType) Commutes(a string, pa int, b string, pb int) bool {
	*c.calls++
	return c.Type.Commutes(a, pa, b, pb)
}

// TestDominanceAskedPerClass is the regression test for the stall, counting
// instead of timing: with 512 live nodes on a 2-pid object, a cache miss (a
// straggler that does not cover the anchor sends Execute back to the
// truncation root) and a collector pass each extract and linearize all of
// them, and together they may ask the type about pairs of classes only —
// 2 classes, at most 16 questions — where the pairwise loop asked about
// every pair of nodes, half a million times.
func TestDominanceAskedPerClass(t *testing.T) {
	for _, tc := range []struct {
		name    string
		ops     []string
		classes int
	}{
		{"inc", []string{"inc()"}, 2},
		{"inc+read", []string{"inc()", "inc()", "inc()", "read()"}, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			calls := 0
			var alloc memory.NativeAllocator
			o := New(&alloc, countingType{CounterType{}, &calls}, 2)
			o.SetGC(GCOptions{Window: 1 << 30}) // collect only when driven by hand
			const live = 512
			for i := 0; i < live; i++ {
				if _, err := o.Execute(i%2, tc.ops[i/2%len(tc.ops)]); err != nil {
					t.Fatal(err)
				}
			}
			if whole := calls; whole > 3*tc.classes*tc.classes {
				t.Errorf("%d operations asked the type %d questions, want at most %d (classes² per scratch)",
					live, whole, 3*tc.classes*tc.classes)
			}

			// The straggler: p1 scanned before p0's latest operation and
			// publishes after it, so it does not cover p0's anchor.
			stale := o.root.View(1)
			if _, err := o.Execute(0, "inc()"); err != nil {
				t.Fatal(err)
			}
			o.root.Update(1, &node{invocation: "inc()", pid: 1, index: top(stale[1]) + 1, preceding: stale})

			calls = 0
			before := o.CacheStats().Misses
			if _, err := o.Execute(0, "inc()"); err != nil {
				t.Fatal(err)
			}
			if o.CacheStats().Misses != before+1 {
				t.Fatal("the straggler did not force a cache miss")
			}
			// p1 catches up so both watermarks let the collector advance.
			if _, err := o.Execute(1, "inc()"); err != nil {
				t.Fatal(err)
			}
			view := o.root.View(0)
			o.gc.mu.Lock()
			o.collect(view)
			o.gc.mu.Unlock()
			st := o.GCStats(0)
			if st.Truncations != 1 || st.CoverageFailures != 0 || st.ReplayFailures != 0 {
				t.Fatalf("collector pass did not truncate cleanly: %+v", st)
			}
			if calls > 4*tc.classes*tc.classes {
				t.Errorf("one miss and one collector pass over %d nodes asked the type %d questions, want at most %d",
					live, calls, 4*tc.classes*tc.classes)
			}
			got, err := o.Execute(0, "read()")
			if err != nil {
				t.Fatal(err)
			}
			incs := 0
			for i := 0; i < live; i++ {
				if tc.ops[i/2%len(tc.ops)] == "inc()" {
					incs++
				}
			}
			if got != fmt.Sprint(incs+4) {
				t.Errorf("read() = %s after %d increments", got, incs+4)
			}
		})
	}
}

package universal

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"slmem/internal/memory"
	"slmem/internal/spec"
)

// prefilledSet is SetType starting from a set that already holds elems.
type prefilledSet struct {
	SetType
	elems string
}

func (s prefilledSet) Spec() spec.Spec { return prefilledSetSpec{spec.Set{}, s.elems} }

type prefilledSetSpec struct {
	spec.Set
	elems string
}

func (s prefilledSetSpec) Initial() string { return s.elems }

// TestHeapPerObject measures what one object keeps on the heap after 10 000
// operations by pids 0 and 1 alternating, with GC on at the default window:
// the HeapAlloc difference across building and driving it, each side read
// after runtime.GC. "growing" adds a new element to a 1000-element set every
// operation, so every state is a distinct string of 5-11 KB; "read-mostly"
// alternates contains and add of elements already there, whose states share
// one string. At n = 16 the 14 pids that never begin are left out of every
// collector pass, so the graph truncates as at n = 2 and what grows is the
// width of each node's view and the per-pid state. Each bound is about twice
// what the row measures (see docs/ARCHITECTURE.md); keeping every node's state
// instead of the kept nodes' takes the growing set past 50 MB at n = 2, and
// letting the idle pids pin the graph takes the n = 16 counter and
// read-mostly rows past their bounds.
func TestHeapPerObject(t *testing.T) {
	if testing.Short() {
		t.Skip("60 000 operations, some over 10 KB states")
	}
	const ops = 10_000
	elems := make([]string, 1000)
	for i := range elems {
		elems[i] = fmt.Sprintf("%04d", i)
	}
	set := prefilledSet{elems: strings.Join(elems, ",")}
	rows := []struct {
		name  string
		typ   Type
		op    func(i int) string
		bound map[int]uint64 // bytes, by n
	}{
		{"counter", CounterType{}, func(int) string { return "inc()" },
			map[int]uint64{2: 100 << 10, 16: 360 << 10}},
		{"set-1000-read-mostly", set, func(i int) string {
			return []string{"contains", "add"}[i/2%2] + "(" + elems[i%len(elems)] + ")"
		}, map[int]uint64{2: 120 << 10, 16: 380 << 10}},
		{"set-1000-growing", set, func(i int) string { return fmt.Sprintf("add(g%05d)", i) },
			map[int]uint64{2: 6 << 20, 16: 6 << 20}},
	}
	for _, row := range rows {
		for _, n := range []int{2, 16} {
			t.Run(fmt.Sprintf("%s/n=%d", row.name, n), func(t *testing.T) {
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				o := New(&memory.NativeAllocator{}, row.typ, n)
				o.SetGC(GCOptions{})
				for i := 0; i < ops; i++ {
					mustExecute(t, o, i%2, row.op(i))
				}
				runtime.GC()
				runtime.ReadMemStats(&after)
				heap := after.HeapAlloc - min(after.HeapAlloc, before.HeapAlloc)
				live := o.GCStats(0).LiveNodes
				t.Logf("%s n=%d: %d live nodes, %.1f KB", row.name, n, live, float64(heap)/1024)
				if heap > row.bound[n] {
					t.Errorf("%s n=%d holds %.1f KB over %d live nodes, want at most %.1f KB",
						row.name, n, float64(heap)/1024, live, float64(row.bound[n])/1024)
				}
				runtime.KeepAlive(o)
			})
		}
	}
}

package universal

import (
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"slmem/internal/memory"
	"slmem/internal/sched"
	"slmem/internal/spec"
	"slmem/internal/trace"
)

// applyCountingType is a Type whose specification counts every Apply: what an
// object replays is what it applies beyond one Apply per operation.
type applyCountingType struct {
	Type
	applies *int
}

func (c applyCountingType) Spec() spec.Spec { return applyCountingSpec{c.Type.Spec(), c.applies} }

type applyCountingSpec struct {
	spec.Spec
	applies *int
}

func (c applyCountingSpec) Apply(state string, pid int, desc string) (string, string, error) {
	*c.applies++
	return c.Spec.Apply(state, pid, desc)
}

// setState replaces the state a published node holds: a test's poison.
func (e *node) setState(s string) {
	e.stateLen = len(s)
	atomic.StorePointer(&e.state, stateData(s))
}

// TestCoveringNodeReplaysNothing: in a sequential alternation every operation
// after the first scans a view whose newest node scanned the rest of it, so it
// takes that node's state and applies only its own invocation — one Apply per
// operation, no extraction — and counts as a covered hit. Responses are those
// of an uncached twin that replays everything.
func TestCoveringNodeReplaysNothing(t *testing.T) {
	const n, ops = 3, 120
	applies := 0
	var alloc1, alloc2 memory.NativeAllocator
	o := New(&alloc1, applyCountingType{CounterType{}, &applies}, n)
	twin := New(&alloc2, CounterType{}, n)
	twin.SetCaching(false)
	for i := 0; i < ops; i++ {
		desc := "inc()"
		if i%5 == 4 {
			desc = "read()"
		}
		got, err := o.Execute(i%n, desc)
		if err != nil {
			t.Fatal(err)
		}
		want, err := twin.Execute(i%n, desc)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("op %d %s by p%d: %q, uncached twin %q", i, desc, i%n, got, want)
		}
		if applies != i+1 {
			t.Fatalf("after %d operations the type applied %d invocations, want one each", i+1, applies)
		}
		if st := o.CacheStats(); st.Covered != int64(i) || st.Hits != st.Covered || st.Misses != 0 {
			t.Fatalf("after %d operations: %+v, want every one after the first covered", i+1, st)
		}
	}
}

// until grants pid steps until the last event of the run satisfies done.
func until(pid int, done func(trace.Event) bool) sched.Adversary {
	start := -1
	return sched.AdversaryFunc(func(_ []int, tr *trace.Transcript) int {
		if start >= 0 && len(tr.Events) > start && done(tr.Events[len(tr.Events)-1]) {
			return -1
		}
		if start < 0 {
			start = len(tr.Events)
		}
		return pid
	})
}

// TestCoveringNodeRefusedWhenOverlapping: after each process's first
// operation, p0 and p1 both scan before either updates — each stops just
// before its first write — and then both finish. Neither new node scanned the
// other, so the next scan finds no node that covers the rest of its view: p0's
// read falls back to its anchors (a miss that stops at an earlier anchor), and
// every response equals that of an uncached twin run on the same schedule.
func TestCoveringNodeRefusedWhenOverlapping(t *testing.T) {
	scripts := [][]string{{"inc()", "inc()", "read()"}, {"inc()", "inc()", "read()"}}
	// An operation's update begins with its write to S; its scan may write
	// R's announcement before that.
	updates := func(e trace.Event) bool { return e.Kind == trace.KindWrite && strings.HasPrefix(e.Reg, "snap.") }
	returned := func(e trace.Event) bool { return e.Kind == trace.KindReturn }
	// The schedule up to p0's and then p1's first write to S in their second
	// operations, without those writes.
	first := sched.Run(cachedSimSystem(CounterType{}, scripts, true, nil),
		sched.NewChain(until(0, returned), until(1, returned), until(0, updates)), sched.Options{})
	p0Scanned := first.Schedule[:len(first.Schedule)-1]
	second := sched.Run(cachedSimSystem(CounterType{}, scripts, true, nil),
		sched.NewChain(sched.NewScript(p0Scanned...), until(1, updates)), sched.Options{})
	bothScanned := second.Schedule[:len(second.Schedule)-1]

	var cached *Object
	run := func(caching bool, obj **Object) *sched.Result {
		res := sched.Run(cachedSimSystem(CounterType{}, scripts, caching, obj),
			sched.NewChain(sched.NewScript(bothScanned...), until(0, returned), until(1, returned), sched.PriorityAdversary(0, 1)),
			sched.Options{})
		if !res.Completed() {
			t.Fatalf("caching %v: incomplete: %v", caching, res.Err)
		}
		return res
	}
	got, want := run(true, &cached).T.Interpreted().String(), run(false, nil).T.Interpreted().String()
	if got != want {
		t.Fatalf("cached and uncached histories diverge:\n--- cached ---\n%s\n--- uncached ---\n%s", got, want)
	}
	for _, op := range run(true, nil).T.Interpreted().Ops {
		if op.Desc == "read()" && op.Res != "4" {
			t.Errorf("p%d read() = %s, want 4", op.PID, op.Res)
		}
	}
	// p1's first operation, both second ones and p1's read are covered; p0's
	// read is the miss, refused by its newest node and stopping at the one
	// before.
	if st := cached.CacheStats(); st != (CacheStats{Hits: 4, Covered: 4, Misses: 1, Refused: 1}) {
		t.Fatalf("cache outcomes %+v, want 4 covered hits and 1 miss that refused one node and stopped short of the root", st)
	}
}

// TestCoveringNodeSkipsNodesAtRoot: a view node at or below the truncation
// root the operation loaded is never a covering candidate, and its view is not
// read — the collector may sever it. Here the root is moved past both latest
// nodes by hand: p0's latest node has its view severed, and p1's, which
// scanned p0's exactly, carries a poisoned state. The read must come from the
// root's state.
func TestCoveringNodeSkipsNodesAtRoot(t *testing.T) {
	const ops = 10
	var alloc memory.NativeAllocator
	o := New(&alloc, CounterType{}, 2)
	o.SetGC(GCOptions{Window: 1 << 30}) // collect only when driven by hand
	for i := 0; i < ops; i++ {
		mustExecute(t, o, i%2, "inc()")
	}
	view := o.root.View(0)
	if state, ok := covered(o.trunc.Load(), view); !ok || state != strconv.Itoa(ops) {
		t.Fatalf("p1's latest node does not cover p0's (%q, %v); the case needs it to", state, ok)
	}
	o.trunc.Store(&anchor{prefix: []int{top(view[0]), top(view[1])}, state: strconv.Itoa(ops), version: 1})
	view[0].preceding = nil
	view[1].setState("POISON")
	if state, ok := covered(o.trunc.Load(), view); ok {
		t.Fatalf("a node at the root covered the view, with state %q", state)
	}
	if got := mustExecute(t, o, 0, "read()"); got != strconv.Itoa(ops) {
		t.Fatalf("read() = %q, want %d from the root", got, ops)
	}
	if st := o.CacheStats(); st.Covered != ops-1 {
		t.Fatalf("%+v: the read counted as covered", st)
	}
}

// TestCollectReuseExecuteReads pins the register reads of a warm Execute at
// n = 2 with the pids alternating: the root View and the root Update each
// scan S, and S compares the registers against the pid's last collect instead
// of opening with one of its own. The View's scan finds the other pid's new
// node and reads a second collect; the Update's scan after the pid's own
// Update is one collect. 13 reads (15 when each of S's scans opened with a
// collect) and 3 writes.
func TestCollectReuseExecuteReads(t *testing.T) {
	const n, warm, ops = 2, 20, 100
	steps := memory.NewStepCounter(n)
	o := New(&memory.CountingAllocator{Inner: &memory.NativeAllocator{}, Counter: steps}, CounterType{}, n)
	for i := 0; i < warm; i++ {
		mustExecute(t, o, i%n, "inc()")
	}
	for i := 0; i < ops; i++ {
		steps.Reset()
		mustExecute(t, o, i%n, "inc()")
		if r, w := steps.Reads(i%n), steps.Writes(i%n); r != 13 || w != 3 {
			t.Fatalf("Execute %d read %d and wrote %d registers, want 13 and 3", warm+i, r, w)
		}
	}
}

// TestCoveringNodeStateHeldByKeptNodesOnly: a node holds the state it reached
// only while it is one of its process's last anchorRing+1 nodes — the process
// drops it when it publishes the node that evicts it from its slot — so
// however long the history, the graph pins at most anchorRing+1 states per
// process. A node whose state is gone covers nothing: an operation that
// scanned it goes to its floors.
func TestCoveringNodeStateHeldByKeptNodesOnly(t *testing.T) {
	const n, ops = 3, 60
	var alloc memory.NativeAllocator
	o := New(&alloc, CounterType{}, n)
	for i := 0; i < ops; i++ {
		mustExecute(t, o, i%n, "inc()")
	}
	view := o.root.View(0)
	for q, nd := range view {
		age := 0
		for ; nd != nil; nd, age = nd.preceding[q], age+1 {
			state, ok := nd.reachedState()
			if kept := age <= anchorRing; ok != kept {
				t.Fatalf("p%d's node %d, %d behind its newest: holds a state %v (%q), want %v", q, nd.index, age, ok, state, kept)
			}
		}
		if age != ops/n {
			t.Fatalf("p%d's chain has %d nodes, want %d", q, age, ops/n)
		}
	}
	// The newest node, p2's, covers the view; with its state gone the read
	// replays from p0's newest node, and answers the same.
	atomic.StorePointer(&view[2].state, nil)
	before := o.CacheStats()
	if got := mustExecute(t, o, 0, "read()"); got != strconv.Itoa(ops) {
		t.Fatalf("read() = %q, want %d", got, ops)
	}
	if st := o.CacheStats(); st.Hits != before.Hits+1 || st.Covered != before.Covered {
		t.Fatalf("a node without its state covered the view: %+v -> %+v", before, st)
	}
}

// TestCoveringNodeEmptyState: a node whose state is the empty string holds it
// like any other — an empty string's data pointer may be nil, the marker of a
// dropped state — so in a sequential alternation every operation after the
// first is covered, as it is for the same type with a non-empty state.
func TestCoveringNodeEmptyState(t *testing.T) {
	const ops = 100
	for _, state := range []string{"", "s"} {
		typ := FuncType{
			TypeName: "constant",
			Sequential: FuncSpec{SpecName: "constant", InitialState: state,
				ApplyFn: func(string, int, string) (string, string, error) { return state, "ok", nil }},
			CommutesFn: func(string, int, string, int) bool { return true },
		}
		var alloc memory.NativeAllocator
		o := New(&alloc, typ, 2)
		for i := 0; i < ops; i++ {
			mustExecute(t, o, i%2, "nop()")
		}
		if st := o.CacheStats(); st.Covered != ops-1 || st.Hits != st.Covered || st.Misses != 0 {
			t.Errorf("state %q: %+v, want every operation after the first covered", state, st)
		}
	}
}

package registry

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"slmem/internal/kind"
)

func TestRegistryLazyCreateAndIdentity(t *testing.T) {
	r := New(Options{Procs: 4})
	a := r.Counter("clicks")
	b := r.Counter("clicks")
	if a != b {
		t.Fatal("same name resolved to two counters")
	}
	if c := r.Counter("other"); c == a {
		t.Fatal("different names resolved to one counter")
	}
	st := r.Stats()
	if st.Objects["counter"] != 2 {
		t.Fatalf("created %d counters, want 2", st.Objects["counter"])
	}
}

func TestRegistryConcurrentFirstUseAgrees(t *testing.T) {
	r := New(Options{Procs: 4})
	const goroutines = 32
	counters := make(chan any, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			counters <- r.Counter("hot")
		}()
	}
	wg.Wait()
	close(counters)
	first := <-counters
	for c := range counters {
		if c != first {
			t.Fatal("concurrent first use created distinct objects")
		}
	}
	if n := r.Stats().Objects["counter"]; n != 1 {
		t.Fatalf("created %d counters, want 1", n)
	}
}

func TestRegistryKindsShareOnePool(t *testing.T) {
	r := New(Options{Procs: 3})
	ctx := context.Background()

	if err := r.Counter("c").Inc(ctx); err != nil {
		t.Fatal(err)
	}
	if err := r.MaxRegister("m").MaxWrite(ctx, 9); err != nil {
		t.Fatal(err)
	}
	if err := r.Snapshot("s").Update(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	o, err := r.Object("bag", "set")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Execute(ctx, "add(1)"); err != nil {
		t.Fatal(err)
	}

	st := r.Stats()
	if st.PIDsInUse != 0 {
		t.Fatalf("pids in use after quiesce: %d", st.PIDsInUse)
	}
	if st.Pool.Acquires < 4 {
		t.Fatalf("pool acquires = %d, want >= 4 (one per op)", st.Pool.Acquires)
	}
	view, err := r.Snapshot("s").Scan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(view) != 3 {
		t.Fatalf("snapshot has %d components, want Procs=3", len(view))
	}
}

func TestRegistryObjectTypeMismatch(t *testing.T) {
	r := New(Options{Procs: 2})
	if _, err := r.Object("x", "set"); err != nil {
		t.Fatal(err)
	}
	_, err := r.Object("x", "accumulator")
	if !kind.IsConflict(err) {
		t.Fatalf("type mismatch on existing object: err = %v, want a conflict", err)
	}
	if msg := err.Error(); !strings.Contains(msg, `"set"`) || !strings.Contains(msg, `"accumulator"`) {
		t.Errorf("conflict %q does not name both types", msg)
	}
	if _, err := r.Object("y", "no-such-type"); err == nil {
		t.Fatal("unknown type not rejected")
	}
}

func TestRegistryNames(t *testing.T) {
	r := New(Options{Procs: 2})
	for i := 0; i < 5; i++ {
		r.Counter(fmt.Sprintf("c%d", i))
	}
	r.MaxRegister("m0")
	names := r.Names(KindCounter)
	if len(names) != 5 {
		t.Fatalf("Names(counter) = %v, want 5 entries", names)
	}
	for i, name := range names {
		if want := fmt.Sprintf("c%d", i); name != want {
			t.Fatalf("names not sorted: %v", names)
		}
	}
	if got := r.Names(KindMaxRegister); len(got) != 1 || got[0] != "m0" {
		t.Fatalf("Names(maxreg) = %v", got)
	}

	// One name under two kinds is two objects, each counted and listed under
	// its own kind only.
	c, _, err := r.Get(KindCounter, "shared", kind.Request{})
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := r.Get(KindMaxRegister, "shared", kind.Request{})
	if err != nil {
		t.Fatal(err)
	}
	if c == m {
		t.Fatal("counter/shared and maxreg/shared are one instance")
	}
	ctx := context.Background()
	if err := r.Counter("shared").Inc(ctx); err != nil {
		t.Fatal(err)
	}
	if got, err := r.MaxRegister("shared").MaxRead(ctx); err != nil || got != 0 {
		t.Fatalf("maxreg/shared reads %d, %v after counter/shared inc, want 0", got, err)
	}
	if got := r.Names(KindCounter); !slices.Equal(got, []string{"c0", "c1", "c2", "c3", "c4", "shared"}) {
		t.Fatalf("Names(counter) = %v", got)
	}
	if got := r.Names(KindMaxRegister); !slices.Equal(got, []string{"m0", "shared"}) {
		t.Fatalf("Names(maxreg) = %v", got)
	}
	if got := r.Names(KindSnapshot); len(got) != 0 {
		t.Fatalf("Names(snapshot) = %v, want none", got)
	}
	objects := r.Stats().Objects
	if objects[string(KindCounter)] != 6 || objects[string(KindMaxRegister)] != 2 || objects[string(KindSnapshot)] != 0 {
		t.Fatalf("Stats().Objects = %v, want counter 6, maxreg 2, snapshot 0", objects)
	}
}

func TestRegistryConcurrentMixedTraffic(t *testing.T) {
	r := New(Options{Procs: 4})
	ctx := context.Background()
	goroutines, ops := 16, 30
	if testing.Short() {
		goroutines, ops = 8, 10
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				name := fmt.Sprintf("k%d", (g+i)%3)
				var err error
				switch (g + i) % 3 {
				case 0:
					err = r.Counter(name).Inc(ctx)
				case 1:
					err = r.Snapshot(name).Update(ctx, name)
				default:
					_, err = r.Counter(name).Read(ctx)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := r.Stats(); st.PIDsInUse != 0 {
		t.Fatalf("pids in use after quiesce: %d", st.PIDsInUse)
	}
}

// TestRegistryNamesConcurrentCreation creates over a thousand objects of
// three kinds from many goroutines at once, every name by two of them, and
// wants each kind's listing sorted, complete and free of duplicates.
func TestRegistryNamesConcurrentCreation(t *testing.T) {
	const perKind, goroutines = 400, 8
	kinds := []Kind{KindCounter, KindMaxRegister, KindSnapshot}
	r := New(Options{Procs: 2})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Goroutines g and g+goroutines/2 walk the same names.
			for i := g % (goroutines / 2); i < perKind; i += goroutines / 2 {
				for _, k := range kinds {
					if _, _, err := r.Get(k, fmt.Sprintf("n%04d", i), kind.Request{}); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	want := make([]string, perKind)
	for i := range want {
		want[i] = fmt.Sprintf("n%04d", i)
	}
	for _, k := range kinds {
		// want is sorted and duplicate-free, so equality checks all three.
		if names := r.Names(k); !slices.Equal(names, want) {
			t.Errorf("Names(%s) has %d entries, want the %d created, sorted, each once", k, len(names), perKind)
		}
		if got := r.Stats().Objects[string(k)]; got != perKind {
			t.Errorf("created %d %ss, want %d", got, k, perKind)
		}
	}
	if got := r.Names(KindObject); len(got) != 0 {
		t.Errorf("Names(object) = %v, want none", got)
	}
}

// runOp is what the server does for one operation: resolve the instance,
// compile the request, and run it under a pid lease from the instance's pool.
func runOp(ctx context.Context, r *Registry, k Kind, name string, req kind.Request) (kind.Result, error) {
	inst, pool, err := r.Get(k, name, req)
	if err != nil {
		return kind.Result{}, err
	}
	c, err := inst.Compile(req)
	if err != nil {
		return kind.Result{}, err
	}
	var out kind.Result
	err = pool.With(ctx, func(pid int) error {
		var runErr error
		out, runErr = c.Run(pid)
		return runErr
	})
	return out, err
}

// TestScanResultViewIsImmutable pins the contract of kind.Result.View for
// the snapshot kind: a served view is the one the object's register R holds,
// shared and never written again. Two updaters hammer one snapshot through
// the registry while readers keep every 100th view beside a private copy
// taken on receipt; whatever was published since, each kept view must still
// equal its copy. The race detector watches for a write through any of them.
func TestScanResultViewIsImmutable(t *testing.T) {
	const procs, updaters, readers, updates = 4, 2, 2, 10_000
	r := New(Options{Procs: procs})
	ctx := context.Background()
	scan := kind.Request{Op: "scan"}

	var done atomic.Bool
	var uwg, rwg, started sync.WaitGroup
	// Updaters wait until every reader has served a scan: on one core they
	// could otherwise finish before a reader is first scheduled.
	started.Add(readers)
	for u := 0; u < updaters; u++ {
		uwg.Add(1)
		go func() {
			defer uwg.Done()
			started.Wait()
			for i := 0; i < updates; i++ {
				req := kind.Request{Op: "update", Value: fmt.Sprintf("u%d-%d", u, i)}
				if _, err := runOp(ctx, r, KindSnapshot, "board", req); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	type kept struct{ view, copied []string }
	keep := make([][]kept, readers)
	for g := 0; g < readers; g++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for i := 0; !done.Load(); i++ {
				res, err := runOp(ctx, r, KindSnapshot, "board", scan)
				if i == 0 {
					started.Done()
				}
				if err != nil {
					t.Error(err)
					return
				}
				if len(res.View) != procs {
					t.Errorf("view has %d components, want Procs = %d", len(res.View), procs)
					return
				}
				if i%100 == 0 {
					keep[g] = append(keep[g], kept{res.View, slices.Clone(res.View)})
				}
			}
		}()
	}
	uwg.Wait()
	done.Store(true)
	rwg.Wait()

	for g := range keep {
		if len(keep[g]) == 0 {
			t.Fatalf("reader %d kept no view", g)
		}
		for _, k := range keep[g] {
			if len(k.view) != procs || !slices.Equal(k.view, k.copied) {
				t.Fatalf("a kept view changed after it was served: %q, was %q", k.view, k.copied)
			}
		}
	}
	a, err := runOp(ctx, r, KindSnapshot, "board", scan)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runOp(ctx, r, KindSnapshot, "board", scan)
	if err != nil {
		t.Fatal(err)
	}
	if &a.View[0] != &b.View[0] {
		t.Error("two scans with no update between them returned different backing arrays: a scan copies")
	}
}

// TestWarmScanOpDoesNotAllocate pins the whole in-process path of a served
// scan — Get, Compile, lease, Run — at no allocation: the lookup builds no
// key, the compiled scan is cached, the lease is a CAS, and the result is
// the view R holds rather than a copy of it.
func TestWarmScanOpDoesNotAllocate(t *testing.T) {
	r := New(Options{Procs: 16})
	ctx := context.Background()
	if _, err := runOp(ctx, r, KindSnapshot, "warm", kind.Request{Op: "update", Value: "x"}); err != nil {
		t.Fatal(err)
	}
	scan := kind.Request{Op: "scan"}
	allocs := testing.AllocsPerRun(200, func() {
		res, err := runOp(ctx, r, KindSnapshot, "warm", scan)
		if err != nil || len(res.View) != 16 {
			t.Fatalf("scan = %v, %v", res.View, err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm scan op = %.2f allocs/op, want 0", allocs)
	}
}

// TestWarmGetDoesNotAllocate pins the lookup every single-operation request
// and every batch entry pays: the kind's table is keyed by the kind and its
// objects by the name, so resolving an existing object builds no key string.
func TestWarmGetDoesNotAllocate(t *testing.T) {
	r := New(Options{Procs: 4})
	if _, _, err := r.Get(KindCounter, "warm", kind.Request{}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := r.Get(KindCounter, "warm", kind.Request{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm Get = %.2f allocs/op, want 0", allocs)
	}
}

// BenchmarkRegistryGet is the warm lookup of eight snapshots from every P at
// once. Read it at -cpu 1,2,4: a lookup that writes nothing shared costs no
// more per op as cores are added, one that counts its readers in a lock word
// does — which a single-core reading cannot show.
func BenchmarkRegistryGet(b *testing.B) {
	r := New(Options{Procs: 16})
	names := make([]string, 8)
	for i := range names {
		names[i] = fmt.Sprintf("snap%d", i)
		r.Snapshot(names[i])
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			if _, _, err := r.Get(KindSnapshot, names[i%len(names)], kind.Request{}); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

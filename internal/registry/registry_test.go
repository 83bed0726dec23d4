package registry

import (
	"context"
	"fmt"
	"strings"
	"sync"
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
	r := New(Options{Procs: 4, Shards: 2})
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
	if _, err := r.Object("x", "accumulator"); err == nil {
		t.Fatal("type mismatch on existing object not rejected")
	} else if !strings.Contains(err.Error(), "already exists") {
		t.Fatalf("unexpected error: %v", err)
	}
	if _, err := r.Object("y", "no-such-type"); err == nil {
		t.Fatal("unknown type not rejected")
	}
}

func TestRegistryNames(t *testing.T) {
	r := New(Options{Procs: 2, Shards: 4})
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
}

func TestRegistryConcurrentMixedTraffic(t *testing.T) {
	r := New(Options{Procs: 4, Shards: 4})
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

// TestWarmGetDoesNotAllocate pins the lookup every single-operation request
// and every first touch in a batch pays: the shard maps are keyed by the
// (kind, name) pair, so resolving an existing object builds no key string.
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

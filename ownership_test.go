package slmem_test

import (
	"context"
	"slices"
	"testing"

	"slmem"
	"slmem/internal/kind"
	"slmem/internal/registry"
)

// TestReturnedViewsBelongToTheCaller: the object copies a view once, where
// it hands it out, so whatever a caller does to the slice it got — from the
// fixed-pid Scan, the pooled Scan, or a kind driver's Result.View — no later
// scan by anyone sees it.
func TestReturnedViewsBelongToTheCaller(t *testing.T) {
	ctx := context.Background()
	want := []string{"a", "b", ""}

	direct := slmem.NewSnapshot[string](3, "")
	pooled := slmem.NewPool[string](3, "")
	inst, pool, err := registry.New(registry.Options{Procs: 3}).Get(registry.KindSnapshot, "board", kind.Request{})
	if err != nil {
		t.Fatal(err)
	}
	driven := func(req kind.Request, pid int) []string {
		op, err := inst.Compile(req)
		if err != nil {
			t.Fatal(err)
		}
		res, err := op.Run(pid)
		if err != nil {
			t.Fatal(err)
		}
		return res.View
	}

	scans := map[string]func() []string{
		"Snapshot.Scan": func() []string { return direct.Scan(2) },
		"Pool.Scan": func() []string {
			view, err := pooled.Scan(ctx)
			if err != nil {
				t.Fatal(err)
			}
			return view
		},
		"kind.Result.View": func() []string {
			var view []string
			if err := pool.With(ctx, func(pid int) error {
				view = driven(kind.Request{Op: "scan"}, pid)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			return view
		},
	}
	for pid, x := range want[:2] {
		direct.Update(pid, x)
		pooled.Unpooled().Update(pid, x)
		driven(kind.Request{Op: "update", Value: x}, pid)
	}
	for name, scan := range scans {
		for i := 0; i < 3; i++ {
			view := scan()
			if !slices.Equal(view, want) {
				t.Fatalf("%s #%d = %q, want %q", name, i, view, want)
			}
			for j := range view {
				view[j] = "scribble"
			}
		}
	}
}

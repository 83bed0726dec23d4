package slmem_test

import (
	"context"
	"slices"
	"testing"

	"slmem"
	"slmem/internal/registry"
)

// TestReturnedViewsBelongToTheCaller: the public scans copy a view once,
// where they hand it out, so whatever a caller does to the slice it got —
// from the fixed-pid Scan, the pooled Scan, or a registry snapshot's Scan —
// no later scan by anyone sees it. (A kind driver's Result.View is the other
// contract, shared and read-only: TestScanResultViewIsImmutable in
// internal/registry.)
func TestReturnedViewsBelongToTheCaller(t *testing.T) {
	ctx := context.Background()
	want := []string{"a", "b", ""}

	direct := slmem.NewSnapshot[string](3, "")
	pooled := slmem.NewPool[string](3, "")
	named := registry.New(registry.Options{Procs: 3}).Snapshot("board")

	poolScan := func(p *slmem.Pool[string]) func() []string {
		return func() []string {
			view, err := p.Scan(ctx)
			if err != nil {
				t.Fatal(err)
			}
			return view
		}
	}
	scans := map[string]func() []string{
		"Snapshot.Scan":          func() []string { return direct.Scan(2) },
		"Pool.Scan":              poolScan(pooled),
		"Registry.Snapshot.Scan": poolScan(named),
	}
	for pid, x := range want[:2] {
		direct.Update(pid, x)
		pooled.Unpooled().Update(pid, x)
		named.Unpooled().Update(pid, x)
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

package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"slmem/internal/aba"
	"slmem/internal/memory"
	"slmem/internal/snapshot"
	"slmem/internal/spec"
)

// recordingR is R with a log of every view handed to DWrite, beside a copy
// of what it held at that moment.
type recordingR struct {
	ABARegister[[]string]
	written, asWritten [][]string
}

func (r *recordingR) DWrite(p int, v []string) {
	r.written = append(r.written, v)
	r.asWritten = append(r.asWritten, slices.Clone(v))
	r.ABARegister.DWrite(p, v)
}

// TestPublishedViewsAreNotScanBuffers is the ownership rule from the side of
// R: what SLupdate's line 45 and SLscan's helping line 51 publish is never a
// process's scan buffer inside S, over any substrate, and is never written
// again — a published view reads the same after every process has scanned
// and updated further.
func TestPublishedViewsAreNotScanBuffers(t *testing.T) {
	const n = 3
	substrates := map[string]func(memory.Allocator) snapshot.Snapshot[string]{
		"doublecollect": func(a memory.Allocator) snapshot.Snapshot[string] {
			return snapshot.NewDoubleCollect[string](a, n, spec.Bot)
		},
		"afek": func(a memory.Allocator) snapshot.Snapshot[string] {
			return snapshot.NewAfek[string](a, n, spec.Bot)
		},
		"handshake": func(a memory.Allocator) snapshot.Snapshot[string] {
			return snapshot.NewHandshake[string](a, n, spec.Bot)
		},
	}
	for name, mk := range substrates {
		t.Run(name, func(t *testing.T) {
			var alloc memory.NativeAllocator
			s := mk(&alloc)
			initView := slices.Repeat([]string{spec.Bot}, n)
			r := &recordingR{ABARegister: aba.NewStrongFunc(&alloc, n, initView, viewsEqual[string])}
			o := NewWith[string](n, s, r)

			helps := o.Stats().RDWrites.Load()
			for i := 0; i < 20; i++ {
				p := i % n
				o.Update(p, fmt.Sprintf("u%d", i))
				// An update that reached S but not yet R: the next scan
				// disagrees with R and helps (lines 50-52).
				s.Update((p+1)%n, fmt.Sprintf("s%d", i))
				o.Scan((p + 2) % n)
			}
			if got := o.Stats().RDWrites.Load() - helps; got < 40 {
				t.Fatalf("%d writes to R, want the 20 updates' and at least 20 helping writes", got)
			}
			for i, v := range r.written {
				for p := 0; p < n; p++ {
					if sameView(v, s.Scan(p)) {
						t.Errorf("write %d to R published process %d's scan buffer", i, p)
					}
				}
				if !slices.Equal(v, r.asWritten[i]) {
					t.Errorf("write %d to R held %v when published and %v now", i, r.asWritten[i], v)
				}
			}
		})
	}
}

// TestViewOutlivesLaterOperations: View hands out the view as R stores it,
// which the universal construction keeps in its nodes for good. It must be
// neither the caller's scan buffer nor anything a later operation writes.
func TestViewOutlivesLaterOperations(t *testing.T) {
	var alloc memory.NativeAllocator
	o := New[string](&alloc, 2, spec.Bot)
	o.Update(0, "a")
	kept := o.View(0)
	want := slices.Clone(kept)
	for i := 0; i < 10; i++ {
		o.Update(i%2, fmt.Sprintf("v%d", i))
		o.View(0)
		o.Scan(1)
	}
	if !slices.Equal(kept, want) {
		t.Errorf("a kept View changed from %v to %v", want, kept)
	}
}

// TestScanResultsAreTheCallersOwn runs every process scanning and updating
// one object while it scribbles over each view Scan returns (run under
// -race). A returned view that aliased R's stored view, a scan buffer, or
// another caller's result would be a data race, and a scribble would surface
// in somebody's scan: every component of every view must hold a value its
// owner wrote, and the scanner's own component its latest one.
func TestScanResultsAreTheCallersOwn(t *testing.T) {
	const n, rounds = 4, 2000
	var alloc memory.NativeAllocator
	o := New[string](&alloc, n, spec.Bot)
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				mine := fmt.Sprintf("p%d.%d", p, i)
				o.Update(p, mine)
				view := o.Scan(p)
				if view[p] != mine {
					t.Errorf("process %d scanned %q in its own component after writing %q", p, view[p], mine)
					return
				}
				for q, v := range view {
					if v != spec.Bot && v[:2] != fmt.Sprintf("p%d", q) {
						t.Errorf("process %d scanned %q in component %d", p, v, q)
						return
					}
					view[q] = "scribble"
				}
				var sum int
				for _, v := range o.View(p) { // read-only, shared with every reader
					sum += len(v)
				}
				_ = sum
			}
		}(p)
	}
	wg.Wait()
}

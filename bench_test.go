// Benchmarks regenerating experiment E7 (see the claim index in
// docs/ARCHITECTURE.md, "Verification and performance stack"): the
// native-mode cost of strong linearizability, one benchmark per row family.
//
// Run with: go test -bench=. -benchmem
package slmem

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"slmem/internal/aba"
	"slmem/internal/core"
	"slmem/internal/maxreg"
	"slmem/internal/memory"
	"slmem/internal/snapshot"
	"slmem/internal/spec"
	"slmem/internal/universal"
	"slmem/internal/versioned"
)

// pidPool hands out distinct process ids to parallel benchmark goroutines.
type pidPool struct {
	next atomic.Int64
	n    int
}

func (p *pidPool) get() int {
	id := int(p.next.Add(1)) - 1
	if id >= p.n {
		panic(fmt.Sprintf("bench: more parallel goroutines (%d) than processes (%d); run with -cpu <= %d",
			id+1, p.n, p.n))
	}
	return id
}

// benchN sizes objects so that RunParallel's GOMAXPROCS goroutines each get
// a distinct process id.
func benchN() int {
	if g := runtime.GOMAXPROCS(0); g > 8 {
		return g
	}
	return 8
}

// --- E7a: ABA-detecting registers — Algorithm 1 vs Algorithm 2 ----------------

func BenchmarkABA(b *testing.B) {
	n := benchN()
	impls := []struct {
		name string
		make func(alloc memory.Allocator) interface {
			DWrite(p int, x uint64)
			DRead(q int) (uint64, bool)
		}
	}{
		{"algorithm1-linearizable", func(alloc memory.Allocator) interface {
			DWrite(p int, x uint64)
			DRead(q int) (uint64, bool)
		} {
			return aba.NewLinearizable[uint64](alloc, n, 0)
		}},
		{"algorithm2-strong", func(alloc memory.Allocator) interface {
			DWrite(p int, x uint64)
			DRead(q int) (uint64, bool)
		} {
			return aba.NewStrong[uint64](alloc, n, 0)
		}},
	}
	for _, impl := range impls {
		b.Run(impl.name+"/DWrite", func(b *testing.B) {
			var alloc memory.NativeAllocator
			reg := impl.make(&alloc)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reg.DWrite(0, uint64(i))
			}
		})
		b.Run(impl.name+"/DRead-quiet", func(b *testing.B) {
			var alloc memory.NativeAllocator
			reg := impl.make(&alloc)
			reg.DWrite(0, 7)
			reg.DRead(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reg.DRead(1)
			}
		})
		b.Run(impl.name+"/mixed-parallel", func(b *testing.B) {
			var alloc memory.NativeAllocator
			reg := impl.make(&alloc)
			pool := &pidPool{n: n}
			b.RunParallel(func(pb *testing.PB) {
				pid := pool.get()
				i := uint64(0)
				for pb.Next() {
					i++
					if pid%2 == 0 {
						reg.DRead(pid)
					} else {
						reg.DWrite(pid, i)
					}
				}
			})
		})
	}
}

// --- E7b: snapshots — strongly linearizable vs linearizable baselines ---------

type benchSnapshot interface {
	Update(pid int, x uint64)
	Scan(pid int) []uint64
}

func snapshotImpls(n int) map[string]func() benchSnapshot {
	return map[string]func() benchSnapshot{
		"doublecollect-linearizable": func() benchSnapshot {
			var alloc memory.NativeAllocator
			return snapshot.NewDoubleCollect[uint64](&alloc, n, 0)
		},
		"afek-waitfree-linearizable": func() benchSnapshot {
			var alloc memory.NativeAllocator
			return snapshot.NewAfek[uint64](&alloc, n, 0)
		},
		"handshake-bounded-linearizable": func() benchSnapshot {
			var alloc memory.NativeAllocator
			return snapshot.NewHandshake[uint64](&alloc, n, 0)
		},
		"algorithm3-strong": func() benchSnapshot {
			var alloc memory.NativeAllocator
			return core.New[uint64](&alloc, n, 0)
		},
		"versioned-strong-unbounded": func() benchSnapshot {
			var alloc memory.NativeAllocator
			return versioned.New[uint64](&alloc, n, 0)
		},
	}
}

func BenchmarkSnapshot(b *testing.B) {
	n := benchN()
	names := []string{
		"doublecollect-linearizable",
		"afek-waitfree-linearizable",
		"handshake-bounded-linearizable",
		"algorithm3-strong",
		"versioned-strong-unbounded",
	}
	impls := snapshotImpls(n)
	for _, name := range names {
		mk := impls[name]
		b.Run(name+"/Update-solo", func(b *testing.B) {
			s := mk()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Update(0, uint64(i))
			}
		})
		b.Run(name+"/Scan-solo", func(b *testing.B) {
			s := mk()
			for pid := 0; pid < n; pid++ {
				s.Update(pid, uint64(pid))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Scan(0)
			}
		})
		b.Run(name+"/mixed-parallel", func(b *testing.B) {
			s := mk()
			pool := &pidPool{n: n}
			b.RunParallel(func(pb *testing.PB) {
				pid := pool.get()
				i := uint64(0)
				for pb.Next() {
					i++
					if pid%2 == 0 {
						s.Scan(pid)
					} else {
						s.Update(pid, i)
					}
				}
			})
		})
	}

	// The read-heavy use of the strong snapshot as the matrix benchmark's
	// inproc-readmostly workload drives it — n = 16 string components, two
	// goroutines on fixed pids, 8 objects, 90 % scans — so that this layer
	// can be profiled with go test alone. In the -wide variant every pid has
	// written once before the timer starts, so S collects all 16 components.
	b.Run("algorithm3-strong/readmostly-n16-string", func(b *testing.B) { benchReadMostly(b, false) })
	b.Run("algorithm3-strong/readmostly-n16-string-wide", func(b *testing.B) { benchReadMostly(b, true) })
}

func benchReadMostly(b *testing.B, wide bool) {
	const n, objects, workers = 16, 8, 2
	var alloc memory.NativeAllocator
	snaps := make([]*core.Snapshot[string], objects)
	for i := range snaps {
		snaps[i] = core.New[string](&alloc, n, "")
		if wide {
			for pid := 0; pid < n; pid++ {
				snaps[i].Update(pid, "")
			}
		}
	}
	vals := make([]string, 64)
	for i := range vals {
		vals[i] = fmt.Sprintf("value-%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	var scans atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(pid) + 1))
			scanned := 0
			for i := pid; i < b.N; i += workers {
				s := snaps[rng.Intn(objects)]
				if rng.Intn(10) == 0 {
					s.Update(pid, vals[rng.Intn(len(vals))])
				} else {
					s.Scan(pid)
					scanned++
				}
			}
			scans.Add(int64(scanned))
		}(w)
	}
	wg.Wait()
	// Theorem 32's count: 3 per scan when nothing interferes.
	var baseOps int64
	for _, s := range snaps {
		baseOps += s.Stats().TotalScanOps()
	}
	b.ReportMetric(float64(baseOps)/float64(max(scans.Load(), 1)), "base-ops/scan")
}

// --- E7c: derived types --------------------------------------------------------

func BenchmarkCounter(b *testing.B) {
	n := benchN()
	b.Run("inc-solo", func(b *testing.B) {
		c := NewCounter(n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Inc(0)
		}
	})
	b.Run("read-solo", func(b *testing.B) {
		c := NewCounter(n)
		c.Inc(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Read(0)
		}
	})
	b.Run("mixed-parallel", func(b *testing.B) {
		c := NewCounter(n)
		pool := &pidPool{n: n}
		b.RunParallel(func(pb *testing.PB) {
			pid := pool.get()
			for pb.Next() {
				if pid%2 == 0 {
					c.Read(pid)
				} else {
					c.Inc(pid)
				}
			}
		})
	})
}

func BenchmarkMaxRegister(b *testing.B) {
	b.Run("trie-maxWrite-increasing", func(b *testing.B) {
		var alloc memory.NativeAllocator
		m := maxreg.NewUnbounded[struct{}](&alloc, struct{}{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := m.MaxWrite(0, uint64(i), struct{}{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("trie-maxRead", func(b *testing.B) {
		var alloc memory.NativeAllocator
		m := maxreg.NewUnbounded[struct{}](&alloc, struct{}{})
		_ = m.MaxWrite(0, 1<<40, struct{}{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.MaxRead(0)
		}
	})
	b.Run("snapshot-derived-maxWrite", func(b *testing.B) {
		m := NewMaxRegister(8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.MaxWrite(0, uint64(i))
		}
	})
	b.Run("snapshot-derived-maxRead", func(b *testing.B) {
		m := NewMaxRegister(8)
		m.MaxWrite(0, 99)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.MaxRead(0)
		}
	})
}

// --- E9 companion: lease overhead on the counter hot path ---------------------
//
// The pooled path wraps every operation in a pid lease (PIDPool).
// The pooled/direct pairs measure that bridge's overhead; the service
// runtime budgets it at well under 2x the direct Inc cost.

func BenchmarkPooledCounter(b *testing.B) {
	n := benchN()
	ctx := context.Background()
	b.Run("inc-direct", func(b *testing.B) {
		c := NewCounter(n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Inc(0)
		}
	})
	b.Run("inc-pooled", func(b *testing.B) {
		c := NewPooledCounter(n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.Inc(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("inc-direct-parallel", func(b *testing.B) {
		c := NewCounter(n)
		pool := &pidPool{n: n}
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			pid := pool.get()
			for pb.Next() {
				c.Inc(pid)
			}
		})
	})
	b.Run("inc-pooled-parallel", func(b *testing.B) {
		c := NewPooledCounter(n)
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if err := c.Inc(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("acquire-release", func(b *testing.B) {
		// The lease round trip alone, for attributing pooled-path cost.
		p := NewPIDPool(n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pid, err := p.Acquire(ctx)
			if err != nil {
				b.Fatal(err)
			}
			p.Release(pid)
		}
	})
}

// --- E7d / E6: universal construction cost growth -------------------------------

func BenchmarkUniversalHistoryGrowth(b *testing.B) {
	// The object is re-created every 32 measured operations so each subrun
	// reflects a pinned history size (the construction's per-op cost grows
	// with history, which is exactly the claim E6 makes).
	const burst = 32
	grow := func(b *testing.B, history int) *universal.Object {
		var alloc memory.NativeAllocator
		o := universal.New(&alloc, universal.CounterType{}, 2)
		for i := 0; i < history; i++ {
			if _, err := o.Execute(i%2, "inc()"); err != nil {
				b.Fatal(err)
			}
		}
		return o
	}
	for _, history := range []int{0, 64, 256} {
		history := history
		b.Run("counter-inc/history-"+strconv.Itoa(history), func(b *testing.B) {
			o := grow(b, history)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%burst == burst-1 {
					b.StopTimer()
					o = grow(b, history)
					b.StartTimer()
				}
				if _, err := o.Execute(0, "inc()"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkUniversalWarm measures the steady-state cost of universal-object
// execution at a fixed, pre-grown history depth, replay cache on vs off.
// With the cache, per-op cost is O(delta since this process's previous op);
// without it, every op replays the whole history (the uncached subrun uses
// a much shallower history so it finishes — scale its ns/op accordingly).
func BenchmarkUniversalWarm(b *testing.B) {
	grow := func(b *testing.B, history int, caching bool) *Object {
		o := NewObject(CounterType{}, 2)
		o.SetCaching(caching)
		for i := 0; i < history; i++ {
			if _, err := o.Execute(i%2, "inc()"); err != nil {
				b.Fatal(err)
			}
		}
		return o
	}
	b.Run("cached/history-10000", func(b *testing.B) {
		o := grow(b, 10000, true)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := o.Execute(0, "inc()"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("uncached/history-512", func(b *testing.B) {
		o := grow(b, 512, false)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := o.Execute(0, "inc()"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// The two benchmarks below are the two paths of a universal-object operation
// in the served configuration (2 pids, truncation at the default window), on
// one goroutine with the pids alternating so every operation has a delta of
// one. They report ns/op and allocs/op for the local half of Execute —
// extraction, linearization, replay — on top of the one root scan and one
// root update every operation takes.

func steadyObject(b *testing.B, caching bool) *Object {
	o := NewObject(CounterType{}, 2)
	o.SetCaching(caching)
	o.SetGC(ObjectGCOptions{Window: DefaultObjectGCWindow})
	for i := 0; i < 4*DefaultObjectGCWindow; i++ { // past the first truncations
		if _, err := o.Execute(i%2, "inc()"); err != nil {
			b.Fatal(err)
		}
	}
	return o
}

// BenchmarkUniversalHitPath: replay cache on, every operation replays the
// one node since its process's newest; every window-th also runs a collector
// pass over the live nodes.
func BenchmarkUniversalHitPath(b *testing.B) {
	o := steadyObject(b, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.Execute(i%2, "inc()"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUniversalMissPath: replay cache off, so every operation does what
// a cache miss does — extract, linearize and replay every live node past the
// truncation root (between one and two windows of them).
func BenchmarkUniversalMissPath(b *testing.B) {
	o := steadyObject(b, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.Execute(i%2, "inc()"); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(o.GCStats(0).LiveNodes), "live-nodes")
}

// countingType is CounterType with every Apply of its specification counted:
// what an object replays is what it applies beyond one Apply per operation.
type countingType struct {
	CounterType
	applies *atomic.Int64
}

func (c countingType) Spec() Spec { return countingSpec{c.CounterType.Spec(), c.applies} }

type countingSpec struct {
	Spec
	applies *atomic.Int64
}

func (c countingSpec) Apply(state string, pid int, desc string) (string, string, error) {
	c.applies.Add(1)
	return c.Spec.Apply(state, pid, desc)
}

// BenchmarkUniversalContended is the served configuration under real overlap
// (run it with -cpu 2): two goroutines as pids 0 and 1 split b.N inc() over
// objs truncating objects, each picking its next object at random. At 64
// objects they meet on one about once in seventy operations, as in the
// matrix's inproc-object; at one they never stop meeting. replayed-nodes/op is
// every Apply beyond the operation's own — Execute's replays and the
// collector's — so it is the count the replay floors and the collector's base
// exist to keep near the delta; misses/op is the share of operations that
// replayed from below their process's newest node, kept-floor-misses/op the
// share of those a kept node served rather than the root; root-replays/miss is
// the share of misses that no node their process kept was covered for, and
// refused/miss the kept nodes a miss extracted from in vain before its floor;
// live-nodes and truncations/op are the collector's (reportGC).
func BenchmarkUniversalContended(b *testing.B) {
	for _, objs := range []int{1, 64} {
		b.Run("objs="+strconv.Itoa(objs), func(b *testing.B) {
			const pids = 2
			applies := make([]atomic.Int64, objs)
			objects := make([]*Object, objs)
			for i := range objects {
				objects[i] = NewObject(countingType{applies: &applies[i]}, pids)
				objects[i].SetGC(ObjectGCOptions{Window: DefaultObjectGCWindow})
			}
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for pid := 0; pid < pids; pid++ {
				wg.Add(1)
				go func(pid int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(pid) + 1))
					for i := pid; i < b.N; i += pids {
						if _, err := objects[rng.Intn(objs)].Execute(pid, "inc()"); err != nil {
							b.Error(err)
							return
						}
					}
				}(pid)
			}
			wg.Wait()
			b.StopTimer()
			var total int64
			for i := range applies {
				total += applies[i].Load()
			}
			b.ReportMetric(float64(total-int64(b.N))/float64(b.N), "replayed-nodes/op")
			var misses, rootReplays, refused int64
			for _, o := range objects {
				st := o.CacheStats()
				misses, rootReplays, refused = misses+st.Misses, rootReplays+st.RootReplays, refused+st.Refused
			}
			b.ReportMetric(float64(misses)/float64(b.N), "misses/op")
			b.ReportMetric(float64(misses-rootReplays)/float64(b.N), "kept-floor-misses/op")
			b.ReportMetric(float64(rootReplays)/float64(max(misses, 1)), "root-replays/miss")
			b.ReportMetric(float64(refused)/float64(max(misses, 1)), "refused/miss")
			reportGC(b, objects)
		})
	}
}

// BenchmarkUniversalDominance is BenchmarkUniversalContended over types whose
// classes dominate one another, so linearizations run lingraph's pair loop
// (run it with -cpu 2): two goroutines as pids 0 and 1 split b.N operations
// over objs truncating objects, half of them writes. On the register every
// operation overwrites a read() and a write(x), x in 0..9, overwrites every
// write; on the set every operation overwrites a contains(x) and an add(x),
// x in 0..99, overwrites add(x). live-nodes and truncations/op are the
// collector's (reportGC).
func BenchmarkUniversalDominance(b *testing.B) {
	for _, tc := range []struct {
		name        string
		typ         SimpleType
		read, write string // printf formats over one operand
		operands    int
	}{
		{"register", RegisterType{}, "read()", "write(%d)", 10},
		{"set", SetType{}, "contains(%d)", "add(%d)", 100},
	} {
		for _, objs := range []int{1, 64} {
			b.Run(tc.name+"/objs="+strconv.Itoa(objs), func(b *testing.B) {
				const pids = 2
				objects := make([]*Object, objs)
				for i := range objects {
					objects[i] = NewObject(tc.typ, pids)
					objects[i].SetGC(ObjectGCOptions{Window: DefaultObjectGCWindow})
				}
				invs := make([]string, 0, 2*tc.operands)
				for x := 0; x < tc.operands; x++ {
					invs = append(invs, fmt.Sprintf(tc.read, x), fmt.Sprintf(tc.write, x))
				}
				b.ReportAllocs()
				b.ResetTimer()
				var wg sync.WaitGroup
				for pid := 0; pid < pids; pid++ {
					wg.Add(1)
					go func(pid int) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(int64(pid) + 1))
						for i := pid; i < b.N; i += pids {
							if _, err := objects[rng.Intn(objs)].Execute(pid, invs[rng.Intn(len(invs))]); err != nil {
								b.Error(err)
								return
							}
						}
					}(pid)
				}
				wg.Wait()
				b.StopTimer()
				reportGC(b, objects)
			})
		}
	}
}

// reportGC reports the mean live nodes per object, read after the run, and
// the collector's truncations per operation. A begun pid that idles between
// its operations pins its object's graph until it runs again (ROADMAP P0
// (a2)), so live nodes grow with the other pid's run of operations.
func reportGC(b *testing.B, objects []*Object) {
	var live, truncs int64
	for _, o := range objects {
		st := o.GCStats(0)
		live, truncs = live+int64(st.LiveNodes), truncs+st.Truncations
	}
	b.ReportMetric(float64(live)/float64(len(objects)), "live-nodes")
	b.ReportMetric(float64(truncs)/float64(b.N), "truncations/op")
}

// --- E5 companion: space growth as a benchmark metric ---------------------------

func BenchmarkVersionedSpaceGrowth(b *testing.B) {
	var alloc memory.NativeAllocator
	s := versioned.New[string](&alloc, 4, spec.Bot)
	base := alloc.Registers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Update(i%4, "x")
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(alloc.Registers()-base)/float64(b.N), "registers/op")
	}
}

func BenchmarkAlgorithm3SpaceConstant(b *testing.B) {
	var alloc memory.NativeAllocator
	s := core.New[string](&alloc, 4, spec.Bot)
	base := alloc.Registers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Update(i%4, "x")
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(alloc.Registers()-base)/float64(b.N), "registers/op")
	}
}

// --- E10: batch pipeline — lease amortization on the wrapper hot paths ---------
//
// The per-op pooled path pays one pid lease per operation; Batch and
// ExecuteMany pay one lease per batch. The pairs below quantify the
// amortization at batch size 64 (benchmarks/matrix carries the end-to-end
// comparison: http-single against http-batch64).

func BenchmarkPoolBatch(b *testing.B) {
	n := benchN()
	ctx := context.Background()
	const batch = 64
	b.Run("update-perop", func(b *testing.B) {
		p := NewPool[uint64](n, 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := p.Update(ctx, uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("update-batch64", func(b *testing.B) {
		p := NewPool[uint64](n, 0)
		b.ResetTimer()
		for done := 0; done < b.N; done += batch {
			err := p.Batch(ctx, func(h SnapshotHandle[uint64]) error {
				for j := 0; j < batch; j++ {
					h.Update(uint64(j))
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("update-batch64-parallel", func(b *testing.B) {
		p := NewPool[uint64](n, 0)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				err := p.Batch(ctx, func(h SnapshotHandle[uint64]) error {
					for j := 0; j < batch; j++ {
						h.Update(uint64(j))
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

func BenchmarkExecuteMany(b *testing.B) {
	// The universal construction's per-op cost grows with history, so the
	// object is re-created every 64 operations in both variants: the pair
	// differs only in how many leases those 64 operations cost.
	const batch = 64
	ctx := context.Background()
	invs := make([]string, batch)
	for i := range invs {
		invs[i] = "inc()"
	}
	b.Run("execute-perop", func(b *testing.B) {
		o := NewPooledObject(CounterType{}, 2)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%batch == 0 && i > 0 {
				b.StopTimer()
				o = NewPooledObject(CounterType{}, 2)
				b.StartTimer()
			}
			if _, err := o.Execute(ctx, "inc()"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("execute-many64", func(b *testing.B) {
		b.ResetTimer()
		for done := 0; done < b.N; done += batch {
			b.StopTimer()
			o := NewPooledObject(CounterType{}, 2)
			b.StartTimer()
			if _, err := o.ExecuteMany(ctx, invs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

package harness

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"slmem/internal/aba"
	"slmem/internal/core"
	"slmem/internal/memory"
	"slmem/internal/spec"
)

func TestRecorderSequential(t *testing.T) {
	rec := NewRecorder()
	rec.Do(0, "write(1)", func() string { return "ok" })
	rec.Do(1, "read()", func() string { return "1" })
	h := rec.History()
	if len(h.Ops) != 2 {
		t.Fatalf("ops = %d, want 2", len(h.Ops))
	}
	if !h.HappensBefore(h.Ops[0], h.Ops[1]) {
		t.Error("sequential ops not ordered by happens-before")
	}
	rec.Reset()
	if rec.Len() != 0 {
		t.Error("Reset did not clear ops")
	}
}

func TestRecorderOverlapDetection(t *testing.T) {
	rec := NewRecorder()
	t1 := rec.Invoke(0, "a()")
	t2 := rec.Invoke(1, "b()") // overlaps t1
	t1.Return("ok")
	t2.Return("ok")
	h := rec.History()
	if h.HappensBefore(h.Ops[0], h.Ops[1]) || h.HappensBefore(h.Ops[1], h.Ops[0]) {
		t.Error("overlapping ops reported as ordered")
	}
}

func TestRecorderConcurrentSoundness(t *testing.T) {
	// Operations performed strictly in sequence across goroutines (via a
	// channel baton) must come out happens-before ordered.
	rec := NewRecorder()
	baton := make(chan struct{}, 1)
	baton <- struct{}{}
	var wg sync.WaitGroup
	for pid := 0; pid < 4; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			<-baton
			rec.Do(pid, fmt.Sprintf("op%d()", pid), func() string { return "ok" })
			baton <- struct{}{}
		}(pid)
	}
	wg.Wait()
	h := rec.History()
	ordered := 0
	for i := range h.Ops {
		for j := range h.Ops {
			if i != j && (h.HappensBefore(h.Ops[i], h.Ops[j]) || h.HappensBefore(h.Ops[j], h.Ops[i])) {
				ordered++
			}
		}
	}
	if ordered != 4*3 { // every pair ordered one way
		t.Errorf("ordered pair count = %d, want 12", ordered)
	}
}

func TestCheckNativeBurstsABA(t *testing.T) {
	// Real-concurrency validation of the strongly linearizable ABA register:
	// every recorded burst must be linearizable.
	const n = 4
	err := CheckNativeBursts(spec.ABARegister{N: n}, 30, func(burst int, rec *Recorder) {
		var alloc memory.NativeAllocator
		reg := aba.NewStrong[string](&alloc, n, spec.Bot)
		var wg sync.WaitGroup
		for pid := 0; pid < n; pid++ {
			wg.Add(1)
			go func(pid int) {
				defer wg.Done()
				for i := 0; i < 3; i++ {
					if pid%2 == 0 {
						rec.Do(pid, "DRead()", func() string {
							v, f := reg.DRead(pid)
							return fmt.Sprintf("(%s,%t)", v, f)
						})
					} else {
						x := fmt.Sprintf("b%d.%d.%d", burst, pid, i)
						rec.Do(pid, spec.FormatInvocation("DWrite", x), func() string {
							reg.DWrite(pid, x)
							return "ok"
						})
					}
				}
			}(pid)
		}
		wg.Wait()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCheckNativeBurstsSnapshot(t *testing.T) {
	const n = 4
	err := CheckNativeBursts(spec.Snapshot{N: n}, 20, func(burst int, rec *Recorder) {
		var alloc memory.NativeAllocator
		s := core.New[string](&alloc, n, spec.Bot)
		var wg sync.WaitGroup
		for pid := 0; pid < n; pid++ {
			wg.Add(1)
			go func(pid int) {
				defer wg.Done()
				for i := 0; i < 3; i++ {
					if pid%2 == 0 {
						rec.Do(pid, "scan()", func() string {
							return spec.FormatView(s.Scan(pid))
						})
					} else {
						x := fmt.Sprintf("b%d.%d.%d", burst, pid, i)
						rec.Do(pid, spec.FormatInvocation("update", x), func() string {
							s.Update(pid, x)
							return "ok"
						})
					}
				}
			}(pid)
		}
		wg.Wait()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCheckNativeBurstsCatchesViolations(t *testing.T) {
	// Teeth: a fake register that drops writes must fail the burst check.
	err := CheckNativeBursts(spec.Register{}, 1, func(_ int, rec *Recorder) {
		rec.Do(0, "write(1)", func() string { return "ok" })
		rec.Do(1, "read()", func() string { return spec.Bot }) // lost write
	})
	if err == nil {
		t.Fatal("lost write accepted by burst checker")
	}
	if !strings.Contains(err.Error(), "not linearizable") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestCheckNativeBurstsSizeLimit: bursts of 62 operations are checked, and
// the checker's error for a 63-operation burst names the burst and the limit.
func TestCheckNativeBurstsSizeLimit(t *testing.T) {
	err := CheckNativeBursts(spec.Register{}, 3, func(burst int, rec *Recorder) {
		n := 62
		if burst == 2 {
			n = 63
		}
		for i := 0; i < n; i++ {
			rec.Do(0, "read()", func() string { return spec.Bot })
		}
	})
	if err == nil {
		t.Fatal("oversized burst accepted")
	}
	for _, want := range []string{"burst 2:", "63 operations", "max 62"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not contain %q", err, want)
		}
	}
}

package memory

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestNativeRegisterBasic(t *testing.T) {
	var a NativeAllocator
	r := a.NewRegister("X", 42)
	if got := r.Read(0); got != 42 {
		t.Errorf("initial Read = %v, want 42", got)
	}
	r.Write(1, "hello")
	if got := r.Read(0); got != "hello" {
		t.Errorf("Read after Write = %v, want hello", got)
	}
	if r.Name() != "X" {
		t.Errorf("Name = %q, want X", r.Name())
	}
}

func TestNativeAllocatorCounts(t *testing.T) {
	var a NativeAllocator
	for i := 0; i < 10; i++ {
		a.NewRegister("r", i)
	}
	if got := a.Registers(); got != 10 {
		t.Errorf("Registers = %d, want 10", got)
	}
}

func TestNativeRegisterConcurrent(t *testing.T) {
	var a NativeAllocator
	r := a.NewRegister("X", 0)
	const writers, iters = 4, 1000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Write(pid, pid*iters+i)
				if v := r.Read(pid).(int); v < 0 || v >= writers*iters {
					t.Errorf("torn read: %d", v)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestStepCounter(t *testing.T) {
	var native NativeAllocator
	c := NewStepCounter(2)
	a := &CountingAllocator{Inner: &native, Counter: c}
	r := a.NewRegister("X", 0)

	r.Write(0, 1)
	r.Write(0, 2)
	r.Read(1)

	if got := c.Writes(0); got != 2 {
		t.Errorf("Writes(0) = %d, want 2", got)
	}
	if got := c.Reads(1); got != 1 {
		t.Errorf("Reads(1) = %d, want 1", got)
	}
	if got := c.Steps(0); got != 2 {
		t.Errorf("Steps(0) = %d, want 2", got)
	}
	if got := c.TotalSteps(); got != 3 {
		t.Errorf("TotalSteps = %d, want 3", got)
	}
	if got := a.Registers(); got != 1 {
		t.Errorf("Registers = %d, want 1", got)
	}

	c.Reset()
	if got := c.TotalSteps(); got != 0 {
		t.Errorf("TotalSteps after Reset = %d, want 0", got)
	}
}

func TestTypedReg(t *testing.T) {
	var a NativeAllocator
	type pair struct{ p, s int }
	r := NewReg(&a, "A", pair{1, 2})
	if got := r.Read(0); got != (pair{1, 2}) {
		t.Errorf("Read = %v", got)
	}
	r.Write(0, pair{3, 4})
	if got := r.Read(0); got != (pair{3, 4}) {
		t.Errorf("Read after Write = %v", got)
	}
	if r.Name() != "A" {
		t.Errorf("Name = %q", r.Name())
	}
}

// Property: a sequential series of writes is always read back verbatim.
func TestRegisterSequentialProperty(t *testing.T) {
	f := func(vals []int64) bool {
		var a NativeAllocator
		r := NewReg(&a, "X", int64(0))
		for _, v := range vals {
			r.Write(0, v)
			if r.Read(0) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTypedRegPanicsOnTypeConfusion(t *testing.T) {
	var a NativeAllocator
	raw := a.NewRegister("X", 1)
	typed := Reg[string]{r: raw} // deliberately mistyped view
	defer func() {
		if recover() == nil {
			t.Error("mistyped register read did not panic")
		}
	}()
	typed.Read(0)
}

func TestCountingAllocatorNesting(t *testing.T) {
	c1 := NewStepCounter(1)
	c2 := NewStepCounter(1)
	var native NativeAllocator
	a1 := &CountingAllocator{Inner: &native, Counter: c1}
	a2 := &CountingAllocator{Inner: a1, Counter: c2}
	r := a2.NewRegister("X", 0)
	r.Write(0, 1)
	r.Read(0)
	if c1.Steps(0) != 2 || c2.Steps(0) != 2 {
		t.Errorf("nested counters = %d/%d, want 2/2", c1.Steps(0), c2.Steps(0))
	}
	if a2.Registers() != 1 {
		t.Errorf("Registers = %d", a2.Registers())
	}
}

func TestWordNativeOnly(t *testing.T) {
	var native NativeAllocator
	w, ok := NewWord(&native, "w", 7)
	if !ok || w.Read() != 7 || w.Name() != "w" || native.Registers() != 1 {
		t.Fatalf("native word: ok=%v value=%d registers=%d", ok, w.Read(), native.Registers())
	}
	w.Write(1<<40 | 3)
	if got := w.Read(); got != 1<<40|3 {
		t.Errorf("word read back %#x", got)
	}
	counting := &CountingAllocator{Inner: &native, Counter: NewStepCounter(1)}
	if _, ok := NewWord(counting, "w", 0); ok {
		t.Error("a decorated allocator was handed a word its steps cannot see")
	}
}

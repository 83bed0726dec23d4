package registry

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"slmem/internal/kind"
)

// bracketDriver is a test driver for the pool order: two kinds of it
// ("testbr-a", "testbr-z") each lease from a dedicated pool, the op "pid"
// reports the pid it ran as, and the op "fail" passes Validate but not
// Compile.
type bracketDriver struct{ name string }

func (d bracketDriver) Kind() string          { return d.name }
func (d bracketDriver) Doc() string           { return "test bracket kind" }
func (d bracketDriver) Ops() []kind.OpInfo    { return []kind.OpInfo{{Name: "pid"}, {Name: "fail"}} }
func (d bracketDriver) Options() kind.Options { return kind.Options{DedicatedPool: true} }
func (d bracketDriver) Validate(req kind.Request) error {
	if req.Op != "pid" && req.Op != "fail" {
		return kind.NotFound("%s has no operation %q", d.name, req.Op)
	}
	return nil
}
func (d bracketDriver) New(env kind.Env) (kind.Instance, error) {
	return bracketInstance{}, nil
}

type bracketInstance struct{}

func (b bracketInstance) Compile(req kind.Request) (kind.Compiled, error) {
	switch req.Op {
	case "pid":
		return bracketPid{}, nil
	case "fail":
		return nil, errors.New("fail never compiles")
	}
	return nil, kind.NotFound("bracket kind has no operation %q", req.Op)
}

// bracketPid reports the pid it runs as.
type bracketPid struct{}

func (bracketPid) Run(pid int) (kind.Result, error) {
	return kind.Result{Value: strconv.Itoa(pid)}, nil
}

var registerBrackets sync.Once

func bracketKinds() (a, z Kind) {
	registerBrackets.Do(func() {
		kind.Register(bracketDriver{"testbr-a"})
		kind.Register(bracketDriver{"testbr-z"})
	})
	return "testbr-a", "testbr-z"
}

// TestBatchPoolOrderIsGlobal checks that pools are acquired shared first and
// then by kind name whatever order a batch names them in: the recorded order
// says so, and batches naming two one-pid pools in opposite orders finish.
func TestBatchPoolOrderIsGlobal(t *testing.T) {
	a, z := bracketKinds()
	r := New(Options{Procs: 1})
	var w BatchWork
	if _, err := r.BatchExecuteWith(context.Background(), []BatchOp{
		{Kind: z, Name: "o", Op: "pid"},
		{Kind: KindCounter, Name: "c", Op: OpInc},
		{Kind: a, Name: "o", Op: "pid"},
		{Kind: z, Name: "o", Op: "pid"},
	}, &w); err != nil {
		t.Fatal(err)
	}
	var order []Kind
	for _, pi := range w.order {
		order = append(order, w.pools[pi].k)
	}
	if want := []Kind{"", a, z}; !reflect.DeepEqual(order, want) {
		t.Errorf("acquisition order %q, want %q", order, want)
	}

	done := make(chan error, 2)
	for g := 0; g < 2; g++ {
		go func(first, second Kind) {
			var w BatchWork
			for i := 0; i < 2000; i++ {
				ops := []BatchOp{{Kind: first, Name: "o", Op: "pid"}, {Kind: second, Name: "o", Op: "pid"}}
				if _, err := r.BatchExecuteWith(context.Background(), ops, &w); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}([]Kind{a, z}[g], []Kind{z, a}[g])
	}
	for g := 0; g < 2; g++ {
		select {
		case err := <-done:
			if err != nil {
				t.Error(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("batches naming the same pools in opposite orders deadlocked")
		}
	}
}

// TestBatchCancelledBetweenPoolsReleasesFirst queues a batch for its second
// pool until its context ends: the pid it already holds goes back.
func TestBatchCancelledBetweenPoolsReleasesFirst(t *testing.T) {
	a, _ := bracketKinds()
	r := New(Options{Procs: 1})
	_, pool, err := r.Get(a, "o", kind.Request{Op: "pid"})
	if err != nil {
		t.Fatal(err)
	}
	pid, err := pool.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	var w BatchWork
	_, err = r.BatchExecuteWith(ctx, []BatchOp{{Kind: KindCounter, Name: "c", Op: OpInc}, {Kind: a, Name: "o", Op: "pid"}}, &w)
	pool.Release(pid)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the deadline", err)
	}
	if n := r.Pool().InUse(); n != 0 {
		t.Errorf("shared pool has %d pids out after the batch gave up", n)
	}
	if got := r.Counter("c").Unpooled().Read(0); got != 0 {
		t.Errorf("counter = %d: an op ran in a batch that never got its leases", got)
	}
	// The same storage serves the next batch.
	out, err := r.BatchExecuteWith(context.Background(), []BatchOp{{Kind: a, Name: "o", Op: "pid"}}, &w)
	if err != nil || out.Results[0].Err != nil || out.Leases != 1 {
		t.Errorf("next batch on the same storage: %+v, %v", out, err)
	}
}

// TestBatchWorkReuse runs batches of changing size and validity on one
// BatchWork and on fresh storage against twin registries: the outcomes are
// the same, whatever the storage held before.
func TestBatchWorkReuse(t *testing.T) {
	reused, fresh := New(Options{Procs: 1}), New(Options{Procs: 1})
	var w BatchWork
	ctx := context.Background()
	for round, n := range []int{40, 3, 64, 1, 0, 17, 64} {
		var ops []BatchOp
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("o%d", (i+round)%5)
			switch (i * (round + 1)) % 7 {
			case 0:
				ops = append(ops, BatchOp{Kind: KindCounter, Name: name, Op: OpInc})
			case 1:
				ops = append(ops, BatchOp{Kind: KindCounter, Name: name, Op: OpRead})
			case 2:
				ops = append(ops, BatchOp{Kind: KindSnapshot, Name: name, Op: OpUpdate, Value: fmt.Sprintf("r%d-%d", round, i)})
			case 3:
				ops = append(ops, BatchOp{Kind: KindSnapshot, Name: name, Op: OpScan})
			case 4:
				ops = append(ops, BatchOp{Kind: KindMaxRegister, Name: name, Op: OpWrite, Value: "not a number"})
			case 5:
				ops = append(ops, BatchOp{Kind: KindObject, Name: name, Op: OpExecute, Type: "counter", Invocation: "inc()"})
			case 6:
				ops = append(ops, BatchOp{Kind: KindCounter, Name: name, Op: OpNames})
			}
		}
		got, err := reused.BatchExecuteWith(ctx, ops, &w)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.BatchExecute(ctx, ops)
		if err != nil {
			t.Fatal(err)
		}
		if got.Leases != want.Leases || got.Leased != want.Leased || len(got.Results) != len(want.Results) {
			t.Fatalf("round %d: reused %+v, fresh %+v", round, got, want)
		}
		for i := range want.Results {
			g, f := got.Results[i], want.Results[i]
			if g.Value != f.Value || !reflect.DeepEqual(g.View, f.View) || fmt.Sprint(g.Err) != fmt.Sprint(f.Err) {
				t.Errorf("round %d op %d (%+v): reused %+v, fresh %+v", round, i, ops[i], g, f)
			}
		}
	}
}

// TestBatchWorkResetDropsReferences checks that a Reset BatchWork keeps its
// storage and nothing in it: no result, step, pool or instance of the batch
// it served is reachable from it.
func TestBatchWorkResetDropsReferences(t *testing.T) {
	a, _ := bracketKinds()
	r := New(Options{Procs: 2})
	var w BatchWork
	ops := []BatchOp{
		{Kind: KindSnapshot, Name: "s", Op: OpUpdate, Value: "v"},
		{Kind: KindSnapshot, Name: "s", Op: OpScan},
		{Kind: a, Name: "o", Op: "pid"},
		{Kind: KindCounter, Name: "c", Op: "nope"},
	}
	if _, err := r.BatchExecuteWith(context.Background(), ops, &w); err != nil {
		t.Fatal(err)
	}
	if len(w.results) != len(ops) || len(w.pools) != 2 {
		t.Fatalf("after the batch: %d results, %d pools", len(w.results), len(w.pools))
	}
	w.Reset()
	if cap(w.results) < len(ops) || cap(w.steps) < len(ops) || cap(w.pools) < 2 {
		t.Errorf("Reset gave storage away: caps %d %d %d", cap(w.results), cap(w.steps), cap(w.pools))
	}
	for i, res := range w.results[:cap(w.results)] {
		if res.Value != "" || res.View != nil || res.Err != nil {
			t.Errorf("result %d survives Reset: %+v", i, res)
		}
	}
	for i, st := range w.steps[:cap(w.steps)] {
		if st != (step{}) {
			t.Errorf("step %d survives Reset: %+v", i, st)
		}
	}
	for i, lp := range w.pools[:cap(w.pools)] {
		if lp != (leasedPool{}) {
			t.Errorf("pool %d survives Reset: %+v", i, lp)
		}
	}
}

//go:build !race

// The race detector changes what escapes, so allocation counts mean nothing
// under it.

package registry

import (
	"context"
	"fmt"
	"strconv"
	"testing"

	"slmem"
	_ "slmem/internal/bag" // the fifth kind of the http-batch64 mix
	"slmem/internal/kind"
)

// mixOps returns n ops in the proportions of the benchmark's http-batch64
// workload — per 64: 16 counter inc, 8 counter read, 8 maxreg write, 8
// snapshot update, 8 snapshot scan and 8 bag insert+remove pairs — over 64
// names per kind.
func mixOps(n int) []BatchOp {
	ops := make([]BatchOp, 0, n)
	for i := 0; len(ops) < n; i++ {
		name := "mix" + strconv.Itoa(i*7%64)
		switch slot := i % 56; {
		case slot < 16:
			ops = append(ops, BatchOp{Kind: KindCounter, Name: name, Op: OpInc})
		case slot < 24:
			ops = append(ops, BatchOp{Kind: KindCounter, Name: name, Op: OpRead})
		case slot < 32:
			ops = append(ops, BatchOp{Kind: KindMaxRegister, Name: name, Op: OpWrite, Value: strconv.Itoa(i)})
		case slot < 40:
			ops = append(ops, BatchOp{Kind: KindSnapshot, Name: name, Op: OpUpdate, Value: fmt.Sprintf("v%03d", i%1000)})
		case slot < 48:
			ops = append(ops, BatchOp{Kind: KindSnapshot, Name: name, Op: OpScan})
		default:
			ops = append(ops,
				BatchOp{Kind: "bag", Name: name, Op: "insert", Value: "item" + strconv.Itoa(i)},
				BatchOp{Kind: "bag", Name: name, Op: "remove"})
		}
	}
	return ops[:n]
}

// TestBatchExecuteAllocs pins what the batch loop itself allocates for a warm
// batch of the http-batch64 mix, at 64 ops and at 256: nothing on reused
// working storage — every allocation is one the same ops make when compiled
// and run directly as leased pids — and on fresh storage (BatchExecute) only
// that storage: results, steps, pools and their order.
func TestBatchExecuteAllocs(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{64, 256} {
		r := New(Options{Procs: 4})
		ops := mixOps(n)
		var w BatchWork
		reused := func() {
			if _, err := r.BatchExecuteWith(ctx, ops, &w); err != nil {
				t.Fatal(err)
			}
		}
		// Warming creates the objects and takes every counter a read formats
		// past 99, from where on the value is an allocation of its own in
		// every measurement.
		for i := 0; i < 128; i++ {
			reused()
		}

		type target struct {
			inst kind.Instance
			pool *slmem.PIDPool
			req  kind.Request
		}
		targets := make([]target, len(ops))
		pools := make(map[*slmem.PIDPool]int)
		for i, op := range ops {
			req := kind.Request{Op: string(op.Op), Value: op.Value}
			inst, pool, err := r.Get(op.Kind, op.Name, req)
			if err != nil {
				t.Fatal(err)
			}
			targets[i] = target{inst, pool, req}
			pools[pool] = -1
		}
		direct := func() {
			for pool := range pools {
				pid, err := pool.Acquire(ctx)
				if err != nil {
					t.Fatal(err)
				}
				pools[pool] = pid
			}
			for _, tg := range targets {
				c, err := tg.inst.Compile(tg.req)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := c.Run(pools[tg.pool]); err != nil {
					t.Fatal(err)
				}
			}
			for pool, pid := range pools {
				pool.Release(pid)
			}
		}

		opAllocs := testing.AllocsPerRun(200, direct)
		onReused := testing.AllocsPerRun(200, reused)
		onFresh := testing.AllocsPerRun(200, func() {
			if _, err := r.BatchExecute(ctx, ops); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d ops: %.0f allocs run directly, %.0f through BatchExecuteWith on reused storage, %.0f through BatchExecute",
			n, opAllocs, onReused, onFresh)
		if onReused != opAllocs {
			t.Errorf("%d ops: BatchExecuteWith on reused storage = %.0f allocs, the ops alone = %.0f: the batch loop allocates", n, onReused, opAllocs)
		}
		// Measured 6: results, steps, and the two pools with their order, each
		// of those two grown once.
		if extra := onFresh - opAllocs; extra > 6 {
			t.Errorf("%d ops: BatchExecute allocates %.0f times beyond its ops, want <= 6 (its working storage)", n, extra)
		}
	}
}

// TestOperandlessCompileAllocs: compiling an op that takes no operand
// allocates nothing, since its compiled step is one pointer, which an
// interface holds as it is.
func TestOperandlessCompileAllocs(t *testing.T) {
	r := New(Options{Procs: 2})
	for _, tc := range []struct {
		k  Kind
		op string
	}{
		{KindCounter, "inc"}, {KindCounter, "read"},
		{KindMaxRegister, "read"},
		{KindSnapshot, "scan"},
		{"bag", "remove"}, {"bag", "size"},
	} {
		req := kind.Request{Op: tc.op}
		inst, _, err := r.Get(tc.k, "operandless", req)
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(200, func() {
			if _, err := inst.Compile(req); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s %s: Compile = %.2f allocs, want 0", tc.k, tc.op, allocs)
		}
	}
}

// TestObjectCompileAllocs pins the compiled-op memo of an object instance: a
// repeated invocation compiles to the op its first validation built, without
// a dry run of the spec and without an allocation, and the memo is never the
// answer to a different request — two alternating invocations each run their
// own, a type mismatch is still a conflict and a bad invocation still an
// error of the caller's, whatever was compiled just before.
func TestObjectCompileAllocs(t *testing.T) {
	r := New(Options{Procs: 2})
	req := func(typ, inv string) kind.Request {
		return kind.Request{Op: string(OpExecute), Type: typ, Invocation: inv}
	}
	inst, pool, err := r.Get(KindObject, "memo", req("counter", "inc()"))
	if err != nil {
		t.Fatal(err)
	}
	inc := req("counter", "inc()")
	if _, err := inst.Compile(inc); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := inst.Compile(inc); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm Compile of a repeated invocation = %.2f allocs, want 0", allocs)
	}

	run := func(c kind.Compiled) string {
		t.Helper()
		var res kind.Result
		err := pool.With(context.Background(), func(pid int) (err error) {
			res, err = c.Run(pid)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Value
	}
	for i := 1; i <= 3; i++ {
		incOp, err := inst.Compile(inc)
		if err != nil {
			t.Fatal(err)
		}
		readOp, err := inst.Compile(req("counter", "read()"))
		if err != nil {
			t.Fatal(err)
		}
		// Run in the order compiled last first: each op is its own invocation.
		before := run(readOp)
		run(incOp)
		if after := run(readOp); before != strconv.Itoa(i-1) || after != strconv.Itoa(i) {
			t.Fatalf("round %d: read() = %s, inc(), read() = %s: an op ran another's invocation", i, before, after)
		}
	}
	if _, err := inst.Compile(inc); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Compile(req("set", "inc()")); !kind.IsConflict(err) {
		t.Errorf("memoized invocation under another type: err = %v, want a conflict", err)
	}
	if _, err := inst.Compile(req("counter", "bogus()")); err == nil || kind.IsConflict(err) || kind.IsNotFound(err) {
		t.Errorf("bad invocation after a memoized one: err = %v, want the spec's rejection", err)
	}
	if _, err := inst.Compile(inc); err != nil {
		t.Errorf("Compile after a rejected invocation: %v", err)
	}
}

package registry

import (
	"context"
	"fmt"
	"reflect"
	"testing"
)

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
		if got.Leases != want.Leases || len(got.Results) != len(want.Results) {
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
// storage and nothing in it: no result, step or instance of the batch it
// served is reachable from it.
func TestBatchWorkResetDropsReferences(t *testing.T) {
	g := gaugeKind(t)
	r := New(Options{Procs: 2})
	var w BatchWork
	ops := []BatchOp{
		{Kind: KindSnapshot, Name: "s", Op: OpUpdate, Value: "v"},
		{Kind: KindSnapshot, Name: "s", Op: OpScan},
		{Kind: g, Name: "g", Op: "bump"},
		{Kind: KindCounter, Name: "c", Op: "nope"},
	}
	if _, err := r.BatchExecuteWith(context.Background(), ops, &w); err != nil {
		t.Fatal(err)
	}
	if len(w.results) != len(ops) {
		t.Fatalf("after the batch: %d results", len(w.results))
	}
	w.Reset()
	if cap(w.results) < len(ops) || cap(w.steps) < len(ops) {
		t.Errorf("Reset gave storage away: caps %d %d", cap(w.results), cap(w.steps))
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
}

package registry

import (
	"context"
	"errors"
	"maps"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"slmem"
	"slmem/internal/kind"
)

func TestBatchExecuteMixedKinds(t *testing.T) {
	r := New(Options{Procs: 4})
	ctx := context.Background()
	before := r.Pool().Stats().Acquires

	ops := []BatchOp{
		{Kind: KindCounter, Name: "c", Op: OpInc},
		{Kind: KindCounter, Name: "c", Op: OpInc},
		{Kind: KindCounter, Name: "c", Op: OpRead},
		{Kind: KindMaxRegister, Name: "m", Op: OpWrite, Value: "41"},
		{Kind: KindMaxRegister, Name: "m", Op: OpWrite, Value: "7"},
		{Kind: KindMaxRegister, Name: "m", Op: OpRead},
		{Kind: KindSnapshot, Name: "s", Op: OpUpdate, Value: "hello"},
		{Kind: KindSnapshot, Name: "s", Op: OpScan},
		{Kind: KindObject, Name: "bag", Op: OpExecute, Type: "set", Invocation: "add(3)"},
		{Kind: KindObject, Name: "bag", Op: OpExecute, Type: "set", Invocation: "contains(3)"},
	}
	out, err := r.BatchExecute(ctx, ops)
	if err != nil {
		t.Fatal(err)
	}
	results := out.Results
	if len(results) != len(ops) {
		t.Fatalf("got %d results for %d ops", len(results), len(ops))
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("op %d failed: %v", i, res.Err)
		}
	}
	if results[2].Value != "2" {
		t.Errorf("counter read = %q, want 2", results[2].Value)
	}
	if results[5].Value != "41" {
		t.Errorf("maxreg read = %q, want 41", results[5].Value)
	}
	if len(results[7].View) != 4 {
		t.Errorf("scan view has %d components, want 4", len(results[7].View))
	}
	seen := false
	for _, v := range results[7].View {
		seen = seen || v == "hello"
	}
	if !seen {
		t.Errorf("update not visible in scan view %v", results[7].View)
	}
	if results[9].Value != "true" {
		t.Errorf("contains(3) = %q, want true", results[9].Value)
	}

	// The whole batch must have cost exactly one lease.
	if got := r.Pool().Stats().Acquires - before; got != 1 {
		t.Errorf("batch used %d lease acquisitions, want 1", got)
	}
	if r.Stats().PIDsInUse != 0 {
		t.Errorf("pids leaked after batch: %d in use", r.Stats().PIDsInUse)
	}
}

// TestRegistryBatchAlternatingKinds: entries that alternate between two kinds
// under one name each run on their own kind's instance — the counter counts
// only its incs, the max-register holds only its writes.
func TestRegistryBatchAlternatingKinds(t *testing.T) {
	r := New(Options{Procs: 2})
	ops := []BatchOp{
		{Kind: KindCounter, Name: "x", Op: OpInc},
		{Kind: KindMaxRegister, Name: "x", Op: OpWrite, Value: "5"},
		{Kind: KindCounter, Name: "x", Op: OpInc},
		{Kind: KindMaxRegister, Name: "x", Op: OpWrite, Value: "9"},
		{Kind: KindCounter, Name: "x", Op: OpInc},
		{Kind: KindMaxRegister, Name: "x", Op: OpWrite, Value: "3"},
		{Kind: KindCounter, Name: "x", Op: OpRead},
		{Kind: KindMaxRegister, Name: "x", Op: OpRead},
	}
	out, err := r.BatchExecute(context.Background(), ops)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range out.Results {
		if res.Err != nil {
			t.Fatalf("op %d (%s/%s %s) failed: %v", i, ops[i].Kind, ops[i].Name, ops[i].Op, res.Err)
		}
	}
	if got := out.Results[6].Value; got != "3" {
		t.Errorf("counter/x read = %q, want 3", got)
	}
	if got := out.Results[7].Value; got != "9" {
		t.Errorf("maxreg/x read = %q, want 9", got)
	}
	if objects := r.Stats().Objects; objects[string(KindCounter)] != 1 || objects[string(KindMaxRegister)] != 1 {
		t.Errorf("Stats().Objects = %v, want one counter and one maxreg", objects)
	}
}

func TestBatchExecutePartialFailure(t *testing.T) {
	r := New(Options{Procs: 2})
	ctx := context.Background()

	ops := []BatchOp{
		{Kind: KindCounter, Name: "c", Op: OpInc},
		{Kind: "stack", Name: "s", Op: "push"},                                            // unknown kind
		{Kind: KindCounter, Name: "c", Op: "dec"},                                         // unknown op
		{Kind: KindMaxRegister, Name: "m", Op: OpWrite, Value: "seven"},                   // bad operand
		{Kind: KindCounter, Name: "", Op: OpInc},                                          // empty name
		{Kind: KindObject, Name: "o", Op: OpExecute, Type: "queue", Invocation: "x()"},    // unknown type
		{Kind: KindObject, Name: "o2", Op: OpExecute, Type: "set", Invocation: "frob(1)"}, // bad invocation
		{Kind: KindCounter, Name: "c", Op: OpRead},
	}
	out, err := r.BatchExecute(ctx, ops)
	if err != nil {
		t.Fatal(err)
	}
	results := out.Results
	for _, i := range []int{1, 2, 3, 4, 5, 6} {
		if results[i].Err == nil {
			t.Errorf("op %d should have failed", i)
		}
	}
	if results[0].Err != nil || results[7].Err != nil {
		t.Fatalf("valid ops failed: %v / %v", results[0].Err, results[7].Err)
	}
	if results[7].Value != "1" {
		t.Errorf("read after partial failure = %q, want 1", results[7].Value)
	}

	// Doomed ops must not have registered objects: only the counter exists.
	st := r.Stats()
	for kind, count := range st.Objects {
		want := int64(0)
		if kind == string(KindCounter) {
			want = 1
		}
		if count != want {
			t.Errorf("created %d %s object(s), want %d", count, kind, want)
		}
	}
}

func TestBatchExecuteObjectTypeConflictWithinBatch(t *testing.T) {
	r := New(Options{Procs: 2})
	ops := []BatchOp{
		{Kind: KindObject, Name: "x", Op: OpExecute, Type: "set", Invocation: "add(1)"},
		{Kind: KindObject, Name: "x", Op: OpExecute, Type: "register", Invocation: "read()"},
	}
	out, err := r.BatchExecute(context.Background(), ops)
	if err != nil {
		t.Fatal(err)
	}
	results := out.Results
	if results[0].Err != nil {
		t.Fatalf("first op failed: %v", results[0].Err)
	}
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "already exists") {
		t.Fatalf("type conflict inside one batch not rejected: %v", results[1].Err)
	}
}

func TestBatchExecuteAllInvalidSkipsLease(t *testing.T) {
	r := New(Options{Procs: 2})
	out, err := r.BatchExecute(context.Background(), []BatchOp{
		{Kind: "stack", Name: "s", Op: "push"},
		{Kind: KindCounter, Name: "c", Op: "dec"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Leases != 0 {
		t.Error("all-invalid batch reported a lease")
	}
	results := out.Results
	for i, res := range results {
		if res.Err == nil {
			t.Errorf("op %d should have failed", i)
		}
	}
	if got := r.Pool().Stats().Acquires; got != 0 {
		t.Errorf("all-invalid batch acquired %d leases, want 0", got)
	}
}

func TestBatchExecuteEmpty(t *testing.T) {
	r := New(Options{Procs: 2})
	out, err := r.BatchExecute(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 0 {
		t.Fatalf("empty batch returned %d results", len(out.Results))
	}
	if out.Leases != 0 {
		t.Error("empty batch reported a lease")
	}
}

func TestBatchExecuteCancelledBeforeLease(t *testing.T) {
	r := New(Options{Procs: 1})
	ctx := context.Background()

	// Hold the only pid so the batch must queue, then cancel it.
	pid, err := r.Pool().Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() {
		_, err := r.BatchExecute(cctx, []BatchOp{{Kind: KindCounter, Name: "c", Op: OpInc}})
		done <- err
	}()
	cancel()
	if err := <-done; err == nil {
		t.Fatal("batch with cancelled lease wait returned nil error")
	}
	r.Pool().Release(pid)

	// The counter must not have been incremented.
	v, err := r.Counter("c").Read(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Fatalf("cancelled batch incremented counter to %d", v)
	}
}

// TestRegistryBatchCountsOps pins which entries a batch counts in Stats().Ops:
// every entry whose kind is registered, once the batch runs — valid or not,
// introspection included — and nothing for a kind that is not registered or
// for a batch refused as a whole.
func TestRegistryBatchCountsOps(t *testing.T) {
	r := New(Options{Procs: 1})
	ops := []BatchOp{
		{Kind: KindCounter, Name: "c", Op: OpInc},
		{Kind: KindMaxRegister, Name: "m", Op: OpWrite, Value: "x"}, // bad operand
		{Kind: KindCounter, Name: "", Op: OpInc},                    // empty name
		{Kind: KindSnapshot, Op: OpNames},
		{Kind: KindCounter, Op: OpStats},
		{Kind: "nosuchkind", Name: "x", Op: OpInc},
		{Op: OpStats}, // names no kind
	}
	out, err := r.BatchExecute(context.Background(), ops)
	if err != nil {
		t.Fatal(err)
	}
	for i, wantErr := range []bool{false, true, true, false, false, true, false} {
		if (out.Results[i].Err != nil) != wantErr {
			t.Errorf("entry %d: err = %v, want error %v", i, out.Results[i].Err, wantErr)
		}
	}
	want := map[string]int64{"counter": 3, "maxreg": 1, "snapshot": 1, "object": 0}
	counted := r.Stats().Ops
	for k, n := range want {
		if counted[k] != n {
			t.Errorf("ops[%s] = %d, want %d (all: %v)", k, counted[k], n, counted)
		}
	}
	if _, ok := counted["nosuchkind"]; ok {
		t.Errorf("ops counts an unregistered kind: %v", counted)
	}

	// A batch cancelled while it queues for the only pid counts nothing.
	pid, err := r.Pool().Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Pool().Release(pid)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := r.BatchExecute(ctx, ops)
		done <- err
	}()
	for r.Pool().Stats().Blocks == 0 {
		select {
		case err := <-done:
			t.Fatalf("batch returned %v before it queued for the lease", err)
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("batch cancelled in the lease queue: err = %v, want context.Canceled", err)
	}
	if got := r.Stats().Ops; !maps.Equal(got, counted) {
		t.Errorf("ops = %v after a batch cancelled in the lease queue, want %v", got, counted)
	}
}

// tripDriver is a test driver whose one op, trip, calls tripCancel: a batch
// holding it is cancelled between two of its ops, deterministically.
var (
	tripDriver = kind.Driver{
		Info: kind.Info{Kind: "testtrip", Doc: "test tripwire", Ops: []kind.OpInfo{{Name: "trip", Doc: "call tripCancel"}}},
		New:  func(kind.Env) (kind.Instance, error) { return tripwire{}, nil },
	}
	registerTrip sync.Once
	tripCancel   context.CancelFunc
)

type tripwire struct{}

func (tripwire) Compile(req kind.Request) (kind.Compiled, error) {
	if req.Op != "trip" {
		return nil, tripDriver.UnknownOp(req.Op)
	}
	return tripwire{}, nil
}

func (tripwire) Run(int) (kind.Result, error) {
	tripCancel()
	return kind.Result{Value: "tripped"}, nil
}

func TestBatchExecuteCancelledMidBatch(t *testing.T) {
	registerTrip.Do(func() { kind.Register(tripDriver) })
	r := New(Options{Procs: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tripCancel = cancel

	// Ops 0 and 1 run, op 2 cancels the batch's context, ops 3 and 4 see
	// the cancellation.
	ops := []BatchOp{
		{Kind: KindCounter, Name: "c", Op: OpInc},
		{Kind: KindCounter, Name: "c", Op: OpRead},
		{Kind: "testtrip", Name: "w", Op: "trip"},
		{Kind: KindCounter, Name: "c", Op: OpInc},
		{Kind: KindCounter, Name: "c", Op: OpRead},
	}
	out, err := r.BatchExecute(ctx, ops)
	if err != nil {
		t.Fatal(err)
	}
	results := out.Results
	if results[0].Err != nil || results[1].Err != nil || results[2].Err != nil {
		t.Fatalf("pre-cancellation ops failed: %v / %v / %v", results[0].Err, results[1].Err, results[2].Err)
	}
	if results[1].Value != "1" {
		t.Errorf("read before cancellation = %q, want 1", results[1].Value)
	}
	for _, i := range []int{3, 4} {
		if results[i].Err == nil || !errors.Is(results[i].Err, context.Canceled) {
			t.Errorf("op %d after cancellation: err = %v, want context.Canceled", i, results[i].Err)
		}
	}

	// Earlier results stand; later ops never ran.
	v, err := r.Counter("c").Read(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("counter = %d after mid-batch cancellation, want 1", v)
	}
	if r.Stats().PIDsInUse != 0 {
		t.Fatalf("pids leaked after cancelled batch: %d in use", r.Stats().PIDsInUse)
	}
}

func TestBatchExecuteConcurrentBatches(t *testing.T) {
	r := New(Options{Procs: 4})
	ctx := context.Background()
	const (
		goroutines = 8
		batches    = 10
		incsPer    = 16
	)
	ops := make([]BatchOp, incsPer)
	for i := range ops {
		ops[i] = BatchOp{Kind: KindCounter, Name: "shared", Op: OpInc}
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				out, err := r.BatchExecute(ctx, ops)
				if err != nil {
					t.Error(err)
					return
				}
				for _, res := range out.Results {
					if res.Err != nil {
						t.Error(res.Err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	v, err := r.Counter("shared").Read(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(goroutines * batches * incsPer); v != want {
		t.Fatalf("counter = %d, want %d (lost increments across concurrent batches)", v, want)
	}
	if r.Stats().PIDsInUse != 0 {
		t.Fatalf("pids leaked: %d in use", r.Stats().PIDsInUse)
	}
}

// --- per-op vs batched dispatch cost -----------------------------------------

func benchOps(size int) []BatchOp {
	ops := make([]BatchOp, size)
	for i := range ops {
		ops[i] = BatchOp{Kind: KindCounter, Name: "bench", Op: OpInc}
	}
	return ops
}

func BenchmarkRegistryPerOp(b *testing.B) {
	// The registry lookup stays inside the loop: the per-request server path
	// resolves the named object on every request, so the per-op baseline
	// must pay it too.
	r := New(Options{Procs: 8})
	ctx := context.Background()
	r.Counter("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Counter("bench").Inc(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRegistryBatch(b *testing.B) {
	for _, size := range []int{1, 8, 64} {
		b.Run("size-"+strconv.Itoa(size), func(b *testing.B) {
			r := New(Options{Procs: 8})
			ctx := context.Background()
			ops := benchOps(size)
			b.ResetTimer()
			for done := 0; done < b.N; done += size {
				if _, err := r.BatchExecute(ctx, ops); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestBatchExecuteDeadContextCreatesNoObjects(t *testing.T) {
	// The registry has no eviction, so a batch from an already-dead client
	// must fail before compilation — lazily creating objects for it would
	// leak them forever.
	r := New(Options{Procs: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := r.BatchExecute(ctx, []BatchOp{
		{Kind: KindCounter, Name: "ghost", Op: OpInc},
		{Kind: KindSnapshot, Name: "ghost", Op: OpUpdate, Value: "x"},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("dead-context batch error = %v, want context.Canceled", err)
	}
	st := r.Stats()
	for kind, count := range st.Objects {
		if count != 0 {
			t.Errorf("dead-context batch created %d %s object(s)", count, kind)
		}
	}
	if st.Pool.Acquires != 0 {
		t.Errorf("dead-context batch acquired %d leases, want 0", st.Pool.Acquires)
	}
}

// TestBatchExecuteAnchorsOncePerPid runs 64 executes as one BatchExecute and as
// one ExecuteMany against 64 single Executes on a twin registry, over types
// whose states grow past a counter's, GC on: the responses are byte-identical,
// the run holds one lease, every op replays from the anchor the one before it
// published as the same pid (all hits, no miss), and so does the next single
// read.
func TestBatchExecuteAnchorsOncePerPid(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		typ  string
		warm string
		inv  func(i int) string
		read string
	}{
		{"set", "add(w)", func(i int) string { return []string{"add(e", "contains(e"}[i%2] + strconv.Itoa(i/2) + ")" }, "contains(e3)"},
		{"register", "write(w)", func(i int) string {
			if i%3 == 2 {
				return "read()"
			}
			return "write(value-" + strconv.Itoa(i) + ")"
		}, "read()"},
		{"accumulator", "addTo(1)", func(i int) string { return "addTo(" + strconv.Itoa(1000*i) + ")" }, "read()"},
	} {
		invs := make([]string, 64)
		for i := range invs {
			invs[i] = tc.inv(i)
		}
		for _, mode := range []string{"BatchExecute", "ExecuteMany"} {
			t.Run(tc.typ+"/"+mode, func(t *testing.T) {
				r, twin := New(Options{Procs: 4}), New(Options{Procs: 4})
				pooled, err := r.Object("o", tc.typ)
				if err != nil {
					t.Fatal(err)
				}
				single, err := twin.Object("o", tc.typ)
				if err != nil {
					t.Fatal(err)
				}
				obj := pooled.Unpooled()
				if !obj.GCEnabled() {
					t.Fatal("registry-created universal object should have GC enabled by its driver")
				}
				// Warm every pid of both, so whichever pid the run leases has an
				// anchor to start from.
				for _, o := range []*slmem.PooledObject{pooled, single} {
					for pid := 0; pid < 4; pid++ {
						if _, err := o.Unpooled().Execute(pid, tc.warm); err != nil {
							t.Fatal(err)
						}
					}
				}
				before, leases := obj.CacheStats(), r.Stats().Pool.Acquires

				var got []string
				if mode == "ExecuteMany" {
					if got, err = pooled.ExecuteMany(ctx, invs); err != nil {
						t.Fatal(err)
					}
				} else {
					ops := make([]BatchOp, len(invs))
					for i, inv := range invs {
						ops[i] = BatchOp{Kind: KindObject, Name: "o", Op: OpExecute, Type: tc.typ, Invocation: inv}
					}
					out, err := r.BatchExecute(ctx, ops)
					if err != nil {
						t.Fatal(err)
					}
					if out.Leases != 1 {
						t.Errorf("batch took %d leases, want 1", out.Leases)
					}
					for i, res := range out.Results {
						if res.Err != nil {
							t.Fatalf("op %d failed: %v", i, res.Err)
						}
						got = append(got, res.Value)
					}
				}
				if n := r.Stats().Pool.Acquires - leases; n != 1 {
					t.Errorf("run acquired %d leases, want 1", n)
				}
				for i, inv := range invs {
					want, err := single.Execute(ctx, inv)
					if err != nil {
						t.Fatal(err)
					}
					if got[i] != want {
						t.Errorf("op %d %s: batched %q, single %q", i, inv, got[i], want)
					}
				}
				if st := obj.CacheStats(); st.Hits-before.Hits != 64 || st.Misses != 0 {
					t.Errorf("cache over the run: %+v after %+v, want 64 more hits and no miss", st, before)
				}

				// The next single op starts from the run's last anchor.
				gotRead, err := pooled.Execute(ctx, tc.read)
				if err != nil {
					t.Fatal(err)
				}
				if want, _ := single.Execute(ctx, tc.read); gotRead != want {
					t.Errorf("%s after the run = %q, single %q", tc.read, gotRead, want)
				}
				if st := obj.CacheStats(); st.Hits-before.Hits != 65 || st.Misses != 0 {
					t.Errorf("cache after the next single op: %+v, want one more hit", st)
				}
			})
		}
	}
}

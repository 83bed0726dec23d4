package registry

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"slmem/internal/kind"
)

// gaugeDriver is a test driver whose instances count op executions; it
// requests a dedicated per-kind pool so the multi-pool batch path is
// exercised without importing any real kind.
type gaugeDriver struct{}

func (gaugeDriver) Kind() string { return "testgauge" }
func (gaugeDriver) Doc() string  { return "test gauge" }
func (gaugeDriver) Ops() []kind.OpInfo {
	return []kind.OpInfo{{Name: "bump", Doc: "bump the gauge"}}
}
func (gaugeDriver) Options() kind.Options { return kind.Options{DedicatedPool: true} }
func (gaugeDriver) Validate(req kind.Request) error {
	if req.Op != "bump" {
		return kind.NotFound("testgauge has no operation %q (want bump)", req.Op)
	}
	return nil
}
func (gaugeDriver) New(env kind.Env) (kind.Instance, error) {
	return &gaugeInstance{}, nil
}

type gaugeInstance struct{ bumps atomic.Int64 }

func (g *gaugeInstance) Compile(req kind.Request) (kind.Compiled, error) {
	if req.Op != "bump" {
		return nil, kind.NotFound("testgauge has no operation %q (want bump)", req.Op)
	}
	return gaugeBump{g}, nil
}

type gaugeBump struct{ g *gaugeInstance }

func (b gaugeBump) Run(pid int) (kind.Result, error) {
	b.g.bumps.Add(1)
	return kind.Result{Value: "bumped"}, nil
}

var registerGauge sync.Once

func gaugeKind(t *testing.T) Kind {
	t.Helper()
	registerGauge.Do(func() { kind.Register(gaugeDriver{}) })
	return "testgauge"
}

func TestGetDedicatedPool(t *testing.T) {
	k := gaugeKind(t)
	r := New(Options{Procs: 3})
	_, pool, err := r.Get(k, "g1", kind.Request{Op: "bump"})
	if err != nil {
		t.Fatal(err)
	}
	if pool == r.Pool() {
		t.Fatal("dedicated-pool driver got the shared pool")
	}
	if pool.Size() != 3 {
		t.Fatalf("dedicated pool size = %d, want Procs=3", pool.Size())
	}
	// A second instance of the same kind shares the kind pool.
	_, pool2, err := r.Get(k, "g2", kind.Request{Op: "bump"})
	if err != nil {
		t.Fatal(err)
	}
	if pool2 != pool {
		t.Fatal("two instances of one dedicated-pool kind got different pools")
	}
	// A shared-pool kind still gets the shared pool.
	_, cpool, err := r.Get(KindCounter, "c", kind.Request{Op: "inc"})
	if err != nil {
		t.Fatal(err)
	}
	if cpool != r.Pool() {
		t.Fatal("builtin kind not on the shared pool")
	}
	st := r.Stats()
	kp, ok := st.KindPools["testgauge"]
	if !ok {
		t.Fatalf("stats missing dedicated pool: %+v", st.KindPools)
	}
	if kp.Procs != 3 || kp.PIDsInUse != 0 {
		t.Fatalf("kind pool stats = %+v", kp)
	}
}

func TestBatchMixedPoolsOneLeaseEach(t *testing.T) {
	k := gaugeKind(t)
	r := New(Options{Procs: 2})
	ctx := context.Background()

	ops := []BatchOp{
		{Kind: KindCounter, Name: "c", Op: OpInc},
		{Kind: k, Name: "g", Op: "bump"},
		{Kind: KindCounter, Name: "c", Op: OpRead},
		{Kind: k, Name: "g", Op: "bump"},
	}
	out, err := r.BatchExecute(ctx, ops)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range out.Results {
		if res.Err != nil {
			t.Fatalf("op %d failed: %v", i, res.Err)
		}
	}
	if out.Results[1].Value != "bumped" || out.Results[2].Value != "1" {
		t.Fatalf("results = %+v", out.Results)
	}
	if out.Leases != 2 || !out.Leased {
		t.Fatalf("leases = %d (leased=%v), want 2 (one per pool)", out.Leases, out.Leased)
	}
	if got := r.Pool().Stats().Acquires; got != 1 {
		t.Errorf("shared pool acquires = %d, want 1", got)
	}
	st := r.Stats()
	if kp := st.KindPools["testgauge"]; kp.Pool.Acquires != 1 {
		t.Errorf("kind pool acquires = %d, want 1", kp.Pool.Acquires)
	}
	if st.PIDsInUse != 0 {
		t.Errorf("shared pids leaked: %d", st.PIDsInUse)
	}
	if kp := st.KindPools["testgauge"]; kp.PIDsInUse != 0 {
		t.Errorf("kind pids leaked: %d", kp.PIDsInUse)
	}
}

func TestBatchIntrospectionEntries(t *testing.T) {
	r := New(Options{Procs: 2})
	ctx := context.Background()
	before := r.Pool().Stats().Acquires

	// Introspection-only batches lease nothing.
	out, err := r.BatchExecute(ctx, []BatchOp{
		{Kind: KindCounter, Op: OpNames},
		{Op: OpStats},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Leased || out.Leases != 0 {
		t.Errorf("introspection-only batch leased: %+v", out)
	}
	if len(out.Results[0].View) != 0 {
		t.Errorf("names of empty registry = %v", out.Results[0].View)
	}
	var st Stats
	if err := json.Unmarshal([]byte(out.Results[1].Value), &st); err != nil {
		t.Fatalf("stats entry is not JSON: %v\n%s", err, out.Results[1].Value)
	}
	if st.Procs != 2 {
		t.Errorf("stats procs = %d, want 2", st.Procs)
	}
	if got := r.Pool().Stats().Acquires - before; got != 0 {
		t.Errorf("introspection batch acquired %d leases", got)
	}

	// Mixed: introspection sees the effects of earlier ops in the batch.
	out, err = r.BatchExecute(ctx, []BatchOp{
		{Kind: KindCounter, Name: "c1", Op: OpInc},
		{Kind: KindCounter, Name: "c2", Op: OpInc},
		{Kind: KindCounter, Op: OpNames},
		{Op: OpStats},
		{Kind: "nope", Op: OpNames}, // unknown kind is a per-entry error
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Results[2].View; len(got) != 2 || got[0] != "c1" || got[1] != "c2" {
		t.Errorf("names mid-batch = %v, want [c1 c2]", got)
	}
	if err := json.Unmarshal([]byte(out.Results[3].Value), &st); err != nil {
		t.Fatal(err)
	}
	if st.Objects["counter"] != 2 {
		t.Errorf("stats mid-batch counted %d counters, want 2", st.Objects["counter"])
	}
	if out.Results[4].Err == nil || !strings.Contains(out.Results[4].Err.Error(), "unknown object kind") {
		t.Errorf("names of unknown kind: err = %v", out.Results[4].Err)
	}
	if out.Leases != 1 {
		t.Errorf("mixed batch leases = %d, want 1", out.Leases)
	}
}

// TestGetConcurrentFirstUse races first-use creation through the generic
// driver path (run under -race): all goroutines must agree on one instance
// and the created counter must see exactly one creation.
func TestGetConcurrentFirstUse(t *testing.T) {
	k := gaugeKind(t)
	r := New(Options{Procs: 2})
	const goroutines = 32
	insts := make(chan kind.Instance, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			inst, _, err := r.Get(k, "hot", kind.Request{Op: "bump"})
			if err != nil {
				t.Error(err)
				return
			}
			insts <- inst
		}()
	}
	wg.Wait()
	close(insts)
	first := <-insts
	for inst := range insts {
		if inst != first {
			t.Fatal("concurrent first use created distinct instances")
		}
	}
	if n := r.Stats().Objects["testgauge"]; n != 1 {
		t.Fatalf("created %d instances, want 1", n)
	}
}

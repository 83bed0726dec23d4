package registry

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"slmem"
	"slmem/internal/bag" // registers the bag kind; the churn test reads its stats
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

// TestDriverPathSpaceBounds holds the two bounded-space mechanisms to their
// bounds where a served request meets them: objects created by their
// drivers through Get, operations compiled by the instance and run under
// leases of the pool Get returned. The packages' own churn tests drive bare
// objects they configure themselves; what this adds is that the driver
// switches the mechanism on.
func TestDriverPathSpaceBounds(t *testing.T) {
	const procs = 8
	ctx := context.Background()
	r := New(Options{Procs: procs})

	// The collector cuts below the minimum over all pids' watermarks, so an
	// idle pid pins the graph: every pid of the pool is leased and they take
	// turns.
	t.Run("object", func(t *testing.T) {
		const ops = 20000
		req := kind.Request{Op: "execute", Type: "counter", Invocation: "inc()"}
		inst, pool, err := r.Get(KindObject, "gc-churn", req)
		if err != nil {
			t.Fatal(err)
		}
		inc, err := inst.Compile(req)
		if err != nil {
			t.Fatal(err)
		}
		pids := make([]int, procs)
		for i := range pids {
			if pids[i], err = pool.Acquire(ctx); err != nil {
				t.Fatal(err)
			}
			defer pool.Release(pids[i])
		}
		for i := 0; i < ops; i++ {
			if _, err := inc.Run(pids[i%procs]); err != nil {
				t.Fatalf("inc %d: %v", i, err)
			}
		}
		pooled, err := r.Object("gc-churn", "counter")
		if err != nil {
			t.Fatal(err)
		}
		obj := pooled.Unpooled()
		st := obj.GCStats(pids[0])
		if limit := 3 * procs * slmem.DefaultObjectGCWindow; st.LiveNodes > limit {
			t.Errorf("LiveNodes = %d after %d ops, want <= %d (3 x procs x window)", st.LiveNodes, ops, limit)
		}
		if st.Truncations == 0 {
			t.Errorf("no truncation in %d ops: %+v", ops, st)
		}
		if st.CoverageFailures+st.ReplayFailures != 0 {
			t.Errorf("truncation protocol failed: %+v", st)
		}
		if v, err := obj.Execute(pids[0], "read()"); err != nil || v != "20000" {
			t.Errorf("read() = %q, %v after %d incs", v, err, ops)
		}
	})

	// Every insert is followed by a remove under the same lease, so claimed
	// chunks recycle and the live cells stay a few chunks however many items
	// pass through.
	t.Run("bag", func(t *testing.T) {
		const rounds = 50 * 64 // 50 chunks of items
		insReq := kind.Request{Op: "insert", Value: "churn"}
		inst, pool, err := r.Get("bag", "churn", insReq)
		if err != nil {
			t.Fatal(err)
		}
		ins, err := inst.Compile(insReq)
		if err != nil {
			t.Fatal(err)
		}
		rem, err := inst.Compile(kind.Request{Op: "remove"})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rounds; i++ {
			if err := pool.With(ctx, func(pid int) error {
				if _, err := ins.Run(pid); err != nil {
					return err
				}
				_, err := rem.Run(pid)
				return err
			}); err != nil {
				t.Fatalf("round %d: %v", i, err)
			}
		}
		st, err := inst.(kind.Unwrapper).Unwrap().(*bag.PooledBag).Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Published != rounds {
			t.Errorf("Published = %d, want %d", st.Published, rounds)
		}
		if st.LiveCells > 1024 {
			t.Errorf("LiveCells = %d after %d insert+remove rounds, want <= 1024", st.LiveCells, rounds)
		}
	})
}

// TestDriverContract holds every registered driver to what the layers above
// rely on, enumerating kind.Describe rather than naming kinds: a kind
// registered tomorrow is covered as it stands, provided one of its ops is
// accepted with one of the candidate operand sets below.
func TestDriverContract(t *testing.T) {
	const undeclared = "no-such-op"
	ctx := context.Background()
	r := New(Options{Procs: 2})
	sawBag := false
	for _, info := range kind.Describe() {
		sawBag = sawBag || info.Kind == "bag"
		d, ok := kind.Lookup(info.Kind)
		if !ok {
			t.Fatalf("Describe lists %q, Lookup does not find it", info.Kind)
		}
		if err := d.Validate(kind.Request{Op: undeclared}); !kind.IsNotFound(err) {
			t.Errorf("%s: Validate of an undeclared op = %v, want NotFound", info.Kind, err)
		}
		// An operand error is fine, NotFound is not; the first request
		// Validate accepts creates the instance.
		var accepted kind.Request
		for _, op := range info.Ops {
			if err := d.Validate(kind.Request{Op: op.Name}); kind.IsNotFound(err) {
				t.Errorf("%s: Validate of declared op %q = %v", info.Kind, op.Name, err)
			}
			for _, req := range []kind.Request{
				{Op: op.Name},
				{Op: op.Name, Value: "1"},
				{Op: op.Name, Type: "counter", Invocation: "inc()"},
			} {
				if accepted.Op == "" && d.Validate(req) == nil {
					accepted = req
				}
			}
		}
		if accepted.Op == "" {
			t.Errorf("%s: no candidate request passes Validate; add operands its ops accept", info.Kind)
			continue
		}
		inst, pool, err := r.Get(Kind(info.Kind), "contract", accepted)
		if err != nil {
			t.Errorf("%s: Get(%+v): %v", info.Kind, accepted, err)
			continue
		}
		if _, err := inst.Compile(kind.Request{Op: undeclared}); !kind.IsNotFound(err) {
			t.Errorf("%s: Compile of an undeclared op = %v, want NotFound", info.Kind, err)
		}
		for _, op := range info.Ops {
			if _, err := inst.Compile(kind.Request{Op: op.Name}); kind.IsNotFound(err) {
				t.Errorf("%s: Compile of declared op %q = %v", info.Kind, op.Name, err)
			}
		}
		step, err := inst.Compile(accepted)
		if err != nil {
			t.Errorf("%s: Compile(%+v): %v", info.Kind, accepted, err)
			continue
		}
		if err := pool.With(ctx, func(pid int) error {
			_, err := step.Run(pid)
			return err
		}); err != nil {
			t.Errorf("%s: Run(%+v): %v", info.Kind, accepted, err)
		}
	}
	if !sawBag {
		t.Error("bag is not among the described kinds")
	}
}

package registry

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slmem"
	"slmem/internal/bag" // registers the bag kind; the churn test reads its stats
	"slmem/internal/kind"
)

// gaugeDriver is a test driver whose instances count op executions, so the
// driver path is exercised with a kind the registry was not built with.
var gaugeDriver = kind.Driver{
	Info: kind.Info{Kind: "testgauge", Doc: "test gauge", Ops: []kind.OpInfo{{Name: "bump", Doc: "bump the gauge"}}},
	New:  func(kind.Env) (kind.Instance, error) { return &gaugeInstance{}, nil },
}

type gaugeInstance struct{ bumps atomic.Int64 }

func (g *gaugeInstance) Compile(req kind.Request) (kind.Compiled, error) {
	if req.Op != "bump" {
		return nil, gaugeDriver.UnknownOp(req.Op)
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
	registerGauge.Do(func() { kind.Register(gaugeDriver) })
	return "testgauge"
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
	if out.Leases != 1 {
		t.Fatalf("leases = %d, want 1 (one pool for every kind)", out.Leases)
	}
	if got := r.Pool().Stats().Acquires; got != 1 {
		t.Errorf("shared pool acquires = %d, want 1", got)
	}
	if st := r.Stats(); st.PIDsInUse != 0 || len(st.KindPools) != 0 {
		t.Errorf("after the batch: %d pids in use, kind pools %v", st.PIDsInUse, st.KindPools)
	}
}

// TestRegistryHotKindDoesNotStarveAnother holds the one shared pool to
// starvation-freedom across kinds: at one pid, bag batches still finish
// while a counter hogs the pool, because the pool hands a released pid to
// the oldest waiter.
func TestRegistryHotKindDoesNotStarveAnother(t *testing.T) {
	const batches = 200
	r := New(Options{Procs: 1})
	ctx := context.Background()

	stop, leased := make(chan struct{}), make(chan struct{})
	hotIncs := make(chan int64, 1)
	go func() {
		var incs int64
		defer func() { hotIncs <- incs }()
		req := kind.Request{Op: "inc"}
		for {
			select {
			case <-stop:
				return
			default:
			}
			inst, pool, err := r.Get(KindCounter, "hot", req)
			if err != nil {
				t.Error(err)
				return
			}
			inc, err := inst.Compile(req)
			if err != nil {
				t.Error(err)
				return
			}
			if err := pool.With(ctx, func(pid int) error {
				_, err := inc.Run(pid)
				if incs == 0 {
					close(leased)
					// Hold the first lease until the bag side has queued for
					// it (bounded, so a broken pool fails the Blocks check
					// below rather than hanging): that check then measures a
					// real queued acquisition, not the scheduler's timing.
					for deadline := time.Now().Add(5 * time.Second); r.Pool().Stats().Blocks == 0 && time.Now().Before(deadline); {
						time.Sleep(time.Millisecond)
					}
				}
				// Yield while leased, so even at GOMAXPROCS=1 the bag side
				// finds the pid taken.
				runtime.Gosched()
				return err
			}); err != nil {
				t.Error(err)
				return
			}
			incs++
		}
	}()

	// The bag side starts once the counter holds the pid.
	<-leased
	cold := make(chan error, 1)
	go func() {
		var w BatchWork
		for i := 0; i < batches; i++ {
			item := "item-" + strconv.Itoa(i)
			out, err := r.BatchExecuteWith(ctx, []BatchOp{
				{Kind: "bag", Name: "cold", Op: "insert", Value: item},
				{Kind: "bag", Name: "cold", Op: "remove"},
			}, &w)
			if err != nil {
				cold <- err
				return
			}
			if res := out.Results; res[0].Err != nil || res[1].Err != nil || res[1].Value != item || out.Leases != 1 {
				cold <- fmt.Errorf("batch %d: %+v, leases %d; want %q removed under one lease", i, res, out.Leases, item)
				return
			}
		}
		cold <- nil
	}()
	select {
	case err := <-cold:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("bag batches starved behind a hot counter on the shared pool")
	}
	close(stop)
	incs := <-hotIncs

	if blocks := r.Pool().Stats().Blocks; blocks == 0 {
		t.Error("no acquisition blocked: the bag batches never queued behind the counter")
	}
	out, err := r.BatchExecute(ctx, []BatchOp{{Kind: "bag", Name: "cold", Op: "size"}})
	if err != nil || out.Results[0].Value != "0" {
		t.Errorf("bag size after %d insert+remove batches = %+v, %v; want 0", batches, out.Results, err)
	}
	if got := r.Counter("hot").Unpooled().Read(0); got != uint64(incs) {
		t.Errorf("hot counter = %d, want %d", got, incs)
	}
	if n := r.Pool().InUse(); n != 0 {
		t.Errorf("%d pids in use after both sides stopped", n)
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
	if out.Leases != 0 {
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

// lateKinds numbers the kinds TestRegistryKindRegisteredAfterFirstGet
// registers: a kind name registers once per process, and the test may run
// more than once in one.
var lateKinds atomic.Int64

// TestRegistryKindRegisteredAfterFirstGet: the registry publishes a new copy
// of its kind map on each kind's first use, so a kind registered after the
// registry has made tables for others still resolves, the tables made before
// stay, and concurrent first uses of the new kind make one table.
func TestRegistryKindRegisteredAfterFirstGet(t *testing.T) {
	r := New(Options{Procs: 2})
	counter := r.Counter("early")
	k := Kind(fmt.Sprintf("testlate%d", lateKinds.Add(1)))
	if _, _, err := r.Get(k, "x", kind.Request{}); !kind.IsNotFound(err) {
		t.Fatalf("Get of an unregistered kind: %v, want a not-found error", err)
	}
	d := gaugeDriver
	d.Kind = string(k)
	kind.Register(d)

	const goroutines = 16
	tables := make(chan *table, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tb, ok := r.table(k)
			if !ok {
				t.Errorf("kind %s registered after the first Get does not resolve", k)
			}
			tables <- tb
		}()
	}
	wg.Wait()
	close(tables)
	first := <-tables
	for tb := range tables {
		if tb != first || tb == nil {
			t.Fatal("concurrent first uses of one kind made distinct tables")
		}
	}
	if _, _, err := r.Get(k, "x", kind.Request{}); err != nil {
		t.Fatal(err)
	}
	if r.Counter("early") != counter {
		t.Fatal("a table made before the kind map was copied was lost")
	}
	if st := r.Stats(); st.Objects[string(k)] != 1 || st.Objects["counter"] != 1 {
		t.Fatalf("created %v, want one %s and one counter", st.Objects, k)
	}
}

// slowNew is the gauge's New for another kind name: for a name with a hook
// in slowHooks, it counts the call and waits for the hook's gate to close, so
// a test can hold a creation open while it does other things.
func slowNew(env kind.Env) (kind.Instance, error) {
	if h, ok := slowHooks.Load(env.Name); ok {
		h := h.(*slowHook)
		h.calls.Add(1)
		h.entered <- struct{}{}
		<-h.gate
	}
	return &gaugeInstance{}, nil
}

type slowHook struct {
	calls   atomic.Int64
	entered chan struct{} // one send per New call
	gate    chan struct{}
}

var (
	registerSlow sync.Once
	slowHooks    sync.Map // object name → *slowHook
	slowNames    atomic.Int64
)

// slowKind registers the slow driver once per process and hooks a fresh
// name, whose New calls (at most calls of them) wait for close(h.gate).
func slowKind(t *testing.T, calls int) (Kind, string, *slowHook) {
	t.Helper()
	registerSlow.Do(func() {
		d := gaugeDriver
		d.Kind, d.New = "testslow", slowNew
		kind.Register(d)
	})
	name := fmt.Sprintf("slow-%d", slowNames.Add(1))
	h := &slowHook{entered: make(chan struct{}, calls), gate: make(chan struct{})}
	slowHooks.Store(name, h)
	t.Cleanup(func() { slowHooks.Delete(name) })
	return "testslow", name, h
}

// TestRegistrySlowNewDoesNotBlockAnotherName holds one name's New open and
// meanwhile makes a first use of another name: creation takes no
// registry-wide lock, so the second must not wait for the first.
func TestRegistrySlowNewDoesNotBlockAnotherName(t *testing.T) {
	k, name, h := slowKind(t, 1)
	r := New(Options{Procs: 2})
	release := sync.OnceFunc(func() { close(h.gate) })
	defer release()

	slow := make(chan error, 1)
	go func() {
		_, _, err := r.Get(k, name, kind.Request{Op: "bump"})
		slow <- err
	}()
	<-h.entered
	other := make(chan struct{})
	go func() {
		r.Counter("other")
		close(other)
	}()
	select {
	case <-other:
	case <-time.After(5 * time.Second):
		release()
		t.Fatal("a first use of another name waited for a slow New")
	}
	release()
	if err := <-slow; err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Objects[string(k)] != 1 || st.Objects["counter"] != 1 {
		t.Fatalf("created %v, want one %s and one counter", st.Objects, k)
	}
}

// TestRegistryConcurrentFirstUseOneInstance races first uses of one name
// through a New that waits until every racer has called it, or until a
// grace period has passed. However many instances get built, every caller
// gets the same one and it is counted once.
func TestRegistryConcurrentFirstUseOneInstance(t *testing.T) {
	const goroutines = 8
	k, name, h := slowKind(t, goroutines)
	r := New(Options{Procs: 2})

	insts := make(chan kind.Instance, goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			inst, _, err := r.Get(k, name, kind.Request{Op: "bump"})
			if err != nil {
				t.Error(err)
			}
			insts <- inst
		}()
	}
	<-h.entered
	for grace := time.Now().Add(200 * time.Millisecond); h.calls.Load() < goroutines && time.Now().Before(grace); {
		time.Sleep(time.Millisecond)
	}
	close(h.gate)
	first := <-insts
	for g := 1; g < goroutines; g++ {
		if inst := <-insts; inst != first || inst == nil {
			t.Fatal("concurrent first use returned distinct instances")
		}
	}
	if n := r.Stats().Objects[string(k)]; n != 1 {
		t.Fatalf("created %d instances, want 1", n)
	}
	t.Logf("%d racers, %d calls to New", goroutines, h.calls.Load())
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

// TestUnknownOpErrors pins every built-in kind's unknown-op reply: Validate
// and a direct Compile (how the matrix's and slload's in-process targets
// call it) return the same NotFound, with the text clients have always seen.
func TestUnknownOpErrors(t *testing.T) {
	r := New(Options{Procs: 2})
	for _, tc := range []struct {
		k      Kind
		create kind.Request
		want   string
	}{
		{KindCounter, kind.Request{}, `counter has no operation "bogus" (want inc or read)`},
		{KindMaxRegister, kind.Request{}, `maxreg has no operation "bogus" (want write or read)`},
		{KindSnapshot, kind.Request{}, `snapshot has no operation "bogus" (want update or scan)`},
		{KindObject, kind.Request{Type: "counter"}, `object has no operation "bogus" (want execute)`},
		{"bag", kind.Request{}, `bag has no operation "bogus" (want insert, remove, or size)`},
	} {
		d, ok := kind.Lookup(string(tc.k))
		if !ok {
			t.Fatalf("%s is not registered", tc.k)
		}
		inst, _, err := r.Get(tc.k, "unknown-op", tc.create)
		if err != nil {
			t.Fatal(err)
		}
		bogus := tc.create
		bogus.Op = "bogus"
		_, compileErr := inst.Compile(bogus)
		for via, err := range map[string]error{"Validate": d.Validate(bogus), "Compile": compileErr} {
			if !kind.IsNotFound(err) || err.Error() != tc.want {
				t.Errorf("%s: %s = %v, want NotFound %q", tc.k, via, err, tc.want)
			}
		}
	}
}

// TestDriverContract holds every registered driver to what the layers above
// rely on, enumerating kind.Describe rather than naming kinds: a kind
// registered tomorrow is covered as it stands, provided one of its ops is
// accepted with one of the candidate operand sets below. That includes
// leasing from the registry's one pool: a batch mixing the kind with a
// counter is one lease.
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
		out, err := r.BatchExecute(ctx, []BatchOp{
			{Kind: KindCounter, Name: "contract", Op: OpInc},
			{Kind: Kind(info.Kind), Name: "contract", Op: Op(accepted.Op), Value: accepted.Value, Type: accepted.Type, Invocation: accepted.Invocation},
		})
		if err != nil {
			t.Errorf("%s: batch with a counter: %v", info.Kind, err)
			continue
		}
		for i, res := range out.Results {
			if res.Err != nil {
				t.Errorf("%s: batch with a counter, op %d: %v", info.Kind, i, res.Err)
			}
		}
		if out.Leases != 1 || r.Pool().InUse() != 0 {
			t.Errorf("%s: batch with a counter took %d leases and left %d pids in use, want 1 and 0", info.Kind, out.Leases, r.Pool().InUse())
		}
	}
	if !sawBag {
		t.Error("bag is not among the described kinds")
	}
}

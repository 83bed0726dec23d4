package kind

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"slmem"
)

// runs numbers the names these tests register: the registry is global and
// refuses a name twice, and -cpu 1,4 or -count 2 runs every test twice in
// one process.
var runs atomic.Int64

func fresh(name string) string { return fmt.Sprintf("%s-%d", name, runs.Add(1)) }

// stub is a minimal driver for registration tests.
func stub(name string, ops ...OpInfo) Driver {
	return Driver{
		Info: Info{Kind: name, Doc: "stub", Ops: ops},
		New:  func(Env) (Instance, error) { return stubInstance{}, nil },
	}
}

type stubInstance struct{}

func (stubInstance) Compile(req Request) (Compiled, error) {
	return stubCompiled{}, nil
}

type stubCompiled struct{}

func (stubCompiled) Run(pid int) (Result, error) { return Result{Value: "stub"}, nil }

func TestRegisterLookupDescribe(t *testing.T) {
	alpha := fresh("test-alpha")
	Register(stub(alpha, OpInfo{Name: "poke", Doc: "pokes"}))
	got, ok := Lookup(alpha)
	if !ok {
		t.Fatal("registered driver not found")
	}
	if got.Kind != alpha {
		t.Fatalf("Lookup returned driver %q", got.Kind)
	}
	if _, ok := Lookup("test-never-registered"); ok {
		t.Fatal("unregistered kind found")
	}
	found := false
	for _, info := range Describe() {
		if info.Kind == alpha {
			found = true
			if len(info.Ops) != 1 || info.Ops[0].Name != "poke" {
				t.Fatalf("Describe ops = %+v", info.Ops)
			}
		}
	}
	if !found {
		t.Fatal("Describe omits registered driver")
	}
}

func TestRegisterRejectsBadDrivers(t *testing.T) {
	mustPanic := func(name string, d Driver) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		Register(d)
	}
	mustPanic("empty name", stub(""))
	mustPanic("slash in name", stub("a/b"))
	mustPanic("reserved op", stub("test-reserved", OpInfo{Name: "names"}))
	mustPanic("nil New", Driver{Info: Info{Kind: fresh("test-no-new")}})

	dup := fresh("test-dup")
	Register(stub(dup))
	mustPanic("duplicate", stub(dup))
}

// TestRegisterOwnsOpTable: a caller that writes its Driver's op table after
// Register changes neither what Describe reports nor what Validate accepts.
func TestRegisterOwnsOpTable(t *testing.T) {
	name := fresh("test-owned")
	d := stub(name, OpInfo{Name: "poke"})
	Register(d)
	d.Ops[0].Name = "prod"

	got, _ := Lookup(name)
	if err := got.Validate(Request{Op: "poke"}); err != nil {
		t.Errorf("Validate(poke) = %v after the caller renamed it", err)
	}
	if err := got.Validate(Request{Op: "prod"}); !IsNotFound(err) {
		t.Errorf("Validate(prod) = %v, want NotFound", err)
	}
	for _, info := range Describe() {
		if info.Kind == name {
			if info.Ops[0].Name != "poke" {
				t.Errorf("Describe ops = %+v after the caller renamed one", info.Ops)
			}
			info.Ops[0].Name = "prod" // a copy: the next Describe must not see it
		}
	}
	for _, info := range Describe() {
		if info.Kind == name && info.Ops[0].Name != "poke" {
			t.Errorf("Describe ops = %+v after a reader wrote an earlier reply", info.Ops)
		}
	}
}

func TestNamesSorted(t *testing.T) {
	Register(stub(fresh("test-zz")))
	Register(stub(fresh("test-aa")))
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names not sorted: %v", names)
		}
	}
}

// TestConcurrentRegistration races many registrations against lookups and
// enumeration: the copy-on-write publication must keep every reader
// consistent while writers add drivers (run under -race).
func TestConcurrentRegistration(t *testing.T) {
	const writers = 16
	var wg, readers sync.WaitGroup
	stop := make(chan struct{})
	conc := fresh("test-conc")

	// Readers: hammer Lookup and Names while registration happens.
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				Lookup(conc + "-7")
				for i, name := range Names() {
					if i > 0 && name == "" {
						t.Error("empty name in Names")
						return
					}
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			Register(stub(fmt.Sprintf("%s-%d", conc, w)))
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			Lookup(conc + "-0")
		}()
	}
	// Wait for writers+lookups, then stop readers.
	wg.Wait()
	close(stop)
	readers.Wait()

	for w := 0; w < writers; w++ {
		if _, ok := Lookup(fmt.Sprintf("%s-%d", conc, w)); !ok {
			t.Errorf("driver %s-%d lost during concurrent registration", conc, w)
		}
	}
}

func TestErrorClassification(t *testing.T) {
	nf := NotFound("no such thing %q", "x")
	if !IsNotFound(nf) || IsConflict(nf) {
		t.Fatalf("NotFound misclassified: %v", nf)
	}
	if want := `no such thing "x"`; nf.Error() != want {
		t.Fatalf("NotFound text = %q, want %q", nf.Error(), want)
	}
	cf := Conflict("already there")
	if !IsConflict(cf) || IsNotFound(cf) {
		t.Fatalf("Conflict misclassified: %v", cf)
	}
	if IsNotFound(fmt.Errorf("plain")) || IsConflict(fmt.Errorf("plain")) {
		t.Fatal("plain error classified")
	}
	uk := UnknownKind("nope")
	if !IsNotFound(uk) || !strings.Contains(uk.Error(), "nope") {
		t.Fatalf("UnknownKind = %v", uk)
	}
}

// TestEnvCarriesPool is a compile-and-smoke check that Env plumbs the pool
// through to instances.
func TestEnvCarriesPool(t *testing.T) {
	pool := slmem.NewPIDPool(2)
	d := stub(fresh("test-env"))
	Register(d)
	inst, err := d.New(Env{Name: "n", Procs: 2, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	c, err := inst.Compile(Request{Op: "poke"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(0)
	if err != nil || res.Value != "stub" {
		t.Fatalf("Run = %+v, %v", res, err)
	}
}

package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"slmem/internal/kind"
	"slmem/internal/registry"
)

// failStep is a test-only kind's instance and compiled step: its one op
// passes validation and fails when it runs, the error a driver returns once
// it holds a lease.
type failStep struct{}

var errRunFailed = errors.New("testfail: run failed")

func (failStep) Compile(kind.Request) (kind.Compiled, error) { return failStep{}, nil }
func (failStep) Run(int) (kind.Result, error)                { return kind.Result{}, errRunFailed }

// Registered once per process: -cpu 1,4 runs every test twice in one binary.
func init() {
	kind.Register(kind.Driver{
		Info: kind.Info{Kind: "testfail", Doc: "test-only: every run fails", Ops: []kind.OpInfo{{Name: "fail"}}},
		New:  func(kind.Env) (kind.Instance, error) { return failStep{}, nil },
	})
}

// TestOpRequestDeadClient sends a single operation whose client has already
// gone: it is refused with 503 before anything happens, so no object is
// created, no lease is taken and no operation is counted — the rule
// /v1/batch follows too.
func TestOpRequestDeadClient(t *testing.T) {
	srv := New(registry.Options{Procs: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("POST", "/v1/counter/gone/inc", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)

	var resp Response
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("reply %q: %v", rec.Body, err)
	}
	if rec.Code != 503 || resp.OK || !strings.Contains(resp.Error, context.Canceled.Error()) {
		t.Errorf("dead client: code=%d resp=%+v, want 503 naming the cancellation", rec.Code, resp)
	}
	if names := srv.Registry().Names(registry.KindCounter); len(names) != 0 {
		t.Errorf("dead client created counters %v", names)
	}
	if st := srv.Registry().Stats(); st.Pool.Acquires != 0 {
		t.Errorf("dead client took %d leases, want 0", st.Pool.Acquires)
	}
	// Its one-entry batch never ran, so it counts no operation either.
	if n := srv.Stats().Ops["counter"]; n != 0 {
		t.Errorf("dead client counted %d counter ops, want 0", n)
	}
}

// TestOpRequestStatuses pins the status of every way a single operation can
// fail, and the exact reply where the message is the driver's own.
func TestOpRequestStatuses(t *testing.T) {
	srv := New(registry.Options{Procs: 2})
	if rec := do(t, srv, "POST", "/v1/object/typed/execute", []byte(`{"type":"set","invocation":"add(1)"}`)); rec.Code != 200 {
		t.Fatalf("priming object: code=%d %s", rec.Code, rec.Body)
	}
	for _, tc := range []struct {
		name, path, body string
		code             int
		// reply is the exact reply body, when set.
		reply string
	}{
		{name: "bad operand", path: "/v1/maxreg/m/write", body: `{"value":"seven"}`, code: 400,
			reply: `{"ok":false,"error":"maxreg write needs a decimal value: strconv.ParseUint: parsing \"seven\": invalid syntax"}`},
		{name: "unknown kind", path: "/v1/stack/s/push", code: 404},
		{name: "unknown op", path: "/v1/counter/c/dec", code: 404,
			reply: `{"ok":false,"error":"counter has no operation \"dec\" (want inc or read)"}`},
		{name: "reserved names", path: "/v1/counter/c/names", code: 404,
			reply: `{"ok":false,"error":"counter has no operation \"names\" (want inc or read)"}`},
		{name: "reserved stats", path: "/v1/snapshot/s/stats", code: 404,
			reply: `{"ok":false,"error":"snapshot has no operation \"stats\" (want update or scan)"}`},
		{name: "reserved op of an unknown kind", path: "/v1/stack/s/stats", code: 404},
		{name: "type conflict", path: "/v1/object/typed/execute", body: `{"type":"register","invocation":"read()"}`, code: 409,
			reply: `{"ok":false,"error":"object already exists with type \"set\", not \"register\""}`},
		{name: "oversized body", path: "/v1/counter/c/inc", body: `"` + strings.Repeat("x", maxOpBytes) + `"`, code: 413,
			reply: fmt.Sprintf(`{"ok":false,"error":"request body exceeds %d bytes"}`, maxOpBytes)},
		{name: "malformed body", path: "/v1/counter/c/inc", body: `{`, code: 400,
			reply: `{"ok":false,"error":"bad request body: unexpected end of JSON input"}`},
		{name: "run fails once leased", path: "/v1/testfail/f/fail", code: 500,
			reply: `{"ok":false,"error":"testfail: run failed"}`},
	} {
		rec := do(t, srv, "POST", tc.path, []byte(tc.body))
		var resp Response
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Errorf("%s: reply %q: %v", tc.name, rec.Body, err)
			continue
		}
		if rec.Code != tc.code || resp.OK || resp.Error == "" {
			t.Errorf("%s: code=%d reply %s, want %d with an error", tc.name, rec.Code, rec.Body, tc.code)
		}
		if tc.reply != "" && rec.Body.String() != tc.reply+"\n" {
			t.Errorf("%s: reply\n %s\nwant\n %s", tc.name, rec.Body, tc.reply)
		}
	}
	// Of all the requests above only the priming one and the one that ran
	// and failed found their objects valid; the rest created nothing.
	for k, n := range srv.Registry().Stats().Objects {
		if want := map[string]int64{"object": 1, "testfail": 1}[k]; n != want {
			t.Errorf("%d %s objects, want %d", n, k, want)
		}
	}
}

// TestOpRequestScratchIsolation runs single-operation snapshot updates and
// scans beside /v1/batch scans from 8 goroutines through one Server, so the
// two kinds of request take turns on the same pooled scratches, and checks
// every reply is its own request's. Operands change length from round to
// round, so a reply or operand left over in a reused buffer shows.
func TestOpRequestScratchIsolation(t *testing.T) {
	const workers = 8
	rounds := 300
	if testing.Short() {
		rounds = 75
	}
	srv := New(registry.Options{Procs: 4})
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tag := fmt.Sprintf("g%d-", g)
			path := "/v1/snapshot/" + tag + "s/"
			// checkView reports whether view holds val in exactly one of 4
			// components and nothing another goroutine wrote.
			checkView := func(what string, view []string, val string) bool {
				current := 0
				for _, c := range view {
					if c == val {
						current++
					} else if c != "" && !strings.HasPrefix(c, tag) {
						t.Errorf("%s %s: view %q holds another goroutine's value", tag, what, view)
						return false
					}
				}
				if current != 1 || len(view) != 4 {
					t.Errorf("%s %s: view %q, want %q in one of 4 components", tag, what, view, val)
					return false
				}
				return true
			}
			for round := 0; round < rounds; round++ {
				val := fmt.Sprintf("%sr%d-%s", tag, round, strings.Repeat("v", (round*7+g)%41))
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest("POST", path+"update", strings.NewReader(`{"value":"`+val+`"}`)))
				if rec.Code != 200 || rec.Body.String() != "{\"ok\":true}\n" {
					t.Errorf("%s round %d update: code=%d reply %q", tag, round, rec.Code, rec.Body)
					return
				}

				rec = httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest("POST", path+"scan", nil))
				var single Response
				if err := json.Unmarshal(rec.Body.Bytes(), &single); err != nil || rec.Code != 200 || !single.OK {
					t.Errorf("%s round %d scan: code=%d reply %q (%v)", tag, round, rec.Code, rec.Body, err)
					return
				}
				if !checkView(fmt.Sprintf("round %d single scan", round), single.View, val) {
					return
				}

				n := 1 + (round*13+g*5)%9
				entries := make([]BatchEntry, n)
				for i := range entries {
					entries[i] = BatchEntry{Kind: "snapshot", Name: tag + "s", Op: "scan"}
				}
				rec = httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/batch", strings.NewReader(string(mustJSON(t, entries)))))
				var batch BatchResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &batch); err != nil || rec.Code != 200 || !batch.OK || len(batch.Results) != n {
					t.Errorf("%s round %d batch of %d scans: code=%d reply %q (%v)", tag, round, n, rec.Code, rec.Body, err)
					return
				}
				for i, r := range batch.Results {
					if !checkView(fmt.Sprintf("round %d batch scan %d", round, i), r.View, val) {
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

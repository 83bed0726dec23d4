// These tests prove the acceptance criterion of the kind-driver redesign:
// the bag is served over HTTP — single ops, batches, introspection, stats —
// purely by having registered its driver (importing this package), with
// zero edits to internal/registry or internal/server. They therefore live
// here, next to the driver, not in the server package.
package bag_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"slmem/internal/bag"
	"slmem/internal/kind"
	"slmem/internal/registry"
	"slmem/internal/server"
)

func testServer(t *testing.T, procs int) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(server.New(registry.Options{Procs: procs}))
	t.Cleanup(ts.Close)
	return ts
}

func post(t *testing.T, client *http.Client, url string, body any) (int, server.Response) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	res, err := client.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var r server.Response
	if err := json.NewDecoder(res.Body).Decode(&r); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return res.StatusCode, r
}

func TestBagHTTPRoundTrip(t *testing.T) {
	ts := testServer(t, 4)
	client := ts.Client()

	for _, v := range []string{"x", "y"} {
		if code, r := post(t, client, ts.URL+"/v1/bag/jobs/insert", server.Request{Value: v}); code != 200 || !r.OK {
			t.Fatalf("insert %s: code=%d resp=%+v", v, code, r)
		}
	}
	code, r := post(t, client, ts.URL+"/v1/bag/jobs/size", nil)
	if code != 200 || r.Value != "2" {
		t.Fatalf("size: code=%d resp=%+v, want 2", code, r)
	}
	got := map[string]bool{}
	for i := 0; i < 2; i++ {
		code, r = post(t, client, ts.URL+"/v1/bag/jobs/remove", nil)
		if code != 200 || !r.OK {
			t.Fatalf("remove: code=%d resp=%+v", code, r)
		}
		got[r.Value] = true
	}
	if !got["x"] || !got["y"] {
		t.Fatalf("removed %v, want x and y", got)
	}
	code, r = post(t, client, ts.URL+"/v1/bag/jobs/remove", nil)
	if code != 200 || r.Value != bag.EmptyValue {
		t.Fatalf("empty remove: code=%d resp=%+v, want value %q", code, r, bag.EmptyValue)
	}
}

func TestBagHTTPErrorStatuses(t *testing.T) {
	ts := testServer(t, 2)
	client := ts.Client()
	cases := []struct {
		name string
		url  string
		body any
		want int
	}{
		{"unknown op", "/v1/bag/b/pop", nil, 404},
		{"empty insert value", "/v1/bag/b/insert", server.Request{}, 400},
		{"reserved insert value", "/v1/bag/b/insert", server.Request{Value: bag.EmptyValue}, 400},
	}
	for _, tc := range cases {
		code, r := post(t, client, ts.URL+tc.url, tc.body)
		if code != tc.want || r.OK || r.Error == "" {
			t.Errorf("%s: code=%d resp=%+v, want status %d with error", tc.name, code, r, tc.want)
		}
	}
	// Doomed requests must not have registered a bag.
	var st server.Stats
	res, err := client.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Registry.Objects["bag"] != 0 {
		t.Errorf("doomed requests created %d bag(s)", st.Registry.Objects["bag"])
	}
}

func TestBagBatchMixedWithSharedKinds(t *testing.T) {
	ts := testServer(t, 4)
	entries := []server.BatchEntry{
		{Kind: "bag", Name: "jobs", Op: "insert", Value: "a"},
		{Kind: "counter", Name: "c", Op: "inc"},
		{Kind: "bag", Name: "jobs", Op: "insert", Value: "b"},
		{Kind: "bag", Name: "jobs", Op: "size"},
		{Kind: "bag", Name: "jobs", Op: "remove"},
		{Kind: "counter", Name: "c", Op: "read"},
	}
	body, err := json.Marshal(entries)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ts.Client().Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var r server.BatchResponse
	if err := json.NewDecoder(res.Body).Decode(&r); err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != 200 || !r.OK {
		t.Fatalf("batch: code=%d resp=%+v", res.StatusCode, r)
	}
	if r.Results[3].Value != "2" {
		t.Errorf("bag size mid-batch = %q, want 2", r.Results[3].Value)
	}
	if v := r.Results[4].Value; v != "a" && v != "b" {
		t.Errorf("bag remove = %q, want a or b", v)
	}
	if r.Results[5].Value != "1" {
		t.Errorf("counter read = %q, want 1", r.Results[5].Value)
	}
	// Every kind leases from the one shared pool: the batch is one process.
	if r.Stats.Leases != 1 {
		t.Errorf("leases = %d, want 1 (one pool for every kind)", r.Stats.Leases)
	}

	var st server.Stats
	res2, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Body.Close()
	if err := json.NewDecoder(res2.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if reg := st.Registry; reg.Pool.Acquires != 1 || reg.PIDsInUse != 0 || len(reg.KindPools) != 0 {
		t.Errorf("registry stats = %+v, want 1 shared-pool acquire, 0 in use, no kind pools", reg)
	}
	if st.Ops["bag"] != 4 {
		t.Errorf("ops[bag] = %d, want 4", st.Ops["bag"])
	}
}

func TestBagListedInKinds(t *testing.T) {
	ts := testServer(t, 2)
	res, err := ts.Client().Get(ts.URL + "/v1/kinds")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var kr server.KindsResponse
	if err := json.NewDecoder(res.Body).Decode(&kr); err != nil {
		t.Fatal(err)
	}
	for _, info := range kr.Kinds {
		if info.Kind != "bag" {
			continue
		}
		if len(info.Ops) != 3 {
			t.Errorf("bag ops = %+v, want insert/remove/size", info.Ops)
		}
		return
	}
	t.Fatalf("bag missing from /v1/kinds: %+v", kr.Kinds)
}

// TestBagRegistryAccess exercises the generic registry path the typed
// accessors do not cover: Get + Unwrap hands back the PooledBag, and a hot
// bag's operations lease from the registry's one shared pool.
func TestBagRegistryAccess(t *testing.T) {
	r := registry.New(registry.Options{Procs: 2})
	inst, pool, err := r.Get("bag", "jobs", kind.Request{Op: "size"})
	if err != nil {
		t.Fatal(err)
	}
	if pool != r.Pool() {
		t.Fatal("bag instance not on the shared pool")
	}
	pb, ok := inst.(kind.Unwrapper).Unwrap().(*bag.PooledBag)
	if !ok {
		t.Fatalf("Unwrap returned %T", inst.(kind.Unwrapper).Unwrap())
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := pb.Insert(ctx, fmt.Sprintf("g%d-%d", g, i)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n, err := pb.Size(ctx); err != nil || n != 160 {
		t.Fatalf("size = %d, %v; want 160", n, err)
	}
	// 160 inserts and one size, each one lease of the shared pool.
	if st := r.Stats(); st.Pool.Acquires != 161 || st.PIDsInUse != 0 || len(st.KindPools) != 0 {
		t.Errorf("bag traffic: registry stats %+v, want 161 shared-pool acquires, 0 in use", st)
	}
}

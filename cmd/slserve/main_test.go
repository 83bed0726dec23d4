package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

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

func TestCounterRoundTrip(t *testing.T) {
	ts := testServer(t, 4)
	for i := 0; i < 3; i++ {
		if code, r := post(t, ts.Client(), ts.URL+"/v1/counter/clicks/inc", nil); code != 200 || !r.OK {
			t.Fatalf("inc: code=%d resp=%+v", code, r)
		}
	}
	code, r := post(t, ts.Client(), ts.URL+"/v1/counter/clicks/read", nil)
	if code != 200 || r.Value != "3" {
		t.Fatalf("read: code=%d resp=%+v, want value 3", code, r)
	}
}

func TestMaxRegRoundTrip(t *testing.T) {
	ts := testServer(t, 4)
	for _, v := range []string{"5", "9", "2"} {
		if code, r := post(t, ts.Client(), ts.URL+"/v1/maxreg/peak/write", server.Request{Value: v}); code != 200 || !r.OK {
			t.Fatalf("write %s: code=%d resp=%+v", v, code, r)
		}
	}
	code, r := post(t, ts.Client(), ts.URL+"/v1/maxreg/peak/read", nil)
	if code != 200 || r.Value != "9" {
		t.Fatalf("read: code=%d resp=%+v, want value 9", code, r)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	ts := testServer(t, 4)
	if code, r := post(t, ts.Client(), ts.URL+"/v1/snapshot/board/update", server.Request{Value: "hello"}); code != 200 || !r.OK {
		t.Fatalf("update: code=%d resp=%+v", code, r)
	}
	code, r := post(t, ts.Client(), ts.URL+"/v1/snapshot/board/scan", nil)
	if code != 200 || len(r.View) != 4 {
		t.Fatalf("scan: code=%d resp=%+v, want 4-component view", code, r)
	}
	found := false
	for _, v := range r.View {
		found = found || v == "hello"
	}
	if !found {
		t.Fatalf("update not visible in view %v", r.View)
	}
}

func TestObjectExecute(t *testing.T) {
	ts := testServer(t, 4)
	add := server.Request{Type: "set", Invocation: "add(7)"}
	if code, r := post(t, ts.Client(), ts.URL+"/v1/object/bag/execute", add); code != 200 || !r.OK {
		t.Fatalf("add: code=%d resp=%+v", code, r)
	}
	has := server.Request{Type: "set", Invocation: "contains(7)"}
	code, r := post(t, ts.Client(), ts.URL+"/v1/object/bag/execute", has)
	if code != 200 || r.Value != "true" {
		t.Fatalf("contains: code=%d resp=%+v, want true", code, r)
	}
}

func TestErrorStatuses(t *testing.T) {
	ts := testServer(t, 2)
	client := ts.Client()
	cases := []struct {
		name string
		url  string
		body any
		want int
	}{
		{"unknown kind", "/v1/stack/s/push", nil, 404},
		{"unknown op", "/v1/counter/c/dec", nil, 404},
		{"bad maxreg value", "/v1/maxreg/m/write", server.Request{Value: "seven"}, 400},
		{"bad object type", "/v1/object/o/execute", server.Request{Type: "queue", Invocation: "x()"}, 400},
		{"bad invocation", "/v1/object/o2/execute", server.Request{Type: "set", Invocation: "frob(1)"}, 400},
	}
	for _, tc := range cases {
		code, r := post(t, client, ts.URL+tc.url, tc.body)
		if code != tc.want || r.OK || r.Error == "" {
			t.Errorf("%s: code=%d resp=%+v, want status %d with error", tc.name, code, r, tc.want)
		}
	}

	// None of the failing requests above may have registered an object —
	// the registry has no eviction, so that would be a memory leak vector.
	res0, err := client.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st0 server.Stats
	if err := json.NewDecoder(res0.Body).Decode(&st0); err != nil {
		t.Fatal(err)
	}
	res0.Body.Close()
	for kind, count := range st0.Registry.Objects {
		if count != 0 {
			t.Errorf("failing requests created %d %s object(s)", count, kind)
		}
	}

	// Type mismatch against an existing object.
	if code, _ := post(t, client, ts.URL+"/v1/object/o2/execute", server.Request{Type: "set", Invocation: "add(1)"}); code != 200 {
		t.Fatalf("priming object: code=%d", code)
	}
	if code, _ := post(t, client, ts.URL+"/v1/object/o2/execute", server.Request{Type: "register", Invocation: "read()"}); code != 409 {
		t.Errorf("type mismatch: code=%d, want 409", code)
	}

	// Malformed JSON body.
	res, err := client.Post(ts.URL+"/v1/counter/c/inc", "application/json", bytes.NewBufferString("{"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != 400 {
		t.Errorf("malformed body: code=%d, want 400", res.StatusCode)
	}

	// Operation endpoints are POST-only.
	res, err = client.Get(ts.URL + "/v1/counter/c/read")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != 405 {
		t.Errorf("GET on op endpoint: code=%d, want 405", res.StatusCode)
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts := testServer(t, 4)
	post(t, ts.Client(), ts.URL+"/v1/counter/c/inc", nil)
	post(t, ts.Client(), ts.URL+"/v1/snapshot/s/scan", nil)

	res, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var st server.Stats
	if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Requests < 2 {
		t.Errorf("requests = %d, want >= 2", st.Requests)
	}
	if st.Ops["counter"] != 1 || st.Ops["snapshot"] != 1 {
		t.Errorf("ops = %v, want counter and snapshot counted once each", st.Ops)
	}
	if st.Registry.Procs != 4 {
		t.Errorf("registry procs = %d, want 4", st.Registry.Procs)
	}
	if st.Registry.PIDsInUse != 0 {
		t.Errorf("pids in use at rest = %d, want 0", st.Registry.PIDsInUse)
	}
}

// TestConcurrentSwarm is the acceptance scenario: 64 concurrent HTTP
// clients hammer one shared counter and one shared snapshot through a
// server whose pid pool is much smaller than the client count, so every
// request path — lease fast path, stealing, and FIFO blocking — is
// exercised. The counter must not lose an increment and no pid may leak.
func TestConcurrentSwarm(t *testing.T) {
	const clients = 64
	opsPerClient := 24
	if testing.Short() {
		opsPerClient = 8
	}
	ts := testServer(t, 8) // 8 pids serving 64 clients: heavy lease contention
	client := ts.Client()
	client.Transport = &http.Transport{MaxIdleConnsPerHost: clients}

	incsPerClient := 0
	for i := 0; i < opsPerClient; i++ {
		if i%3 != 2 {
			incsPerClient++
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < opsPerClient; i++ {
				var code int
				var r server.Response
				switch i % 3 {
				case 0, 1:
					code, r = post(t, client, ts.URL+"/v1/counter/shared/inc", nil)
				default:
					code, r = post(t, client, ts.URL+"/v1/snapshot/shared/update",
						server.Request{Value: fmt.Sprintf("c%d-%d", c, i)})
					if code == 200 {
						code, r = post(t, client, ts.URL+"/v1/snapshot/shared/scan", nil)
					}
				}
				if code != 200 || !r.OK {
					errs <- fmt.Errorf("client %d op %d: code=%d resp=%+v", c, i, code, r)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	code, r := post(t, client, ts.URL+"/v1/counter/shared/read", nil)
	if code != 200 {
		t.Fatalf("final read: code=%d", code)
	}
	want := strconv.Itoa(clients * incsPerClient)
	if r.Value != want {
		t.Fatalf("final count = %s, want %s (lost increments)", r.Value, want)
	}

	res, err := client.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var st server.Stats
	if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Registry.PIDsInUse != 0 {
		t.Fatalf("pids leaked: %d in use after swarm", st.Registry.PIDsInUse)
	}
	if st.Failures != 0 {
		t.Fatalf("server recorded %d failures", st.Failures)
	}
	t.Logf("swarm: %d requests, pool=%+v", st.Requests, st.Registry.Pool)
}

// postBatchE posts a /v1/batch body and decodes the batch reply, returning
// errors instead of failing the test so client goroutines can call it
// (t.Fatal must only run on the test goroutine).
func postBatchE(client *http.Client, url string, entries any) (int, server.BatchResponse, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(entries); err != nil {
		return 0, server.BatchResponse{}, err
	}
	res, err := client.Post(url+"/v1/batch", "application/json", &buf)
	if err != nil {
		return 0, server.BatchResponse{}, err
	}
	defer res.Body.Close()
	var r server.BatchResponse
	if err := json.NewDecoder(res.Body).Decode(&r); err != nil {
		return res.StatusCode, server.BatchResponse{}, fmt.Errorf("decode batch reply: %w", err)
	}
	return res.StatusCode, r, nil
}

// postBatch is postBatchE for the test goroutine: any transport or decode
// failure fails the test immediately.
func postBatch(t *testing.T, client *http.Client, url string, entries any) (int, server.BatchResponse) {
	t.Helper()
	code, r, err := postBatchE(client, url, entries)
	if err != nil {
		t.Fatal(err)
	}
	return code, r
}

func TestBatchRoundTrip(t *testing.T) {
	ts := testServer(t, 4)
	entries := []server.BatchEntry{
		{Kind: "counter", Name: "clicks", Op: "inc"},
		{Kind: "counter", Name: "clicks", Op: "inc"},
		{Kind: "counter", Name: "clicks", Op: "read"},
		{Kind: "maxreg", Name: "peak", Op: "write", Value: "12"},
		{Kind: "maxreg", Name: "peak", Op: "read"},
		{Kind: "snapshot", Name: "board", Op: "update", Value: "x"},
		{Kind: "snapshot", Name: "board", Op: "scan"},
		{Kind: "object", Name: "bag", Op: "execute", Type: "set", Invocation: "add(7)"},
		{Kind: "object", Name: "bag", Op: "execute", Type: "set", Invocation: "contains(7)"},
	}
	code, r := postBatch(t, ts.Client(), ts.URL, entries)
	if code != 200 || !r.OK {
		t.Fatalf("batch: code=%d resp=%+v", code, r)
	}
	if len(r.Results) != len(entries) {
		t.Fatalf("got %d results for %d entries", len(r.Results), len(entries))
	}
	if r.Results[2].Value != "2" {
		t.Errorf("counter read = %q, want 2", r.Results[2].Value)
	}
	if r.Results[4].Value != "12" {
		t.Errorf("maxreg read = %q, want 12", r.Results[4].Value)
	}
	if len(r.Results[6].View) != 4 {
		t.Errorf("scan view = %v, want 4 components", r.Results[6].View)
	}
	if r.Results[8].Value != "true" {
		t.Errorf("contains(7) = %q, want true", r.Results[8].Value)
	}
	if r.Stats.Ops != len(entries) || r.Stats.Failed != 0 || r.Stats.Leases != 1 {
		t.Errorf("stats = %+v, want ops=%d failed=0 leases=1", r.Stats, len(entries))
	}

	// The batch must be visible in server metrics.
	res, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var st server.Stats
	if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Batches != 1 || st.BatchOps != int64(len(entries)) {
		t.Errorf("batches=%d batch_ops=%d, want 1 and %d", st.Batches, st.BatchOps, len(entries))
	}
	if st.Registry.Pool.Acquires != 1 {
		t.Errorf("pool acquires = %d, want 1 (one lease for the whole batch)", st.Registry.Pool.Acquires)
	}
}

func TestBatchPartialFailure(t *testing.T) {
	ts := testServer(t, 4)
	entries := []server.BatchEntry{
		{Kind: "counter", Name: "c", Op: "inc"},
		{Kind: "stack", Name: "s", Op: "push"},
		{Kind: "maxreg", Name: "m", Op: "write", Value: "twelve"},
		{Kind: "counter", Name: "c", Op: "read"},
	}
	code, r := postBatch(t, ts.Client(), ts.URL, entries)
	if code != 200 {
		t.Fatalf("partial-failure batch: code=%d, want 200", code)
	}
	if r.OK {
		t.Error("batch with failed entries reported ok=true")
	}
	if !r.Results[0].OK || r.Results[1].OK || r.Results[2].OK || !r.Results[3].OK {
		t.Fatalf("per-entry ok flags wrong: %+v", r.Results)
	}
	if r.Results[1].Error == "" || r.Results[2].Error == "" {
		t.Error("failed entries carry no error text")
	}
	if r.Results[3].Value != "1" {
		t.Errorf("read after failures = %q, want 1", r.Results[3].Value)
	}
	if r.Stats.Failed != 2 {
		t.Errorf("stats.failed = %d, want 2", r.Stats.Failed)
	}
}

func TestBatchErrorPaths(t *testing.T) {
	ts := httptest.NewServer(server.New(registry.Options{Procs: 2}, server.WithMaxBatchOps(4)))
	t.Cleanup(ts.Close)
	client := ts.Client()

	// Malformed body: not JSON at all.
	res, err := client.Post(ts.URL+"/v1/batch", "application/json", bytes.NewBufferString("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != 400 {
		t.Errorf("malformed batch body: code=%d, want 400", res.StatusCode)
	}

	// Malformed body: an object where an array is required.
	if code, r := postBatch(t, client, ts.URL, map[string]string{"kind": "counter"}); code != 400 || r.Error == "" {
		t.Errorf("non-array batch body: code=%d resp=%+v, want 400 with error", code, r)
	}

	// Malformed entry: wrong JSON type inside the array.
	res, err = client.Post(ts.URL+"/v1/batch", "application/json", bytes.NewBufferString(`[{"kind":"counter","name":"c","op":"inc"}, 42]`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != 400 {
		t.Errorf("malformed batch entry: code=%d, want 400", res.StatusCode)
	}

	// Empty batch.
	if code, _ := postBatch(t, client, ts.URL, []server.BatchEntry{}); code != 400 {
		t.Errorf("empty batch: code=%d, want 400", code)
	}

	// Oversized batch: 5 entries against a 4-entry cap.
	big := make([]server.BatchEntry, 5)
	for i := range big {
		big[i] = server.BatchEntry{Kind: "counter", Name: "c", Op: "inc"}
	}
	code, r := postBatch(t, client, ts.URL, big)
	if code != 413 || r.Error == "" {
		t.Errorf("oversized batch: code=%d resp=%+v, want 413 with error", code, r)
	}

	// Unknown kind / op / type are per-entry failures, not batch failures.
	code, r = postBatch(t, client, ts.URL, []server.BatchEntry{
		{Kind: "stack", Name: "s", Op: "push"},
		{Kind: "counter", Name: "c", Op: "dec"},
		{Kind: "object", Name: "o", Op: "execute", Type: "queue", Invocation: "x()"},
	})
	if code != 200 || r.OK || r.Stats.Failed != 3 || r.Stats.Leases != 0 {
		t.Errorf("all-invalid batch: code=%d resp=%+v, want 200, ok=false, failed=3, leases=0", code, r)
	}

	// None of the failing requests may have registered objects.
	res, err = client.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st server.Stats
	if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	for kind, count := range st.Registry.Objects {
		if count != 0 {
			t.Errorf("failing batches created %d %s object(s)", count, kind)
		}
	}

	// GET on the batch endpoint is rejected.
	res, err = client.Get(ts.URL + "/v1/batch")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != 405 {
		t.Errorf("GET /v1/batch: code=%d, want 405", res.StatusCode)
	}
}

func TestBatchCancelledContext(t *testing.T) {
	// A request whose context is already cancelled must fail as a whole with
	// 503 (the lease is never acquired) and leave no object behind.
	srv := server.New(registry.Options{Procs: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	body, err := json.Marshal([]server.BatchEntry{{Kind: "counter", Name: "c", Op: "inc"}})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v1/batch", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != 503 {
		t.Fatalf("cancelled batch: code=%d, want 503", rec.Code)
	}
	var r server.BatchResponse
	if err := json.NewDecoder(rec.Body).Decode(&r); err != nil {
		t.Fatal(err)
	}
	if r.OK || r.Error == "" {
		t.Fatalf("cancelled batch reply = %+v, want ok=false with error", r)
	}
	st := srv.Stats()
	if st.Registry.PIDsInUse != 0 {
		t.Fatalf("pids in use after cancelled batch: %d", st.Registry.PIDsInUse)
	}
	// The registry has no eviction, so the dead client's batch must not
	// have lazily created the objects it named.
	for kind, count := range st.Registry.Objects {
		if count != 0 {
			t.Errorf("cancelled batch created %d %s object(s)", count, kind)
		}
	}
}

// TestBatchSwarm mirrors TestConcurrentSwarm through the batch endpoint:
// many clients, each submitting batches against a shared counter, with the
// pid pool far smaller than the client count. No increment may be lost and
// no pid may leak.
func TestBatchSwarm(t *testing.T) {
	const clients = 32
	batchesPerClient := 6
	if testing.Short() {
		batchesPerClient = 2
	}
	const incsPerBatch = 16
	ts := testServer(t, 4)
	client := ts.Client()
	client.Transport = &http.Transport{MaxIdleConnsPerHost: clients}

	entries := make([]server.BatchEntry, incsPerBatch)
	for i := range entries {
		entries[i] = server.BatchEntry{Kind: "counter", Name: "shared", Op: "inc"}
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < batchesPerClient; b++ {
				code, r, err := postBatchE(client, ts.URL, entries)
				if err != nil {
					errs <- fmt.Errorf("client %d batch %d: %w", c, b, err)
					return
				}
				if code != 200 || !r.OK {
					errs <- fmt.Errorf("client %d batch %d: code=%d resp=%+v", c, b, code, r)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	code, r := post(t, client, ts.URL+"/v1/counter/shared/read", nil)
	if code != 200 {
		t.Fatalf("final read: code=%d", code)
	}
	want := strconv.Itoa(clients * batchesPerClient * incsPerBatch)
	if r.Value != want {
		t.Fatalf("final count = %s, want %s (lost increments)", r.Value, want)
	}
	res, err := client.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var st server.Stats
	if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Registry.PIDsInUse != 0 {
		t.Fatalf("pids leaked: %d in use after batch swarm", st.Registry.PIDsInUse)
	}
	// Amortization check: far fewer lease acquisitions than operations.
	totalBatches := int64(clients * batchesPerClient)
	if st.Registry.Pool.Acquires > totalBatches+1 {
		t.Errorf("pool acquires = %d for %d batches: lease not amortized", st.Registry.Pool.Acquires, totalBatches)
	}
	t.Logf("batch swarm: %d batches x %d incs, pool=%+v", totalBatches, incsPerBatch, st.Registry.Pool)
}

func TestKindsEndpoint(t *testing.T) {
	ts := testServer(t, 4)
	res, err := ts.Client().Get(ts.URL + "/v1/kinds")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("GET /v1/kinds: code=%d", res.StatusCode)
	}
	var kr server.KindsResponse
	if err := json.NewDecoder(res.Body).Decode(&kr); err != nil {
		t.Fatal(err)
	}
	got := make(map[string][]string)
	for _, info := range kr.Kinds {
		var ops []string
		for _, op := range info.Ops {
			ops = append(ops, op.Name)
		}
		got[info.Kind] = ops
	}
	for kind, wantOps := range map[string][]string{
		"counter":  {"inc", "read"},
		"maxreg":   {"write", "read"},
		"snapshot": {"update", "scan"},
		"object":   {"execute"},
		"bag":      {"insert", "remove", "size"},
	} {
		ops, ok := got[kind]
		if !ok {
			t.Errorf("kind %q missing from /v1/kinds: %v", kind, got)
			continue
		}
		if fmt.Sprint(ops) != fmt.Sprint(wantOps) {
			t.Errorf("kind %q ops = %v, want %v", kind, ops, wantOps)
		}
	}
}

func TestBatchIntrospectionEntriesHTTP(t *testing.T) {
	ts := testServer(t, 4)
	code, r := postBatch(t, ts.Client(), ts.URL, []server.BatchEntry{
		{Kind: "counter", Name: "c", Op: "inc"},
		{Kind: "counter", Op: "names"},
		{Op: "stats"},
	})
	if code != 200 || !r.OK {
		t.Fatalf("introspection batch: code=%d resp=%+v", code, r)
	}
	if view := r.Results[1].View; len(view) != 1 || view[0] != "c" {
		t.Errorf("names entry = %v, want [c]", view)
	}
	var st registry.Stats
	if err := json.Unmarshal([]byte(r.Results[2].Value), &st); err != nil {
		t.Fatalf("stats entry is not JSON: %v", err)
	}
	if st.Objects["counter"] != 1 {
		t.Errorf("stats entry counted %d counters, want 1", st.Objects["counter"])
	}
	if r.Stats.Leases != 1 {
		t.Errorf("leases = %d, want 1 (introspection entries lease nothing)", r.Stats.Leases)
	}
}

func TestRunRejectsBadMaxBatch(t *testing.T) {
	if err := run([]string{"-maxbatch", "0"}); err == nil {
		t.Fatal("-maxbatch 0 accepted")
	}
	if err := run([]string{"-maxbatch", "-5"}); err == nil {
		t.Fatal("negative -maxbatch accepted")
	}
}

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"slmem/internal/registry"
)

// do issues one request against srv and returns the recorder.
func do(t *testing.T, srv *Server, method, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

func TestStatsEndpointCounts(t *testing.T) {
	srv := New(registry.Options{Procs: 4})
	for i := 0; i < 3; i++ {
		if rec := do(t, srv, "POST", "/v1/counter/c/inc", nil); rec.Code != 200 {
			t.Fatalf("inc: %d %s", rec.Code, rec.Body)
		}
	}
	if rec := do(t, srv, "POST", "/v1/counter/c/read", nil); rec.Code != 200 {
		t.Fatalf("read: %d %s", rec.Code, rec.Body)
	}
	batch, _ := json.Marshal([]BatchEntry{
		{Kind: registry.KindCounter, Name: "c", Op: registry.OpInc},
		{Kind: registry.KindCounter, Name: "c", Op: registry.OpInc},
	})
	if rec := do(t, srv, "POST", "/v1/batch", batch); rec.Code != 200 {
		t.Fatalf("batch: %d %s", rec.Code, rec.Body)
	}
	do(t, srv, "GET", "/v1/kinds", nil)
	do(t, srv, "POST", "/v1/nosuchkind/x/op", nil) // counted as "other"
	if rec := do(t, srv, "GET", "/v1/stats", nil); rec.Code != 200 {
		t.Fatalf("stats: %d %s", rec.Code, rec.Body)
	}

	st := srv.Stats()
	want := map[string]int64{
		"counter/inc":  3,
		"counter/read": 1,
		"batch":        1,
		"kinds":        1,
		"other":        1,
		"stats":        1,
	}
	for label, n := range want {
		if st.Endpoints[label] != n {
			t.Errorf("endpoints[%q] = %d, want %d (all: %v)", label, st.Endpoints[label], n, st.Endpoints)
		}
	}
	if st.MaxInFlight < 1 {
		t.Errorf("max_in_flight = %d, want >= 1", st.MaxInFlight)
	}
	if st.InFlight != 0 {
		t.Errorf("in_flight = %d after requests drained, want 0", st.InFlight)
	}
}

// TestStatsEndpointsUndeclaredOp: an op the kind does not declare is a 404
// and counts under "other", whether another kind declares it (scan), the
// registry reserves it for batches (names, stats) or nothing knows it
// (bogus). A single operation counts in ops exactly as its one-entry batch
// would: scan and bogus reach the registry and count, while names and stats
// are refused before it and count nothing.
func TestStatsEndpointsUndeclaredOp(t *testing.T) {
	srv := New(registry.Options{Procs: 2})
	for _, op := range []string{"scan", "names", "stats", "bogus"} {
		if rec := do(t, srv, "POST", "/v1/counter/c/"+op, nil); rec.Code != 404 {
			t.Errorf("POST /v1/counter/c/%s: %d %s, want 404", op, rec.Code, rec.Body)
		}
	}
	st := srv.Stats()
	if got := st.Endpoints; len(got) != 1 || got["other"] != 4 {
		t.Errorf("endpoints = %v, want only other: 4", got)
	}
	if n := st.Ops["counter"]; n != 2 {
		t.Errorf("ops[counter] = %d, want 2 (scan and bogus)", n)
	}
}

func TestStatsMaxInFlightTracksConcurrency(t *testing.T) {
	srv := New(registry.Options{Procs: 1})

	// Hold the only pid so an inc request parks inside the handler, making
	// the overlap deterministic instead of a scheduling race.
	release := make(chan struct{})
	held := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		err := srv.Registry().Pool().With(context.Background(), func(pid int) error {
			close(held)
			<-release
			return nil
		})
		if err != nil {
			t.Errorf("pid hold: %v", err)
		}
	}()
	<-held

	incDone := make(chan struct{})
	go func() {
		defer close(incDone)
		req := httptest.NewRequest("POST", "/v1/counter/mc/inc", nil)
		srv.ServeHTTP(httptest.NewRecorder(), req)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().InFlight < 1 {
		if time.Now().After(deadline) {
			t.Fatal("inc request never entered the handler")
		}
		time.Sleep(time.Millisecond)
	}
	// With the inc request parked in flight, a second request overlaps it.
	do(t, srv, "GET", "/v1/kinds", nil)
	close(release)
	<-incDone
	wg.Wait()

	st := srv.Stats()
	if st.MaxInFlight < 2 {
		t.Errorf("max_in_flight = %d with a parked request overlapped, want >= 2", st.MaxInFlight)
	}
	if st.InFlight != 0 {
		t.Errorf("in_flight = %d at rest, want 0", st.InFlight)
	}
}

func TestStatsEndpointsJSONShape(t *testing.T) {
	srv := New(registry.Options{Procs: 2})
	do(t, srv, "POST", "/v1/counter/c/inc", nil)
	rec := do(t, srv, "GET", "/v1/stats", nil)
	var doc struct {
		Endpoints   map[string]int64 `json:"endpoints"`
		InFlight    *int64           `json:"in_flight"`
		MaxInFlight *int64           `json:"max_in_flight"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("stats not JSON: %v", err)
	}
	if doc.Endpoints["counter/inc"] != 1 {
		t.Errorf("wire endpoints[counter/inc] = %d, want 1", doc.Endpoints["counter/inc"])
	}
	if doc.InFlight == nil || doc.MaxInFlight == nil {
		t.Error("in_flight/max_in_flight missing from the wire shape")
	}
}

//go:build !race

// The race detector drops sync.Pool puts at random and changes what escapes,
// so allocation counts mean nothing under it.

package server

import (
	"bytes"
	"context"
	"net/http"
	"strings"
	"testing"

	"slmem/internal/registry"
)

// memWriter is an http.ResponseWriter that keeps the reply in memory and
// allocates nothing once warm.
type memWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *memWriter) Header() http.Header         { return w.header }
func (w *memWriter) WriteHeader(status int)      { w.status = status }
func (w *memWriter) Write(p []byte) (int, error) { return w.body.Write(p) }

// memBody is a request body that can be rewound.
type memBody struct{ bytes.Reader }

func (*memBody) Close() error { return nil }

// TestBatchRequestAllocs pins what the server's own layers allocate for a warm
// batch of the http-batch64 mix on its way through ServeHTTP, at 64 entries
// and at 256. The request pays for the same batch run by the registry on
// reused working storage — which is exactly what its ops allocate (register
// records, views, boxed operands, formatted values; TestBatchExecuteAllocs in
// internal/registry pins that) — and for its entries' own strings (a name
// each, an operand for three in eight; kind and op are interned). What is
// left is the server's pipeline, and it does not grow with the batch.
func TestBatchRequestAllocs(t *testing.T) {
	for _, n := range []int{64, 256} {
		srv := New(registry.Options{Procs: 4})
		entries := mixEntries(n, "alloc-")
		body := mustJSON(t, entries)
		strs := 0
		for _, e := range entries {
			strs++ // the name
			if e.Value != "" {
				strs++
			}
		}

		w := &memWriter{header: make(http.Header)}
		rb := new(memBody)
		req, err := http.NewRequest("POST", "/v1/batch", rb)
		if err != nil {
			t.Fatal(err)
		}
		serve := func() {
			rb.Reset(body)
			w.body.Reset()
			srv.ServeHTTP(w, req)
			if w.status != 200 {
				t.Fatalf("status %d: %s", w.status, w.body.Bytes())
			}
		}
		var work registry.BatchWork
		execute := func() {
			if _, err := srv.Registry().BatchExecuteWith(context.Background(), entries, &work); err != nil {
				t.Fatal(err)
			}
		}
		// Warming creates the objects and sizes the scratch, and takes every
		// counter a read formats past 99, from where on the value is an
		// allocation of its own in both measurements.
		for i := 0; i < 64; i++ {
			serve()
			execute()
		}

		served := testing.AllocsPerRun(200, serve)
		executed := testing.AllocsPerRun(200, execute)
		pipeline := served - executed - float64(strs)
		t.Logf("%d entries: %.0f allocs per request = %.0f in the registry and its ops + %d entry strings + %.0f for the pipeline",
			n, served, executed, strs, pipeline)
		// Measured 1 at both sizes: the Content-Type header's value slice. The
		// ceiling leaves room for a GC emptying the scratch pool mid-run.
		if pipeline > 3 {
			t.Errorf("%d entries: the batch pipeline allocates %.0f times per request beyond the registry's batch and the entry strings, want <= 3",
				n, pipeline)
		}
	}
}

// TestOpRequestAllocs pins what a warm single-operation request allocates on
// its way through ServeHTTP: the one-entry batch runs on the pooled scratch,
// so what is left is the router's, the header's and the operation's own.
func TestOpRequestAllocs(t *testing.T) {
	srv := New(registry.Options{Procs: 4})
	w := &memWriter{header: make(http.Header)}
	for _, tc := range []struct {
		path, body string
		max        float64
	}{
		{"/v1/counter/alloc/inc", "", 8},
		{"/v1/snapshot/alloc/update", `{"value":"x"}`, 14},
		{"/v1/snapshot/alloc/scan", "", 5},
	} {
		body, rb := []byte(tc.body), new(memBody)
		req, err := http.NewRequest("POST", tc.path, rb)
		if err != nil {
			t.Fatal(err)
		}
		serve := func() {
			rb.Reset(body)
			w.body.Reset()
			srv.ServeHTTP(w, req)
			if w.status != 200 {
				t.Fatalf("%s: status %d: %s", tc.path, w.status, w.body.Bytes())
			}
		}
		for i := 0; i < 64; i++ {
			serve()
		}
		allocs := testing.AllocsPerRun(200, serve)
		op := tc.path[strings.LastIndexByte(tc.path, '/')+1:]
		t.Logf("%s: %.0f allocs per request", op, allocs)
		// Each ceiling is the measurement. A GC emptying the scratch pool
		// mid-run costs a few allocations spread over 200 requests, which
		// the per-request average rounds away.
		if allocs > tc.max {
			t.Errorf("%s: %.0f allocs per request, want <= %.0f", op, allocs, tc.max)
		}
	}
}

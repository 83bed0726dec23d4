package server

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"slmem/internal/registry"
)

// Benchmarks for the batch pipeline's server phases. The request pair is
// the headline comparison (per-request vs batched per-op cost); the decode
// pair shows what the reflection-free fast path buys on a 64-entry body.

func batchBody(b *testing.B, size int) []byte {
	b.Helper()
	entries := make([]BatchEntry, size)
	for i := range entries {
		entries[i] = BatchEntry{Kind: registry.KindCounter, Name: "bench", Op: registry.OpInc}
	}
	body, err := json.Marshal(entries)
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// BenchmarkBatchRequest compares one operation per request with 64 per
// request, on one hot counter (batch64) and on the http-batch64 mix of five
// kinds over 64 names each (mix64); -benchmem shows what a request allocates
// per operation.
func BenchmarkBatchRequest(b *testing.B) {
	const size = 64
	body := batchBody(b, size)
	b.Run("perop", func(b *testing.B) {
		srv := New(registry.Options{Procs: 8})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req := httptest.NewRequest("POST", "/v1/counter/bench/inc", nil)
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != 200 {
				b.Fatal(rec.Body.String())
			}
		}
	})
	for _, bc := range []struct {
		name string
		body []byte
	}{{"batch64", body}, {"mix64", mustJSON(b, mixEntries(size, "bench-"))}} {
		body := bc.body
		b.Run(bc.name, func(b *testing.B) {
			srv := New(registry.Options{Procs: 8})
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; done += size {
				req := httptest.NewRequest("POST", "/v1/batch", bytes.NewReader(body))
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				if rec.Code != 200 {
					b.Fatal(rec.Body.String())
				}
			}
		})
	}
}

func BenchmarkBatchDecode(b *testing.B) {
	body := batchBody(b, 64)
	b.Run("fast", func(b *testing.B) {
		// Into reused storage, as a request's scratch supplies it.
		var entries []BatchEntry
		for i := 0; i < b.N; i++ {
			var ok bool
			if entries, ok, _ = fastDecodeBatch(entries, body, MaxBatchOps); !ok {
				b.Fatal("fast path rejected canonical body")
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var e []BatchEntry
			if err := json.Unmarshal(body, &e); err != nil {
				b.Fatal(err)
			}
		}
	})
}

package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"slices"
	"sync"
	"time"

	"slmem/internal/registry"
)

// Batch request limits. MaxBatchOps is the default cap on entries per batch
// (configurable via WithMaxBatchOps); maxBatchBytes caps the request body.
const (
	MaxBatchOps   = 1024
	maxBatchBytes = 8 << 20
)

// BatchEntry is one operation in a POST /v1/batch request body, which is a
// JSON array of these. It is the wire form of a registry.BatchOp: kind and
// name select the object, op the operation, value the operand (decimal for
// maxreg write, component text for snapshot update), and type + invocation
// drive object execute.
type BatchEntry = registry.BatchOp

// BatchStats aggregates a batch reply: how many ops ran, how many failed,
// and how many pid leases the whole batch cost (1, or 0 when every entry
// failed validation or was introspection-only) — the amortization the
// endpoint exists for.
type BatchStats struct {
	Ops       int   `json:"ops"`
	Failed    int   `json:"failed"`
	Leases    int   `json:"leases"`
	ElapsedUS int64 `json:"elapsed_us"`
}

// BatchResponse is the JSON shape of POST /v1/batch replies. Results holds
// one Response per submitted entry, positionally; OK is true only when every
// entry succeeded. A whole-batch failure (malformed body, oversized batch,
// lease never acquired) carries Error and no Results.
type BatchResponse struct {
	OK      bool       `json:"ok"`
	Results []Response `json:"results,omitempty"`
	Stats   BatchStats `json:"stats"`
	Error   string     `json:"error,omitempty"`
}

// batchScratch is everything one request needs beyond what its operations
// themselves allocate: the body bytes, the decoded entries, the registry's
// working storage and the reply bytes. A /v1/batch request and a single
// operation (a one-entry batch) alike take one from scratchPool, are served
// on it and give it back, so a warm server allocates for a request's
// operations and not for its pipeline.
//
// Ownership: nothing that outlives the request may point into a scratch. The
// decoders copy every entry string out of body (snapshot updates and bag
// inserts keep their operands inside objects indefinitely); the results in
// work are encoded into reply, and reply is written out, before release; the
// views in those results are immutable — a scan's view is the one the
// object's register R holds, never written again — which is why they can be
// encoded after BatchExecuteWith has released its leases.
type batchScratch struct {
	body    []byte
	entries []BatchEntry // everything past len(entries) is zero
	work    registry.BatchWork
	reply   []byte
}

// Bounds on what a scratch may keep when it goes back to the pool: room for
// a batch of MaxBatchOps entries, a few times the default. A request that
// grew it further (up to the 8 MiB body limit) takes its storage with it.
const (
	scratchMaxBytes   = 256 << 10
	scratchMaxEntries = MaxBatchOps
)

var scratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// reset clears the scratch of every string and pointer it holds and keeps
// its storage. It reports whether the storage is small enough to pool.
func (sc *batchScratch) reset() (poolable bool) {
	clear(sc.entries)
	sc.entries = sc.entries[:0]
	sc.work.Reset()
	sc.body, sc.reply = sc.body[:0], sc.reply[:0]
	return cap(sc.body) <= scratchMaxBytes && cap(sc.reply) <= scratchMaxBytes &&
		cap(sc.entries) <= scratchMaxEntries
}

// pooled adapts serve to a handler that runs each request on a scratch from
// scratchPool and gives it back. A request that panics keeps its scratch out
// of the pool.
func pooled(serve func(http.ResponseWriter, *http.Request, *batchScratch)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sc := scratchPool.Get().(*batchScratch)
		serve(w, r, sc)
		if sc.reset() {
			scratchPool.Put(sc)
		}
	}
}

// serveBatch decodes the entry array, runs it through the registry under one
// pid lease, and reports per-entry results plus aggregate stats,
// all on sc. Per-entry failures do not fail the batch (partial-failure
// semantics); the HTTP status is non-200 only when the batch as a whole
// could not run.
func (s *Server) serveBatch(w http.ResponseWriter, r *http.Request, sc *batchScratch) {
	start := time.Now()
	s.countEndpoint("batch")

	var err error
	sc.body, err = readLimited(sc.body[:0], r.Body, maxBatchBytes)
	if err != nil {
		s.failBatch(w, sc, http.StatusBadRequest, "read request body: "+err.Error())
		return
	}
	if len(sc.body) > maxBatchBytes {
		s.failBatch(w, sc, http.StatusRequestEntityTooLarge, fmt.Sprintf("batch body exceeds %d bytes", maxBatchBytes))
		return
	}
	sc.entries, err = decodeBatchEntries(sc.entries, sc.body, s.maxBatchOps)
	entries := sc.entries
	if errors.Is(err, errBatchTooMany) {
		s.failBatch(w, sc, http.StatusRequestEntityTooLarge, fmt.Sprintf("batch exceeds %d entries", s.maxBatchOps))
		return
	}
	if err != nil {
		s.failBatch(w, sc, http.StatusBadRequest, err.Error())
		return
	}
	if len(entries) == 0 {
		s.failBatch(w, sc, http.StatusBadRequest, "empty batch")
		return
	}

	out, err := s.reg.BatchExecuteWith(r.Context(), entries, &sc.work)
	if err != nil {
		// The lease was never acquired: the client went away (or timed out)
		// while the batch queued for a pid. Same mapping as single ops.
		s.failBatch(w, sc, http.StatusServiceUnavailable, err.Error())
		return
	}

	failed := 0
	for i := range out.Results {
		if out.Results[i].Err != nil {
			failed++
		}
	}
	s.batches.Add(1)
	s.batchOps.Add(int64(len(entries)))

	s.replyBatch(w, sc, http.StatusOK, out.Results, BatchStats{
		Ops:       len(entries),
		Failed:    failed,
		Leases:    out.Leases,
		ElapsedUS: time.Since(start).Microseconds(),
	}, "")
}

// readLimited appends r's bytes to dst until EOF or until dst holds more
// than limit bytes, whichever comes first; a result longer than limit means
// the input is too large (not that it was read in full).
func readLimited(dst []byte, r io.Reader, limit int) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = slices.Grow(dst, 512)
		}
		room := dst[len(dst):cap(dst)]
		if len(dst)+len(room) > limit+1 {
			room = room[:limit+1-len(dst)]
		}
		n, err := r.Read(room)
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil || len(dst) > limit {
			return dst, err
		}
	}
}

// errBatchTooMany marks a batch rejected for exceeding the entry cap; both
// decode paths stop at the cap instead of materializing an unbounded slice
// first (an 8 MiB body can hold millions of "{}" entries).
var errBatchTooMany = errors.New("too many batch entries")

// decodeBatchEntries decodes the request body — a JSON array of entries —
// into dst's storage, stopping as soon as more than max entries appear. The
// reflection-free fast path handles the common flat shape; anything else
// (escaped strings, unknown keys, malformed JSON) is re-decoded from the
// start by an encoding/json streaming decoder for identical accept/reject
// semantics. The slice it returns replaces dst whatever the error, so
// storage grown on the way to a rejection is kept, and emptied.
func decodeBatchEntries(dst []BatchEntry, body []byte, max int) ([]BatchEntry, error) {
	entries, ok, tooMany := fastDecodeBatch(dst, body, max)
	if ok {
		return entries, nil
	}
	err := errBatchTooMany
	if !tooMany {
		// Whatever the fast path appended before it gave up is not the batch.
		clear(entries)
		entries, err = decodeBatchEntriesJSON(entries[:0], body, max)
	}
	if err != nil {
		clear(entries)
		entries = entries[:0]
	}
	return entries, err
}

// decodeBatchEntriesJSON is the encoding/json half of decodeBatchEntries.
func decodeBatchEntriesJSON(entries []BatchEntry, body []byte, max int) ([]BatchEntry, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	tok, err := dec.Token()
	if err != nil {
		return entries, fmt.Errorf("bad batch body (want a JSON array of entries): %w", err)
	}
	if tok == nil {
		// JSON null decodes to no entries, as json.Unmarshal would.
		return entries, nil
	}
	if d, isDelim := tok.(json.Delim); !isDelim || d != '[' {
		return entries, fmt.Errorf("bad batch body: want a JSON array of entries, got %v", tok)
	}
	for dec.More() {
		if len(entries) >= max {
			return entries, errBatchTooMany
		}
		var e BatchEntry
		if err := dec.Decode(&e); err != nil {
			return entries, fmt.Errorf("bad batch entry %d: %w", len(entries), err)
		}
		entries = append(entries, e)
	}
	if _, err := dec.Token(); err != nil { // the closing ']'
		return entries, fmt.Errorf("bad batch body: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return entries, fmt.Errorf("bad batch body: trailing data after the entry array")
	}
	return entries, nil
}

// failBatch answers a batch that could not run as a whole.
func (s *Server) failBatch(w http.ResponseWriter, sc *batchScratch, status int, errMsg string) {
	s.replyBatch(w, sc, status, nil, BatchStats{}, errMsg)
}

// replyBatch writes a batch reply from sc.reply, counting whole-batch and
// per-entry failures into the server failure metric. The body is built by
// the reflection-free encoder (appendBatchReply), whose output is
// byte-identical to encoding/json's over a BatchResponse.
func (s *Server) replyBatch(w http.ResponseWriter, sc *batchScratch, status int,
	results []registry.BatchResult, stats BatchStats, errMsg string) {
	if errMsg != "" || stats.Failed > 0 {
		s.failures.Add(1)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	sc.reply = appendBatchReply(sc.reply[:0], results, stats, errMsg)
	sc.reply = append(sc.reply, '\n')
	if _, err := w.Write(sc.reply); err != nil {
		log.Printf("server: write batch response: %v", err)
	}
}

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	_ "slmem/internal/bag" // the fifth kind of the http-batch64 mix
	"slmem/internal/registry"
)

// mixEntries returns n entries in the proportions of the benchmark's
// http-batch64 workload — per 64: 16 counter inc, 8 counter read, 8 maxreg
// write, 8 snapshot update, 8 snapshot scan and 8 bag insert+remove pairs —
// over 64 names per kind prefixed by tag. Operands carry tag and the entry's
// position, so a value that turns up in the wrong reply is recognisable.
func mixEntries(n int, tag string) []BatchEntry {
	entries := make([]BatchEntry, 0, n)
	for i := 0; len(entries) < n; i++ {
		name := func(k string) string { return tag + k + strconv.Itoa(i*7%64) }
		switch slot := i % 56; {
		case slot < 16:
			entries = append(entries, BatchEntry{Kind: "counter", Name: name("c"), Op: "inc"})
		case slot < 24:
			entries = append(entries, BatchEntry{Kind: "counter", Name: name("c"), Op: "read"})
		case slot < 32:
			entries = append(entries, BatchEntry{Kind: "maxreg", Name: name("m"), Op: "write", Value: strconv.Itoa(i)})
		case slot < 40:
			entries = append(entries, BatchEntry{Kind: "snapshot", Name: name("s"), Op: "update", Value: fmt.Sprintf("%s%03d", tag, i%1000)})
		case slot < 48:
			entries = append(entries, BatchEntry{Kind: "snapshot", Name: name("s"), Op: "scan"})
		default:
			entries = append(entries,
				BatchEntry{Kind: "bag", Name: name("b"), Op: "insert", Value: fmt.Sprintf("%s%d", tag, i)},
				BatchEntry{Kind: "bag", Name: name("b"), Op: "remove"})
		}
	}
	return entries[:n]
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// serveOn runs one /v1/batch request on sc the way the pooled route does, scratch
// reset included, and returns the status and decoded reply.
func serveOn(t *testing.T, srv *Server, sc *batchScratch, ctx context.Context, body []byte) (int, BatchResponse) {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/batch", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.serveBatch(rec, req, sc)
	sc.reset()
	var resp BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("reply %q: %v", rec.Body, err)
	}
	return rec.Code, resp
}

// checkScratchClean fails if a reset scratch still refers to anything.
func checkScratchClean(t *testing.T, sc *batchScratch) {
	t.Helper()
	if len(sc.body) != 0 || len(sc.entries) != 0 || len(sc.reply) != 0 {
		t.Errorf("reset scratch has lengths body=%d entries=%d reply=%d", len(sc.body), len(sc.entries), len(sc.reply))
	}
	for i, e := range sc.entries[:cap(sc.entries)] {
		if e != (BatchEntry{}) {
			t.Errorf("reset scratch still holds entry %d: %+v", i, e)
		}
	}
}

// TestBatchScratchIsolation posts different batches from 8 goroutines
// through one Server — so through the shared scratch pool — and checks every
// reply against its own request position by position. Each goroutine owns its
// objects, which makes every expected value exact.
func TestBatchScratchIsolation(t *testing.T) {
	const workers = 8
	rounds := 400
	if testing.Short() {
		rounds = 100
	}
	srv := New(registry.Options{Procs: 4})
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tag := fmt.Sprintf("g%d-", g)
			var count, max uint64
			rec := httptest.NewRecorder()
			for round := 0; round < rounds; round++ {
				// Batch sizes differ from round to round and between
				// goroutines, so a scratch serves requests of every size.
				n := 1 + (round*13+g*5)%70
				val := fmt.Sprintf("%sr%d", tag, round)
				var entries []BatchEntry
				var want []Response
				for i := 0; i < n; i++ {
					switch (i + round) % 8 {
					case 0:
						entries = append(entries, BatchEntry{Kind: "counter", Name: tag + "c", Op: "inc"})
						count++
						want = append(want, Response{OK: true})
					case 1:
						entries = append(entries, BatchEntry{Kind: "counter", Name: tag + "c", Op: "read"})
						want = append(want, Response{OK: true, Value: strconv.FormatUint(count, 10)})
					case 2:
						v := uint64(round*100 + i)
						entries = append(entries, BatchEntry{Kind: "maxreg", Name: tag + "m", Op: "write", Value: strconv.FormatUint(v, 10)})
						if v > max {
							max = v
						}
						want = append(want, Response{OK: true})
					case 3:
						entries = append(entries, BatchEntry{Kind: "maxreg", Name: tag + "m", Op: "read"})
						want = append(want, Response{OK: true, Value: strconv.FormatUint(max, 10)})
					case 4:
						// Update then scan: one batch is one pid, so the view
						// is val in one component and, in the others, what
						// earlier rounds of this goroutine left there.
						entries = append(entries,
							BatchEntry{Kind: "snapshot", Name: tag + "s", Op: "update", Value: val},
							BatchEntry{Kind: "snapshot", Name: tag + "s", Op: "scan"})
						want = append(want, Response{OK: true}, Response{OK: true, View: []string{val}})
					case 5:
						item := val + "-" + strconv.Itoa(i)
						entries = append(entries,
							BatchEntry{Kind: "bag", Name: tag + "b", Op: "insert", Value: item},
							BatchEntry{Kind: "bag", Name: tag + "b", Op: "remove"})
						want = append(want, Response{OK: true}, Response{OK: true, Value: item})
					case 6:
						entries = append(entries, BatchEntry{Kind: "counter", Name: tag + "c", Op: registry.Op(val)})
						want = append(want, Response{Error: fmt.Sprintf("counter has no operation %q (want inc or read)", val)})
					case 7:
						entries = append(entries, BatchEntry{Kind: "object", Name: tag + "o", Op: "execute", Type: "counter", Invocation: "inc()"})
						want = append(want, Response{OK: true, Value: "ok"})
					}
				}
				failed := 0
				for _, r := range want {
					if !r.OK {
						failed++
					}
				}

				*rec = httptest.ResponseRecorder{Body: rec.Body, Code: 200}
				rec.Body.Reset()
				body, err := json.Marshal(entries)
				if err != nil {
					t.Error(err)
					return
				}
				srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/batch", bytes.NewReader(body)))
				var got BatchResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
					t.Errorf("%s round %d: reply %q: %v", tag, round, rec.Body, err)
					return
				}
				if rec.Code != 200 || got.OK != (failed == 0) || got.Stats.Ops != len(entries) || got.Stats.Failed != failed {
					t.Errorf("%s round %d: code=%d ok=%v stats=%+v, want 200, ok=%v, ops=%d, failed=%d",
						tag, round, rec.Code, got.OK, got.Stats, failed == 0, len(entries), failed)
					return
				}
				if len(got.Results) != len(want) {
					t.Errorf("%s round %d: %d results for %d entries", tag, round, len(got.Results), len(want))
					return
				}
				for i, w := range want {
					r := got.Results[i]
					if w.View != nil {
						current := 0
						for _, c := range r.View {
							if c == w.View[0] {
								current++
							} else if c != "" && !strings.HasPrefix(c, tag) {
								t.Errorf("%s round %d entry %d: view %q holds another goroutine's value", tag, round, i, r.View)
							}
						}
						if current != 1 || len(r.View) != 4 {
							t.Errorf("%s round %d entry %d: view %q, want %q in one of 4 components", tag, round, i, r.View, w.View[0])
						}
						r.View, w.View = nil, nil
					}
					if !reflect.DeepEqual(r, w) {
						t.Errorf("%s round %d entry %d (%+v): got %+v, want %+v", tag, round, i, entries[i], r, w)
					}
				}
				if t.Failed() {
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestBatchScratchNoAliasing checks that what a batch stores inside objects
// does not live in its scratch: values written by batch k read back intact
// after the same scratch served batch k+1, whose body has the same length
// and different bytes in every operand.
func TestBatchScratchNoAliasing(t *testing.T) {
	srv := New(registry.Options{Procs: 1})
	sc := new(batchScratch)
	batch := func(fill string) []byte {
		return mustJSON(t, []BatchEntry{
			{Kind: "snapshot", Name: "board-" + fill, Op: "update", Value: "value-" + fill},
			{Kind: "bag", Name: "jobs-" + fill, Op: "insert", Value: "item-" + fill},
			{Kind: "object", Name: "reg-" + fill, Op: "execute", Type: "register", Invocation: "write(" + fill + ")"},
		})
	}
	first, second := batch("1111"), batch("2222")
	if len(first) != len(second) {
		t.Fatalf("bodies differ in length: %d and %d", len(first), len(second))
	}
	for _, body := range [][]byte{first, second} {
		if code, resp := serveOn(t, srv, sc, context.Background(), body); code != 200 || !resp.OK {
			t.Fatalf("batch %s: code=%d resp=%+v", body, code, resp)
		}
	}
	// The caller's buffer, too, is free to change once the request is served.
	for i := range first {
		first[i] = 'x'
	}
	code, resp := serveOn(t, srv, sc, context.Background(), mustJSON(t, []BatchEntry{
		{Kind: "snapshot", Name: "board-1111", Op: "scan"},
		{Kind: "bag", Name: "jobs-1111", Op: "remove"},
		{Kind: "object", Name: "reg-1111", Op: "execute", Type: "register", Invocation: "read()"},
		{Kind: "snapshot", Name: "", Op: "names"},
	}))
	want := []Response{
		{OK: true, View: []string{"value-1111"}},
		{OK: true, Value: "item-1111"},
		{OK: true, Value: "1111"},
		{OK: true, View: []string{"board-1111", "board-2222"}},
	}
	if code != 200 || !reflect.DeepEqual(resp.Results, want) {
		t.Errorf("reading batch 1 back after batch 2 reused its scratch: code=%d\n got %+v\nwant %+v", code, resp.Results, want)
	}
}

// TestBatchScratchCleanAfterErrors drives every whole-batch failure on one
// scratch and checks that each leaves it clean: the next request on the same
// scratch is answered as on a new one.
func TestBatchScratchCleanAfterErrors(t *testing.T) {
	srv := New(registry.Options{Procs: 1}, WithMaxBatchOps(70))
	sc := new(batchScratch)
	good := mixEntries(64, "ok-")
	goodBody := mustJSON(t, good)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	// The counters the good batch increments keep their counts between servings.
	count := make(map[string]int)
	serveGood := func(after string) {
		t.Helper()
		code, resp := serveOn(t, srv, sc, context.Background(), goodBody)
		if code != 200 || !resp.OK || len(resp.Results) != len(good) || resp.Stats.Ops != len(good) || resp.Stats.Leases != 1 {
			t.Fatalf("good batch after %s: code=%d ok=%v results=%d stats=%+v error=%q",
				after, code, resp.OK, len(resp.Results), resp.Stats, resp.Error)
		}
		for i, e := range good {
			r := resp.Results[i]
			switch {
			case e.Op == "inc":
				count[e.Name]++
			case e.Kind == "counter" && e.Op == "read":
				if r.Value != strconv.Itoa(count[e.Name]) {
					t.Errorf("after %s: entry %d read %q, want %d", after, i, r.Value, count[e.Name])
				}
			case e.Op == "scan":
				if len(r.View) != 1 || r.View[0] != "" && !strings.HasPrefix(r.View[0], "ok-") {
					t.Errorf("after %s: entry %d scanned %q", after, i, r.View)
				}
			case e.Op == "remove":
				if r.Value != good[i-1].Value {
					t.Errorf("after %s: entry %d removed %q, want %q", after, i, r.Value, good[i-1].Value)
				}
			}
		}
		checkScratchClean(t, sc)
	}
	serveGood("nothing")

	for _, tc := range []struct {
		name string
		body []byte
		code int
		ctx  context.Context
		// hold takes the shared pool's only pid for the request's duration,
		// so the batch queues for a lease until its context ends.
		hold bool
	}{
		{name: "malformed body", body: append(goodBody[:len(goodBody)-20:len(goodBody)-20], "nope"...), code: 400},
		{name: "malformed entry after good ones", body: []byte(strings.Replace(string(goodBody), `"op":"remove"}]`, `"op":42}]`, 1)), code: 400},
		{name: "not an array", body: []byte(`{"kind":"counter"}`), code: 400},
		{name: "too many entries", body: mustJSON(t, mixEntries(71, "big-")), code: 413},
		{name: "too many entries, fallback decoder", body: mustJSON(t, append([]BatchEntry{{Name: `a"b`}}, mixEntries(70, "big-")...)), code: 413},
		{name: "empty batch", body: []byte(`[]`), code: 400},
		{name: "cancelled context", body: goodBody, code: 503, ctx: cancelled},
		{name: "lease never acquired", body: goodBody, code: 503, hold: true},
	} {
		ctx := tc.ctx
		if ctx == nil {
			ctx = context.Background()
		}
		release := func() {}
		if tc.hold {
			pid, err := srv.Registry().Pool().Acquire(ctx)
			if err != nil {
				t.Fatal(err)
			}
			var stop context.CancelFunc
			ctx, stop = context.WithTimeout(ctx, 20*time.Millisecond)
			release = func() { stop(); srv.Registry().Pool().Release(pid) }
		}
		code, resp := serveOn(t, srv, sc, ctx, tc.body)
		release()
		if code != tc.code || resp.Error == "" || len(resp.Results) != 0 {
			t.Errorf("%s: code=%d resp=%+v, want %d with an error", tc.name, code, resp, tc.code)
		}
		checkScratchClean(t, sc)
		serveGood(tc.name)
	}
}

// TestBatchFallbackDecoderOnWarmScratch sends a body the fast decoder gives
// up on at its last entry — after it appended all the others to the scratch —
// on a scratch still sized by a larger batch: the encoding/json fallback
// starts over and the reply is the one a new scratch gives.
func TestBatchFallbackDecoderOnWarmScratch(t *testing.T) {
	srv := New(registry.Options{Procs: 1}) // one pid: a snapshot is one component
	sc := new(batchScratch)
	if code, resp := serveOn(t, srv, sc, context.Background(), mustJSON(t, mixEntries(64, "warm-"))); code != 200 || !resp.OK {
		t.Fatalf("warming batch: code=%d resp=%+v", code, resp)
	}

	for _, tc := range []struct{ name, last string }{
		{"escaped string", `{"kind":"snapshot","name":"esc","op":"update","value":"tab\there \"quoted\""}`},
		{"unknown key", `{"kind":"snapshot","name":"esc","op":"update","value":"plain","comment":7}`},
	} {
		body := `[{"kind":"counter","name":"fb","op":"inc"},{"kind":"bag","name":"fb","op":"insert","value":"kept"},` +
			`{"kind":"counter","name":"fb","op":"read"},` + tc.last + `,{"kind":"snapshot","name":"esc","op":"scan"}]`
		if _, ok, _ := fastDecodeBatch(nil, []byte(body), MaxBatchOps); ok {
			t.Fatalf("%s: the fast path accepts the body; it does not exercise the fallback", tc.name)
		}
		want := "plain"
		if tc.name == "escaped string" {
			want = "tab\there \"quoted\""
		}
		code, onWarm := serveOn(t, srv, sc, context.Background(), []byte(body))
		if code != 200 || !onWarm.OK || len(onWarm.Results) != 5 {
			t.Fatalf("%s: code=%d resp=%+v", tc.name, code, onWarm)
		}
		if view := onWarm.Results[4].View; strings.Join(view, "") != want {
			t.Errorf("%s: scanned %q, want one component %q", tc.name, view, want)
		}
		checkScratchClean(t, sc)
	}
	// Both bodies ran to completion exactly once: two incs, two inserts.
	code, resp := serveOn(t, srv, sc, context.Background(), []byte(
		`[{"kind":"counter","name":"fb","op":"read"},{"kind":"bag","name":"fb","op":"size"}]`))
	if code != 200 || resp.Results[0].Value != "2" || resp.Results[1].Value != "2" {
		t.Errorf("after two fallback batches: code=%d results=%+v, want counter 2 and bag size 2", code, resp.Results)
	}
}

// TestBatchScratchDroppedWhenLarge checks the pool's bound: a scratch grown
// far past a default batch is not kept, one of ordinary size is.
func TestBatchScratchDroppedWhenLarge(t *testing.T) {
	srv := New(registry.Options{Procs: 2})
	sc := new(batchScratch)
	serveOn(t, srv, sc, context.Background(), mustJSON(t, mixEntries(64, "small-")))
	if !sc.reset() {
		t.Errorf("a 64-entry batch made its scratch unpoolable: body cap %d, entries cap %d, reply cap %d",
			cap(sc.body), cap(sc.entries), cap(sc.reply))
	}
	big := mustJSON(t, []BatchEntry{{Kind: "snapshot", Name: "big", Op: "update", Value: strings.Repeat("v", scratchMaxBytes)}})
	if code, resp := serveOn(t, srv, sc, context.Background(), big); code != 200 || !resp.OK {
		t.Fatalf("large batch: code=%d resp=%+v", code, resp)
	}
	if sc.reset() {
		t.Errorf("scratch with a %d-byte body buffer is still poolable", cap(sc.body))
	}
}

// TestBodyCaps checks both body limits: a body one byte over the limit is
// answered 413 with the limit in the message — not read short and reported
// as malformed JSON — and one exactly at the limit is decoded.
func TestBodyCaps(t *testing.T) {
	srv := New(registry.Options{Procs: 2})
	// pad returns a JSON document of exactly n bytes: doc with spaces inside.
	pad := func(doc string, n int) []byte {
		return []byte(doc[:1] + strings.Repeat(" ", n-len(doc)) + doc[1:])
	}
	for _, tc := range []struct {
		name, path, doc string
		limit           int
	}{
		{"single operation", "/v1/snapshot/cap/update", `{"value":"x"}`, maxOpBytes},
		{"batch", "/v1/batch", `[{"kind":"counter","name":"cap","op":"inc"}]`, maxBatchBytes},
	} {
		rec := do(t, srv, "POST", tc.path, pad(tc.doc, tc.limit))
		if rec.Code != 200 {
			t.Errorf("%s body of exactly %d bytes: code=%d %s", tc.name, tc.limit, rec.Code, rec.Body)
		}
		rec = do(t, srv, "POST", tc.path, pad(tc.doc, tc.limit+1))
		if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), strconv.Itoa(tc.limit)) {
			t.Errorf("%s body of %d bytes: code=%d %s, want 413 naming the limit", tc.name, tc.limit+1, rec.Code, rec.Body)
		}
	}
}

// errReader fails after handing out its bytes.
type errReader struct{ data []byte }

func (r *errReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.ErrUnexpectedEOF
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

func TestReadLimited(t *testing.T) {
	data := bytes.Repeat([]byte("0123456789"), 200)
	for _, limit := range []int{0, 1, 511, 512, 513, len(data) - 1, len(data), len(data) + 1} {
		// How the reader cuts its bytes up must not change the result.
		for _, r := range []io.Reader{bytes.NewReader(data), iotest.OneByteReader(bytes.NewReader(data))} {
			got, err := readLimited(make([]byte, 0, 8), r, limit)
			if err != nil {
				t.Fatalf("limit %d: %v", limit, err)
			}
			want := min(len(data), limit+1)
			if len(got) != want || !bytes.Equal(got, data[:want]) {
				t.Errorf("limit %d: read %d bytes, want the first %d", limit, len(got), want)
			}
		}
	}
	if got, err := readLimited(nil, &errReader{data: data[:700]}, 1<<20); err != io.ErrUnexpectedEOF || len(got) != 700 {
		t.Errorf("failing reader: %d bytes, err=%v; want 700 and ErrUnexpectedEOF", len(got), err)
	}
}

package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"slmem/internal/registry"
)

// TestFastDecodeBatchMatchesEncodingJSON differentially checks the fast
// decoder: on every input it accepts, it must produce exactly what
// encoding/json produces; inputs it rejects must be either handled by the
// fallback or rejected by it too. The corpus covers the canonical shape,
// whitespace, duplicate keys, and every bail-out condition.
func TestFastDecodeBatchMatchesEncodingJSON(t *testing.T) {
	accept := []string{
		`[]`,
		`[{}]`,
		`[{"kind":"counter","name":"c","op":"inc"}]`,
		`[{"kind":"counter","name":"c","op":"inc"},{"kind":"maxreg","name":"m","op":"write","value":"7"}]`,
		`[{"kind":"object","name":"o","op":"execute","type":"set","invocation":"add(3)"}]`,
		`  [ { "kind" : "counter" , "name" : "c" , "op" : "inc" } ]  `,
		"\t[\n{\"kind\":\"snapshot\",\"name\":\"s\",\"op\":\"update\",\"value\":\"x y z\"}\r]\n",
		`[{"name":"dup","name":"wins"}]`, // duplicate key: last wins, same as encoding/json
		`[{},{},{}]`,
		`[{"kind":"snapshot","name":"board","op":"update","value":"héllo €100 日本"}]`, // valid UTF-8 stays on the fast path
	}
	for _, in := range accept {
		got, ok, tooMany := fastDecodeBatch(nil, []byte(in), 1<<20)
		if tooMany {
			t.Errorf("fast path reported tooMany for small input %q", in)
			continue
		}
		if !ok {
			t.Errorf("fast path rejected canonical input %q", in)
			continue
		}
		var want []registry.BatchOp
		if err := json.Unmarshal([]byte(in), &want); err != nil {
			t.Fatalf("corpus input %q is not valid JSON: %v", in, err)
		}
		// fastDecodeBatch returns nil for an empty array where
		// encoding/json returns an empty slice; both mean "no entries".
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("input %q:\nfast = %+v\njson = %+v", in, got, want)
		}
	}

	// Inputs the fast path must hand to the fallback. Each is either valid
	// JSON with features the fast path skips (escapes, non-string values,
	// unknown keys) or malformed JSON the fallback rejects with its own
	// error; in both cases semantics come from encoding/json.
	fallback := []string{
		`[{"name":"with \"escape\""}]`,
		`[{"name":"tab\tchar"}]`,
		"[{\"name\":\"bad-utf8-\xff\"}]",       // invalid UTF-8: json decodes U+FFFD
		"[{\"name\":\"trunc-\xe2\x82\"}]",      // truncated multi-byte sequence
		"[{\"name\":\"ok-\xe2\x82\xac\",42}]",  // valid UTF-8 but malformed JSON
		`[{"name":"euro-€","op":"inc"}]` + "x", // valid unicode, trailing garbage
		`[{"kind":"counter","weird":42}]`,
		`[{"kind":"counter","nested":{"a":1}}]`,
		`[{"kind":null}]`,
		`[{"kind":"counter"}`,
		`{"kind":"counter"}`,
		`[{"kind":"counter"},]`,
		`[42]`,
		`nope`,
		``,
		`null`,
		`[[]]`,
		`[{"kind" "counter"}]`,
		`[{"kind":"counter"}] trailing`,
	}
	for _, in := range fallback {
		got, ok, tooMany := fastDecodeBatch(nil, []byte(in), 1<<20)
		if tooMany {
			t.Errorf("fast path reported tooMany for small input %q", in)
			continue
		}
		if ok {
			var want []registry.BatchOp
			err := json.Unmarshal([]byte(in), &want)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("fast path accepted %q with result %+v; encoding/json says err=%v want=%+v", in, got, err, want)
			}
		}
	}

	// Round trip: whatever the server marshals, the fast path must decode.
	entries := []BatchEntry{
		{Kind: registry.KindCounter, Name: "clicks", Op: registry.OpInc},
		{Kind: registry.KindMaxRegister, Name: "peak", Op: registry.OpWrite, Value: "12"},
		{Kind: registry.KindObject, Name: "bag", Op: registry.OpExecute, Type: "set", Invocation: "contains(7)"},
	}
	body, err := json.Marshal(entries)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, _ := fastDecodeBatch(nil, body, 1<<20)
	if !ok {
		t.Fatalf("fast path rejected marshaled entries %s", body)
	}
	if !reflect.DeepEqual(got, entries) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, entries)
	}
}

// TestAppendResponseMatchesEncodingJSON differentially checks the
// reflection-free response encoders: their output must be byte-identical to
// what json.NewEncoder(w).Encode(resp) wrote before they existed — same
// field order, omitempty semantics, HTML escaping, and invalid-UTF-8
// replacement — on a corpus covering every field combination and every
// escape class.
func TestAppendResponseMatchesEncodingJSON(t *testing.T) {
	strs := []string{
		"", "12", "plain ascii", "x y z",
		`with "quotes"`, `back\slash`, "tab\tchar", "new\nline", "ctrl\x01",
		"<script>&amp;</script>", // encoding/json HTML-escapes these
		"héllo €100 日本",          // multi-byte UTF-8
		"bad-utf8-\xff",          // invalid: json encodes U+FFFD
		"trunc-\xe2\x82",         // truncated multi-byte sequence
		"line-sep\u2028and\u2029",
	}
	var responses []Response
	for _, s := range strs {
		responses = append(responses,
			Response{OK: true, Value: s},
			Response{Error: s},
			Response{OK: true, View: []string{s, "", s + s}},
		)
	}
	responses = append(responses,
		Response{},
		Response{OK: true},
		Response{OK: true, View: []string{}}, // empty view: omitempty drops it
		Response{OK: true, Value: "v", View: []string{"a"}, Error: "e"},
	)

	jsonEncode := func(v any) string {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	for _, r := range responses {
		got := string(append(appendResponse(nil, r), '\n'))
		if want := jsonEncode(r); got != want {
			t.Errorf("Response %+v:\nfast = %q\njson = %q", r, got, want)
		}
	}

	// The batch encoder works straight from the registry's results. It must
	// match the pipeline it replaced: results copied into a BatchResponse's
	// []Response (OK set, Err flattened to its text), encoded by
	// encoding/json.
	var okOnly, valueOnly, viewOnly, errOnly, mixed []registry.BatchResult
	for _, s := range strs {
		okOnly = append(okOnly, registry.BatchResult{})
		valueOnly = append(valueOnly, registry.BatchResult{Value: s})
		viewOnly = append(viewOnly, registry.BatchResult{View: []string{s, "", s + s}}, registry.BatchResult{View: []string{}})
		errOnly = append(errOnly, registry.BatchResult{Err: errors.New(s)})
		mixed = append(mixed, okOnly[0], valueOnly[len(valueOnly)-1], viewOnly[len(viewOnly)-2], errOnly[len(errOnly)-1])
	}
	viaResponse := func(results []registry.BatchResult, stats BatchStats, errMsg string) BatchResponse {
		resp := BatchResponse{OK: errMsg == "" && stats.Failed == 0, Stats: stats, Error: errMsg}
		for _, res := range results {
			if res.Err != nil {
				resp.Results = append(resp.Results, Response{Error: res.Err.Error()})
				continue
			}
			resp.Results = append(resp.Results, Response{OK: true, Value: res.Value, View: res.View})
		}
		return resp
	}
	for _, b := range []struct {
		results []registry.BatchResult
		stats   BatchStats
		errMsg  string
	}{
		{},
		{errMsg: "lease: context canceled"},
		{results: []registry.BatchResult{}, stats: BatchStats{Ops: 1}}, // empty results: omitempty drops them
		{results: okOnly, stats: BatchStats{Ops: len(okOnly), Leases: 1}},
		{results: valueOnly, stats: BatchStats{Ops: len(valueOnly), Leases: 1, ElapsedUS: 7}},
		{results: viewOnly, stats: BatchStats{Ops: len(viewOnly), Leases: 2}},
		{results: errOnly, stats: BatchStats{Ops: len(errOnly), Failed: len(errOnly)}},
		{results: mixed, stats: BatchStats{Ops: len(mixed), Failed: len(strs), Leases: 2, ElapsedUS: 1234567}},
		{stats: BatchStats{ElapsedUS: -1}, errMsg: "batch exceeds 4 entries"},
	} {
		got := string(append(appendBatchReply(nil, b.results, b.stats, b.errMsg), '\n'))
		if want := jsonEncode(viaResponse(b.results, b.stats, b.errMsg)); got != want {
			t.Errorf("batch reply %+v:\nfast = %q\njson = %q", b, got, want)
		}
	}
}

// TestDecodeBatchEntriesCap checks that the entry cap bounds work during
// decoding on both paths: the fast path and the streaming encoding/json
// fallback must reject an over-limit body without materializing it.
func TestDecodeBatchEntriesCap(t *testing.T) {
	fastBody := []byte(`[{"op":"inc"},{"op":"inc"},{"op":"inc"}]`)
	// The escaped quote in the first entry forces the fallback path.
	slowBody := []byte(`[{"name":"a\"b"},{"op":"inc"},{"op":"inc"}]`)

	for _, tc := range []struct {
		name string
		body []byte
	}{{"fast", fastBody}, {"fallback", slowBody}} {
		if _, err := decodeBatchEntries(nil, tc.body, 3); err != nil {
			t.Errorf("%s: 3 entries rejected at cap 3: %v", tc.name, err)
		}
		if _, err := decodeBatchEntries(nil, tc.body, 2); !errors.Is(err, errBatchTooMany) {
			t.Errorf("%s: 3 entries at cap 2: err = %v, want errBatchTooMany", tc.name, err)
		}
	}

	// Decoding must stop at the cap: with cap 2, at most 3 entries may ever
	// be decoded from a huge body, which this keeps fast even for ~1M
	// entries. (A correctness proxy for the allocation bound.)
	huge := bytes.Repeat([]byte("{},"), 1<<20)
	huge = append([]byte{'['}, huge...)
	huge = append(huge[:len(huge)-1], ']')
	start := time.Now()
	if _, err := decodeBatchEntries(nil, huge, 2); !errors.Is(err, errBatchTooMany) {
		t.Fatalf("huge batch at cap 2: err = %v, want errBatchTooMany", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("capped decode of huge body took %v; cap is not bounding work", d)
	}
}

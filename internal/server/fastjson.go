package server

import (
	"encoding/json"
	"strconv"
	"unicode/utf8"

	"slmem/internal/kind"
	"slmem/internal/registry"
)

// intern resolves b against the driver registry's vocabulary (kind names,
// op names, reserved introspection ops) without allocating, falling back to
// a fresh string for anything outside it. Batch bodies repeat kind and op
// in every entry, so this removes two allocations per entry on the common
// path.
func intern(b []byte) string {
	if s, ok := kind.Intern(b); ok {
		return s
	}
	return string(b)
}

// fastDecodeBatch decodes a JSON array of flat batch entries — objects whose
// keys and values are plain strings — without encoding/json's per-entry
// reflection, which would otherwise dominate the cost of a large batch
// (roughly 800ns of the ~1.4us a batched op costs end to end).
//
// It is deliberately partial: any input outside the fast shape — escaped
// strings, non-string values, unknown keys, nested structures, or malformed
// JSON — returns ok=false, and the caller falls back to encoding/json for
// identical semantics (including the error message on truly bad input). The
// fast path therefore never changes what the endpoint accepts; it only
// changes how fast the common shape parses.
//
// Decoding stops once more than max entries appear (tooMany=true): the
// entry cap must bound allocation during decoding, not just be checked
// after an unbounded slice was built.
//
// Entries are decoded into dst's storage from its start, and the slice comes
// back grown even when ok=false, holding whatever was decoded before the
// bail-out: the caller owns clearing it. Every string field is a copy of the
// bytes in data (or the vocabulary's string for them), never a view of them,
// so data may be overwritten as soon as this returns.
func fastDecodeBatch(dst []registry.BatchOp, data []byte, max int) (entries []registry.BatchOp, ok, tooMany bool) {
	entries = dst[:0]
	p := fastParser{buf: data}
	p.ws()
	if !p.eat('[') {
		return entries, false, false
	}
	p.ws()
	if p.eat(']') {
		p.ws()
		return entries, p.done(), false
	}
	for {
		if len(entries) >= max {
			return entries, false, true
		}
		p.ws()
		if !p.eat('{') {
			return entries, false, false
		}
		var e registry.BatchOp
		p.ws()
		if !p.eat('}') {
			for {
				key, kok := p.str()
				if !kok {
					return entries, false, false
				}
				p.ws()
				if !p.eat(':') {
					return entries, false, false
				}
				p.ws()
				val, vok := p.str()
				if !vok {
					return entries, false, false
				}
				// string(key) in a switch does not allocate.
				switch string(key) {
				case "kind":
					e.Kind = registry.Kind(intern(val))
				case "name":
					e.Name = string(val)
				case "op":
					e.Op = registry.Op(intern(val))
				case "value":
					e.Value = string(val)
				case "type":
					e.Type = string(val)
				case "invocation":
					e.Invocation = string(val)
				default:
					// Unknown key: its value might not even be a string;
					// let encoding/json decide what to do with it.
					return entries, false, false
				}
				p.ws()
				if p.eat(',') {
					p.ws()
					continue
				}
				if p.eat('}') {
					break
				}
				return entries, false, false
			}
		}
		entries = append(entries, e)
		p.ws()
		if p.eat(',') {
			continue
		}
		if p.eat(']') {
			break
		}
		return entries, false, false
	}
	p.ws()
	return entries, p.done(), false
}

// --- Fast-path response encoding ---------------------------------------------

// appendJSONString appends s as a JSON string literal, byte-identical to
// encoding/json's output. The fast path covers ASCII needing no escapes;
// anything else — control characters, quotes, backslashes, the
// HTML-escaped set (<, >, &), non-ASCII — is delegated to json.Marshal so
// the escaping rules (including U+2028/U+2029 and invalid-UTF-8
// replacement) stay exactly encoding/json's.
func appendJSONString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			enc, err := json.Marshal(s)
			if err != nil {
				// Marshaling a string cannot fail; keep the reply valid JSON
				// if it somehow does.
				return append(buf, `""`...)
			}
			return append(buf, enc...)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}

// appendResponse appends the JSON encoding of one Response, byte-identical
// to encoding/json's (field order, omitempty semantics).
func appendResponse(buf []byte, r Response) []byte {
	if r.OK {
		buf = append(buf, `{"ok":true`...)
	} else {
		buf = append(buf, `{"ok":false`...)
	}
	if r.Value != "" {
		buf = append(buf, `,"value":`...)
		buf = appendJSONString(buf, r.Value)
	}
	if len(r.View) > 0 {
		buf = append(buf, `,"view":[`...)
		for i, v := range r.View {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = appendJSONString(buf, v)
		}
		buf = append(buf, ']')
	}
	if r.Error != "" {
		buf = append(buf, `,"error":`...)
		buf = appendJSONString(buf, r.Error)
	}
	return append(buf, '}')
}

// appendBatchReply appends the JSON encoding of the BatchResponse that
// carries results, stats and errMsg, byte-identical to encoding/json's,
// straight from the registry's results: no []Response is built, and a
// 64-entry batch reply costs one buffer instead of a reflective walk over 64
// structs — the encode-side half of the batch fast path (fastDecodeBatch is
// the decode-side half). OK is true only when no entry and not the batch as a
// whole failed.
func appendBatchReply(buf []byte, results []registry.BatchResult, stats BatchStats, errMsg string) []byte {
	if errMsg == "" && stats.Failed == 0 {
		buf = append(buf, `{"ok":true`...)
	} else {
		buf = append(buf, `{"ok":false`...)
	}
	if len(results) > 0 {
		buf = append(buf, `,"results":[`...)
		for i := range results {
			if i > 0 {
				buf = append(buf, ',')
			}
			if res := &results[i]; res.Err != nil {
				buf = appendResponse(buf, Response{Error: res.Err.Error()})
			} else {
				buf = appendResponse(buf, Response{OK: true, Value: res.Value, View: res.View})
			}
		}
		buf = append(buf, ']')
	}
	buf = append(buf, `,"stats":{"ops":`...)
	buf = appendInt(buf, int64(stats.Ops))
	buf = append(buf, `,"failed":`...)
	buf = appendInt(buf, int64(stats.Failed))
	buf = append(buf, `,"leases":`...)
	buf = appendInt(buf, int64(stats.Leases))
	buf = append(buf, `,"elapsed_us":`...)
	buf = appendInt(buf, stats.ElapsedUS)
	buf = append(buf, '}')
	if errMsg != "" {
		buf = append(buf, `,"error":`...)
		buf = appendJSONString(buf, errMsg)
	}
	return append(buf, '}')
}

// appendInt appends the decimal encoding of n.
func appendInt(buf []byte, n int64) []byte {
	return strconv.AppendInt(buf, n, 10)
}

// fastParser is a cursor over a JSON document supporting exactly the tokens
// fastDecodeBatch needs.
type fastParser struct {
	buf []byte
	pos int
}

// ws skips JSON whitespace.
func (p *fastParser) ws() {
	for p.pos < len(p.buf) {
		switch p.buf[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// eat consumes c if it is the next byte.
func (p *fastParser) eat(c byte) bool {
	if p.pos < len(p.buf) && p.buf[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

// done reports whether the whole document was consumed.
func (p *fastParser) done() bool { return p.pos == len(p.buf) }

// str consumes a string literal and returns its raw bytes. It reports false
// on anything that is not a simple string: escapes (backslash), control
// characters, and invalid UTF-8 bail out so the fallback path handles them
// with full encoding/json fidelity (which replaces invalid sequences with
// U+FFFD — the fast path must not decode the same bytes differently).
func (p *fastParser) str() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	// The cursor lives in locals for the scan: one store when it ends.
	buf, start := p.buf, p.pos
	nonASCII := false
	for i := start; i < len(buf); i++ {
		c := buf[i]
		if c == '"' {
			s := buf[start:i]
			p.pos = i + 1
			// The scan above already proved pure-ASCII strings valid; only
			// strings with high bytes need the full UTF-8 check.
			if nonASCII && !utf8.Valid(s) {
				return nil, false
			}
			return s, true
		}
		if c == '\\' || c < 0x20 {
			return nil, false
		}
		nonASCII = nonASCII || c >= 0x80
	}
	return nil, false
}

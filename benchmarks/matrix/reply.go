package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"

	"slmem/internal/bag"
)

// The replies are walked by hand: encoding/json on a 64-entry batch reply
// costs the client about a fifth of the call, which would hide that much of
// every server-side change. The walker accepts the JSON the server's
// Response and BatchResponse types produce; a string with an escape in it is
// refused, since no value the workloads write needs one.

var errReply = errors.New("malformed reply")

// entryReply is one operation's reply envelope.
type entryReply struct {
	ok     bool
	value  []byte
	view   [][]byte
	errMsg []byte
}

type replyScanner struct {
	b []byte
	i int
	// view is scratch for entryReply.view, reused across entries.
	view [][]byte
}

func (s *replyScanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// eat consumes c, after white space, if it is next.
func (s *replyScanner) eat(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// raw consumes a string and returns its bytes as written, escapes and all.
func (s *replyScanner) raw() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		switch s.b[s.i] {
		case '\\':
			s.i++ // the escaped byte is part of the string whatever it is
		case '"':
			s.i++
			return s.b[start : s.i-1], true
		}
	}
	return nil, false
}

// str consumes a string that reads the same with and without unescaping.
func (s *replyScanner) str() ([]byte, bool) {
	v, ok := s.raw()
	if !ok || bytes.IndexByte(v, '\\') >= 0 {
		return nil, false
	}
	return v, true
}

// boolean consumes true or false.
func (s *replyScanner) boolean() (v, ok bool) {
	s.ws()
	rest := s.b[s.i:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		s.i += 4
		return true, true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		s.i += 5
		return false, true
	}
	return false, false
}

// skip consumes any value the caller does not need.
func (s *replyScanner) skip() bool {
	s.ws()
	depth := 0
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case '"':
			if _, ok := s.raw(); !ok {
				return false
			}
			if depth == 0 {
				return true
			}
			continue
		case '{', '[':
			depth++
		case '}', ']':
			if depth == 0 {
				return true // a scalar ended where its container does
			}
			depth--
			if depth == 0 {
				s.i++
				return true
			}
		case ',':
			if depth == 0 {
				return true
			}
		}
		s.i++
	}
	return false
}

// members walks an object, calling member with each key; member consumes the
// value.
func (s *replyScanner) members(member func(key []byte) bool) bool {
	if !s.eat('{') {
		return false
	}
	if s.eat('}') {
		return true
	}
	for {
		key, ok := s.str()
		if !ok || !s.eat(':') || !member(key) {
			return false
		}
		if s.eat('}') {
			return true
		}
		if !s.eat(',') {
			return false
		}
	}
}

// entry consumes one operation's reply envelope.
func (s *replyScanner) entry() (entryReply, bool) {
	var e entryReply
	good := s.members(func(key []byte) bool {
		var ok bool
		switch string(key) {
		case "ok":
			e.ok, ok = s.boolean()
		case "value":
			e.value, ok = s.str()
		case "error":
			e.errMsg, ok = s.raw() // only reported, so escapes may stay
		case "view":
			if !s.eat('[') {
				return false
			}
			s.view = s.view[:0]
			if !s.eat(']') {
				for {
					v, vok := s.str()
					if !vok {
						return false
					}
					s.view = append(s.view, v)
					if s.eat(']') {
						break
					}
					if !s.eat(',') {
						return false
					}
				}
			}
			e.view, ok = s.view, true
		default:
			ok = s.skip()
		}
		return ok
	})
	return e, good
}

// decodeReply checks the reply to one call and keeps what the verify phase
// needs: anything but status 200 with every operation ok is an error.
func decodeReply(status int, body []byte, ops []op, res *results, procs int, batch bool) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	s := replyScanner{b: body}
	keep := func(o op, e entryReply) error {
		if !e.ok {
			return fmt.Errorf("%s %s refused: %s", opInfo[o.code].op, kindNames[opInfo[o.code].kind], e.errMsg)
		}
		switch o.code {
		case opBagRemove:
			addRemoved(res, e.value, string(e.value) == bag.EmptyValue)
		case opSnapScan:
			addView(res, e.view, procs)
		}
		return nil
	}
	if !batch {
		e, good := s.entry()
		if !good {
			return fmt.Errorf("%w: %.200s", errReply, body)
		}
		return keep(ops[0], e)
	}

	n := 0
	var opErr error
	good := s.members(func(key []byte) bool {
		if string(key) != "results" {
			return s.skip()
		}
		if !s.eat('[') {
			return false
		}
		if s.eat(']') {
			return true
		}
		for {
			e, ok := s.entry()
			if !ok {
				return false
			}
			if n < len(ops) && opErr == nil {
				opErr = keep(ops[n], e)
			}
			n++
			if s.eat(']') {
				return true
			}
			if !s.eat(',') {
				return false
			}
		}
	})
	switch {
	case !good:
		return fmt.Errorf("%w: %.200s", errReply, body)
	case opErr != nil:
		return opErr
	case n != len(ops):
		return fmt.Errorf("%w: %d results for %d operations", errReply, n, len(ops))
	}
	return nil
}

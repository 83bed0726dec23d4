// Package server is the HTTP/JSON front end over the named-object registry
// (internal/registry). cmd/slserve wires it to a listener and signals;
// examples/service embeds it in-process. Every operation endpoint leases a
// process id from the registry's one pool for the duration of the operation,
// so any number of HTTP clients can share the paper's fixed-n objects.
//
// Kinds and their ops are open: routes resolve through the driver API of
// internal/kind, so a newly registered kind (see internal/bag) is served
// with zero edits here. GET /v1/kinds lists what is registered.
//
// API (all operation endpoints are POST with an optional JSON body):
//
//	POST /v1/counter/{name}/inc                               -> {"ok":true}
//	POST /v1/counter/{name}/read                              -> {"ok":true,"value":"12"}
//	POST /v1/maxreg/{name}/write     {"value":"7"}            -> {"ok":true}
//	POST /v1/maxreg/{name}/read                               -> {"ok":true,"value":"7"}
//	POST /v1/snapshot/{name}/update  {"value":"x"}            -> {"ok":true}
//	POST /v1/snapshot/{name}/scan                             -> {"ok":true,"view":["x","",...]}
//	POST /v1/object/{name}/execute   {"type":"set","invocation":"add(3)"}
//	                                                          -> {"ok":true,"value":"ok"}
//	POST /v1/batch                   [{"kind":"counter","name":"c","op":"inc"},...]
//	                                                          -> {"ok":true,"results":[...],"stats":{...}}
//	GET  /v1/kinds                                            -> registered drivers and their ops
//	GET  /v1/stats                                            -> server and pool metrics
//
// Values travel as decimal strings so every endpoint shares one shape.
// /v1/batch runs every entry under a single pid lease, and a single
// operation is a one-entry batch: both go through the registry's
// BatchExecuteWith on the same pooled request scratch, so a request whose
// client has already gone is refused with 503 before it creates an object or
// takes a lease (see docs/API.md for the full reference and
// docs/ARCHITECTURE.md for the semantics).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"slmem/internal/kind"
	"slmem/internal/registry"
)

// Server is the HTTP front end over a registry. It is an http.Handler and
// carries the request-level metrics the registry cannot see.
type Server struct {
	mux         *http.ServeMux
	reg         *registry.Registry
	start       time.Time
	maxBatchOps int

	requests atomic.Int64
	failures atomic.Int64
	batches  atomic.Int64
	batchOps atomic.Int64
	// inFlight gauges requests currently inside ServeHTTP; maxInFlight is
	// the high-water mark, the server-side record of the deepest concurrency
	// a load run actually reached.
	inFlight    atomic.Int64
	maxInFlight atomic.Int64
	// endpoints counts requests per endpoint label (*atomic.Int64 values):
	// "kind/op" for single-operation endpoints with registered vocabulary,
	// "batch", "kinds", "stats", and "other" for everything unregistered —
	// bounded labels so hostile paths cannot grow the map.
	endpoints sync.Map
}

// Option configures a Server beyond its registry options.
type Option func(*Server)

// WithMaxBatchOps caps the number of entries accepted per /v1/batch request
// (default MaxBatchOps). Larger batches are rejected with 413.
func WithMaxBatchOps(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.maxBatchOps = n
		}
	}
}

// New constructs a server over a fresh registry.
func New(opts registry.Options, extra ...Option) *Server {
	s := &Server{
		mux:         http.NewServeMux(),
		reg:         registry.New(opts),
		start:       time.Now(),
		maxBatchOps: MaxBatchOps,
	}
	for _, opt := range extra {
		opt(s)
	}
	s.mux.HandleFunc("POST /v1/batch", pooled(s.serveBatch))
	s.mux.HandleFunc("POST /v1/{kind}/{name}/{op}", pooled(s.serveOp))
	s.mux.HandleFunc("GET /v1/kinds", s.handleKinds)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	return s
}

// Registry returns the registry backing this server.
func (s *Server) Registry() *registry.Registry { return s.reg }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	n := s.inFlight.Add(1)
	for {
		max := s.maxInFlight.Load()
		if n <= max || s.maxInFlight.CompareAndSwap(max, n) {
			break
		}
	}
	defer s.inFlight.Add(-1)
	s.mux.ServeHTTP(w, r)
}

// countEndpoint bumps the per-endpoint request counter.
func (s *Server) countEndpoint(label string) {
	c, ok := s.endpoints.Load(label)
	if !ok {
		c, _ = s.endpoints.LoadOrStore(label, new(atomic.Int64))
	}
	c.(*atomic.Int64).Add(1)
}

// Request is the JSON body accepted by every operation endpoint; fields are
// read only by the operations that need them.
type Request struct {
	// Value is the operand: the component text for snapshot update, a
	// decimal for maxreg write, the item for bag insert.
	Value string `json:"value"`
	// Type names the simple type for object endpoints (set, accumulator,
	// register, counter, maxreg).
	Type string `json:"type"`
	// Invocation is the operation string for object execute, e.g. "add(3)".
	Invocation string `json:"invocation"`
}

// Response is the JSON shape of every operation reply.
type Response struct {
	OK    bool     `json:"ok"`
	Value string   `json:"value,omitempty"`
	View  []string `json:"view,omitempty"`
	Error string   `json:"error,omitempty"`
}

// maxOpBytes caps the body of a single-operation request.
const maxOpBytes = 1 << 20

// serveOp runs one operation as a one-entry batch on sc: the path and body
// become one BatchEntry, and the registry's BatchExecuteWith validates,
// resolves, compiles, leases and runs it exactly as it would a /v1/batch
// entry. So a request whose client has gone is refused before it creates an
// object or takes a lease, and a request that can never succeed creates
// nothing either.
func (s *Server) serveOp(w http.ResponseWriter, r *http.Request, sc *batchScratch) {
	kindName, op := r.PathValue("kind"), r.PathValue("op")
	// The endpoint label is "kind/op" when the kind is registered and
	// declares the op, "other" otherwise, so arbitrary request paths cannot
	// grow the stats map.
	d, known := kind.Lookup(kindName)
	label := "other"
	if known && d.Declares(op) {
		label = kindName + "/" + op
	}
	s.countEndpoint(label)

	var err error
	sc.body, err = readLimited(sc.body[:0], r.Body, maxOpBytes)
	if err != nil {
		s.replyOp(w, sc, http.StatusBadRequest, Response{Error: "bad request body: " + err.Error()})
		return
	}
	if len(sc.body) > maxOpBytes {
		s.replyOp(w, sc, http.StatusRequestEntityTooLarge,
			Response{Error: fmt.Sprintf("request body exceeds %d bytes", maxOpBytes)})
		return
	}
	req, err := decodeRequest(sc.body)
	if err != nil {
		s.replyOp(w, sc, http.StatusBadRequest, Response{Error: "bad request body: " + err.Error()})
		return
	}
	// The registry's introspection ops are batch entries, not endpoints: no
	// driver declares them, so the driver refuses them as any unknown op.
	if o := registry.Op(op); o == registry.OpNames || o == registry.OpStats {
		err := kind.UnknownKind(kindName)
		if known {
			err = d.UnknownOp(op)
		}
		s.replyOp(w, sc, opStatus(err, false), Response{Error: err.Error()})
		return
	}

	sc.entries = append(sc.entries, BatchEntry{Kind: registry.Kind(kindName), Name: r.PathValue("name"),
		Op: registry.Op(op), Value: req.Value, Type: req.Type, Invocation: req.Invocation})
	out, err := s.reg.BatchExecuteWith(r.Context(), sc.entries, &sc.work)
	if err == nil {
		err = out.Results[0].Err
	}
	if err != nil {
		s.replyOp(w, sc, opStatus(err, out.Leases > 0), Response{Error: err.Error()})
		return
	}
	res := &out.Results[0]
	s.replyOp(w, sc, http.StatusOK, Response{OK: true, Value: res.Value, View: res.View})
}

// opStatus maps the error of a single operation to its HTTP status: a client
// that went away before the operation ran is 503, unknown kinds and ops 404,
// a request that contradicts an existing object (a universal object's type)
// 409, a failure once the operation held a lease 500, and everything else —
// malformed operands, unknown types, bad invocations — 400.
func opStatus(err error, leased bool) int {
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	case kind.IsNotFound(err):
		return http.StatusNotFound
	case kind.IsConflict(err):
		return http.StatusConflict
	case leased:
		return http.StatusInternalServerError
	}
	return http.StatusBadRequest
}

// decodeRequest parses a single-operation request body with encoding/json:
// one request is one small object, and the HTTP round trip around it costs
// a hundred times its decoding. An empty body is the zero Request (operation
// endpoints allow omitting the body). The strings it returns are copies, not
// views of body.
func decodeRequest(body []byte) (Request, error) {
	if len(body) == 0 {
		return Request{}, nil
	}
	var req Request
	if err := json.Unmarshal(body, &req); err != nil {
		return Request{}, err
	}
	return req, nil
}

// replyOp writes a single-operation reply from sc.reply, counting a failed
// operation into the server failure metric.
func (s *Server) replyOp(w http.ResponseWriter, sc *batchScratch, status int, resp Response) {
	if resp.Error != "" {
		s.failures.Add(1)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	sc.reply = append(appendResponse(sc.reply[:0], resp), '\n')
	if _, err := w.Write(sc.reply); err != nil {
		log.Printf("server: write response: %v", err)
	}
}

// KindsResponse is the JSON shape of GET /v1/kinds: one record per
// registered driver, sorted by kind name.
type KindsResponse struct {
	// Kinds lists the registered drivers.
	Kinds []kind.Info `json:"kinds"`
}

// handleKinds serves GET /v1/kinds from the driver registry: the kinds this
// server can serve and their ops.
func (s *Server) handleKinds(w http.ResponseWriter, r *http.Request) {
	s.countEndpoint("kinds")
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(KindsResponse{Kinds: kind.Describe()}); err != nil {
		log.Printf("server: encode kinds: %v", err)
	}
}

// Stats is the JSON shape of GET /v1/stats. Batches counts /v1/batch
// requests accepted for execution; BatchOps counts the entries they carried
// (each of a registered kind also appears in Ops under its kind).
type Stats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Requests      int64   `json:"requests"`
	Failures      int64   `json:"failures"`
	Batches       int64   `json:"batches"`
	BatchOps      int64   `json:"batch_ops"`
	// InFlight is how many requests are inside the handler right now;
	// MaxInFlight is the deepest concurrency observed since start. Load
	// harnesses read MaxInFlight to confirm their offered concurrency
	// actually reached the server.
	InFlight    int64 `json:"in_flight"`
	MaxInFlight int64 `json:"max_in_flight"`
	// Endpoints counts requests per endpoint: "kind/op" for registered
	// single-operation routes (a registered kind and an op it declares),
	// "batch"/"kinds"/"stats" for the fixed routes, "other" for the rest.
	Endpoints map[string]int64 `json:"endpoints"`
	// Ops is Registry.Ops: operations counted per kind by the registry, a
	// single operation exactly as its one-entry batch.
	Ops      map[string]int64 `json:"ops"`
	Registry registry.Stats   `json:"registry"`
}

// Stats returns a snapshot of server metrics.
func (s *Server) Stats() Stats {
	reg := s.reg.Stats()
	endpoints := make(map[string]int64)
	s.endpoints.Range(func(key, value any) bool {
		endpoints[key.(string)] = value.(*atomic.Int64).Load()
		return true
	})
	return Stats{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Requests:      s.requests.Load(),
		Failures:      s.failures.Load(),
		Batches:       s.batches.Load(),
		BatchOps:      s.batchOps.Load(),
		InFlight:      s.inFlight.Load(),
		MaxInFlight:   s.maxInFlight.Load(),
		Endpoints:     endpoints,
		Ops:           reg.Ops,
		Registry:      reg,
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.countEndpoint("stats")
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(s.Stats()); err != nil {
		log.Printf("server: encode stats: %v", err)
	}
}

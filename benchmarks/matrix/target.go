package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"slmem"
	"slmem/internal/bag"
	"slmem/internal/core"
	"slmem/internal/kind"
	"slmem/internal/memory"
	"slmem/internal/registry"
	"slmem/internal/server"
)

// The entry points of the layer ladder, lowest first. A workload's
// end-to-end run drives its top rung; the traced pass drives every rung of
// the workload's ladder with the same calls.
const (
	rungCore     = "core"     // bare paper objects, pid = client number
	rungRuntime  = "runtime"  // the same, each call inside a pid lease
	rungKind     = "kind"     // pre-resolved driver instances: Compile + Run under the lease
	rungRegistry = "registry" // Registry.Get per op, or BatchExecute per batch
	rungServer   = "server"   // Server.ServeHTTP with an in-memory request and recorder
	rungNet      = "net"      // a real HTTP client over loopback TCP
)

// target executes one call of one client at some entry point, filling res
// with what the verify phase needs. A target belongs to one client.
type target func(ops []op, res *results) error

// httpTimeout bounds one HTTP call, so a wedged server cannot hold a client
// past the watchdog.
const httpTimeout = 10 * time.Second

// env is one constructed system under test: a registry (inside a server for
// the HTTP workloads) with every object of the workload created and
// resolved, and, for the HTTP workloads, a loopback listener and a client.
type env struct {
	w     *workload
	names [numKinds][]string
	reg   *registry.Registry
	srv   *server.Server // nil for the in-process workloads

	insts [numKinds][]kind.Instance
	// pools are the distinct pid pools a call of this workload leases from,
	// in the registry's acquisition order; poolOf maps a kind to its index.
	pools  []*slmem.PIDPool
	poolOf [numKinds]int

	httpSrv *http.Server
	served  chan struct{} // closed when Serve has returned
	base    string
	client  *http.Client

	// paths and entryHeads are the constant part of each operation's wire
	// form, per opCode and key.
	paths      [numOpCodes][]string
	entryHeads [numOpCodes][][]byte
}

// newEnv builds the system for w and creates and resolves every object.
func newEnv(w *workload) (*env, error) {
	e := &env{w: w}
	opts := registry.Options{Procs: w.procs}
	if w.http {
		e.srv = server.New(opts)
		e.reg = e.srv.Registry()
	} else {
		e.reg = registry.New(opts)
	}
	for k, n := range w.names {
		e.names[k] = make([]string, n)
		e.insts[k] = make([]kind.Instance, n)
		for key := 0; key < n; key++ {
			name := objectName(objKind(k), key)
			e.names[k][key] = name
			inst, pool, err := e.reg.Get(registry.Kind(kindNames[k]), name, createRequest(objKind(k)))
			if err != nil {
				return nil, fmt.Errorf("create %s/%s: %w", kindNames[k], name, err)
			}
			e.insts[k][key] = inst
			e.poolOf[k] = e.poolIndex(pool)
		}
	}
	for code := range opInfo {
		k := opInfo[code].kind
		e.paths[code] = make([]string, len(e.names[k]))
		e.entryHeads[code] = make([][]byte, len(e.names[k]))
		for key, name := range e.names[k] {
			e.paths[code][key] = "/v1/" + kindNames[k] + "/" + name + "/" + opInfo[code].op
			e.entryHeads[code][key] = []byte(`{"kind":"` + kindNames[k] + `","name":"` + name + `","op":"` + opInfo[code].op + `"`)
		}
	}
	if w.http {
		if err := e.listen(); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// poolIndex returns the index of pool in e.pools, adding it when new. The
// shared pool is created with the registry and so is always seen first, which
// is the order BatchExecute acquires in.
func (e *env) poolIndex(pool *slmem.PIDPool) int {
	if len(e.pools) == 0 {
		e.pools = append(e.pools, e.reg.Pool())
	}
	for i, p := range e.pools {
		if p == pool {
			return i
		}
	}
	e.pools = append(e.pools, pool)
	return len(e.pools) - 1
}

func (e *env) listen() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen on loopback: %w", err)
	}
	e.httpSrv = &http.Server{Handler: e.srv}
	e.served = make(chan struct{})
	go func() {
		defer close(e.served)
		_ = e.httpSrv.Serve(ln) // returns ErrServerClosed from close()
	}()
	e.base = "http://" + ln.Addr().String()
	e.client = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients},
		Timeout:   httpTimeout,
	}
	return nil
}

// close stops the listener and waits for the serving goroutine.
func (e *env) close() {
	if e.httpSrv == nil {
		return
	}
	e.client.CloseIdleConnections()
	_ = e.httpSrv.Close() // connections are idle: the clients have stopped
	<-e.served
}

// createRequest is the request that creates an object of kind k.
func createRequest(k objKind) kind.Request {
	if k == kindObject {
		return kind.Request{Op: "execute", Type: objectType, Invocation: objectInc}
	}
	return kind.Request{}
}

// request is the driver-level form of o.
func request(o op) kind.Request {
	req := kind.Request{Op: opInfo[o.code].op}
	switch {
	case o.code == opObjInc:
		req.Type, req.Invocation = objectType, objectInc
	case opInfo[o.code].hasValue:
		req.Value = o.value()
	}
	return req
}

// absorb keeps what the verify phase needs of one operation's result.
func absorb(o op, out kind.Result, res *results, procs int) {
	switch o.code {
	case opBagRemove:
		addRemoved(res, out.Value, out.Value == bag.EmptyValue)
	case opSnapScan:
		addView(res, out.View, procs)
	}
}

// withPools leases one pid from each pool, in order, around fn.
func withPools(ctx context.Context, pools []*slmem.PIDPool, pids []int, fn func(pids []int) error) error {
	if len(pools) == 0 {
		return fn(pids)
	}
	return pools[0].With(ctx, func(pid int) error {
		return withPools(ctx, pools[1:], append(pids, pid), fn)
	})
}

// target returns the entry point rung for one client.
func (e *env) target(rung string) target {
	ctx := context.Background()
	switch rung {
	case rungKind:
		pids := make([]int, 0, len(e.pools))
		return func(ops []op, res *results) error {
			return withPools(ctx, e.pools, pids, func(pids []int) error {
				for _, o := range ops {
					k := opInfo[o.code].kind
					compiled, err := e.insts[k][o.key].Compile(request(o))
					if err != nil {
						return err
					}
					out, err := compiled.Run(pids[e.poolOf[k]])
					if err != nil {
						return err
					}
					absorb(o, out, res, e.w.procs)
				}
				return nil
			})
		}
	case rungRegistry:
		if e.w.batch {
			batch := make([]registry.BatchOp, 0, batchSize)
			return func(ops []op, res *results) error {
				batch = batch[:0]
				for _, o := range ops {
					k := opInfo[o.code].kind
					req := request(o)
					batch = append(batch, registry.BatchOp{
						Kind: registry.Kind(kindNames[k]), Name: e.names[k][o.key], Op: registry.Op(req.Op),
						Value: req.Value, Type: req.Type, Invocation: req.Invocation,
					})
				}
				out, err := e.reg.BatchExecute(ctx, batch)
				if err != nil {
					return err
				}
				for i, r := range out.Results {
					if r.Err != nil {
						return r.Err
					}
					absorb(ops[i], kind.Result{Value: r.Value, View: r.View}, res, e.w.procs)
				}
				return nil
			}
		}
		// What server.dispatch does for one operation, minus HTTP.
		return func(ops []op, res *results) error {
			o := ops[0]
			k := opInfo[o.code].kind
			req := request(o)
			inst, pool, err := e.reg.Get(registry.Kind(kindNames[k]), e.names[k][o.key], req)
			if err != nil {
				return err
			}
			compiled, err := inst.Compile(req)
			if err != nil {
				return err
			}
			var out kind.Result
			err = pool.With(ctx, func(pid int) error {
				var runErr error
				out, runErr = compiled.Run(pid)
				return runErr
			})
			if err != nil {
				return err
			}
			absorb(o, out, res, e.w.procs)
			return nil
		}
	case rungServer:
		var body []byte
		rec := &recorder{header: make(http.Header)}
		return func(ops []op, res *results) error {
			var path string
			path, body = e.encode(ops, body[:0])
			req, err := http.NewRequest(http.MethodPost, "http://matrix"+path, bytes.NewReader(body))
			if err != nil {
				return err
			}
			rec.reset()
			e.srv.ServeHTTP(rec, req)
			return decodeReply(rec.status, rec.body.Bytes(), ops, res, e.w.procs, e.w.batch)
		}
	case rungNet:
		var body []byte
		var reply bytes.Buffer
		return func(ops []op, res *results) error {
			var path string
			path, body = e.encode(ops, body[:0])
			req, err := http.NewRequest(http.MethodPost, e.base+path, bytes.NewReader(body))
			if err != nil {
				return err
			}
			if len(body) > 0 {
				req.Header.Set("Content-Type", "application/json")
			}
			resp, err := e.client.Do(req)
			if err != nil {
				return err
			}
			reply.Reset()
			_, err = reply.ReadFrom(resp.Body)
			resp.Body.Close()
			if err != nil {
				return fmt.Errorf("read reply: %w", err)
			}
			return decodeReply(resp.StatusCode, reply.Bytes(), ops, res, e.w.procs, e.w.batch)
		}
	}
	panic("matrix: env has no rung " + rung)
}

// encode appends the HTTP form of one call to body and returns its path: the
// single-operation endpoint, or /v1/batch with one entry per operation.
func (e *env) encode(ops []op, body []byte) (string, []byte) {
	if !e.w.batch {
		o := ops[0]
		switch {
		case o.code == opObjInc:
			body = append(body, `{"type":"`+objectType+`","invocation":"`+objectInc+`"}`...)
		case opInfo[o.code].hasValue:
			body = append(body, `{"value":"`...)
			body = o.appendValue(body)
			body = append(body, `"}`...)
		}
		return e.paths[o.code][o.key], body
	}
	body = append(body, '[')
	for i, o := range ops {
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, e.entryHeads[o.code][o.key]...)
		switch {
		case o.code == opObjInc:
			body = append(body, `,"type":"`+objectType+`","invocation":"`+objectInc+`"`...)
		case opInfo[o.code].hasValue:
			body = append(body, `,"value":"`...)
			body = o.appendValue(body)
			body = append(body, '"')
		}
		body = append(body, '}')
	}
	return "/v1/batch", append(body, ']')
}

// recorder is the in-memory http.ResponseWriter of the server rung.
type recorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) WriteHeader(status int)      { r.status = status }
func (r *recorder) Write(p []byte) (int, error) { return r.body.Write(p) }

func (r *recorder) reset() {
	clear(r.header)
	r.status = http.StatusOK
	r.body.Reset()
}

// bare is the workload's objects without any serving layer: what the core
// and runtime rungs apply operations to. The objects are built as the kind
// drivers build them, for the same number of processes.
type bare struct {
	procs     int
	counters  []*core.Counter
	maxregs   []*core.MaxRegister
	snapshots []*core.Snapshot[string]
	bags      []*bag.Bag
	objects   []*slmem.Object
	// pools are the runtime rung's pid pools: one for the shared-pool kinds
	// and one for bags, as the registry has.
	pools  []*slmem.PIDPool
	poolOf [numKinds]int
}

func newBare(w *workload) *bare {
	var alloc memory.NativeAllocator
	b := &bare{procs: w.procs, pools: []*slmem.PIDPool{slmem.NewPIDPool(w.procs)}}
	if w.names[kindBag] > 0 {
		b.pools = append(b.pools, slmem.NewPIDPool(w.procs))
		b.poolOf[kindBag] = 1
	}
	for i := 0; i < w.names[kindCounter]; i++ {
		b.counters = append(b.counters, core.NewCounter(&alloc, w.procs))
	}
	for i := 0; i < w.names[kindMaxreg]; i++ {
		b.maxregs = append(b.maxregs, core.NewMaxRegister(&alloc, w.procs))
	}
	for i := 0; i < w.names[kindSnapshot]; i++ {
		b.snapshots = append(b.snapshots, core.New[string](&alloc, w.procs, ""))
	}
	for i := 0; i < w.names[kindBag]; i++ {
		b.bags = append(b.bags, bag.New(w.procs))
	}
	for i := 0; i < w.names[kindObject]; i++ {
		obj := slmem.NewObject(slmem.CounterType{}, w.procs)
		obj.SetGC(slmem.ObjectGCOptions{Window: slmem.DefaultObjectGCWindow})
		b.objects = append(b.objects, obj)
	}
	return b
}

// apply runs o as process pid.
func (b *bare) apply(pid int, o op, res *results) error {
	switch o.code {
	case opCounterInc:
		b.counters[o.key].Inc(pid)
	case opCounterRead:
		b.counters[o.key].Read(pid)
	case opMaxWrite:
		b.maxregs[o.key].MaxWrite(pid, uint64(o.arg))
	case opSnapUpdate:
		b.snapshots[o.key].Update(pid, o.value())
	case opSnapScan:
		addView(res, b.snapshots[o.key].Scan(pid), b.procs)
	case opBagInsert:
		b.bags[o.key].Insert(pid, o.value())
	case opBagRemove:
		it, ok := b.bags[o.key].Remove(pid)
		addRemoved(res, it, !ok)
	case opObjInc:
		if _, err := b.objects[o.key].Execute(pid, objectInc); err != nil {
			return err
		}
	}
	return nil
}

// coreStats sums the base-operation counters of every snapshot-derived bare
// object: operations spent inside scans, and the longest scan loop seen.
func (b *bare) coreStats() (opsInScan, maxScanIters int64) {
	add := func(st *core.Stats) {
		opsInScan += st.OpsInScan.Load()
		maxScanIters = max(maxScanIters, st.MaxScanIters.Load())
	}
	for _, c := range b.counters {
		add(c.Stats())
	}
	for _, m := range b.maxregs {
		add(m.Stats())
	}
	for _, s := range b.snapshots {
		add(s.Stats())
	}
	return opsInScan, maxScanIters
}

// runtimeTarget applies each call to the bare objects inside pid leases.
func (b *bare) runtimeTarget() target {
	ctx := context.Background()
	pids := make([]int, 0, len(b.pools))
	return func(ops []op, res *results) error {
		return withPools(ctx, b.pools, pids, func(pids []int) error {
			for _, o := range ops {
				if err := b.apply(pids[b.poolOf[opInfo[o.code].kind]], o, res); err != nil {
					return err
				}
			}
			return nil
		})
	}
}

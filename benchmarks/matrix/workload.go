package main

import (
	"fmt"
	"strconv"

	"slmem/internal/load"
)

// clients is the number of closed-loop callers: each waits for its reply
// before sending the next call. The HTTP workloads hold one keep-alive
// connection per client.
const clients = 2

// batchSize is the number of entries in one /v1/batch call.
const batchSize = 64

// opCode names one operation of the served system.
type opCode uint8

const (
	opCounterInc opCode = iota
	opCounterRead
	opMaxWrite
	opSnapUpdate
	opSnapScan
	opBagInsert
	opBagRemove
	opObjInc
	numOpCodes
)

// objKind indexes the five kinds of object the workloads touch.
type objKind uint8

const (
	kindCounter objKind = iota
	kindMaxreg
	kindSnapshot
	kindBag
	kindObject
	numKinds
)

// opInfo is the wire vocabulary of an opCode.
var opInfo = [numOpCodes]struct {
	kind     objKind
	op       string
	hasValue bool
}{
	opCounterInc:  {kindCounter, "inc", false},
	opCounterRead: {kindCounter, "read", false},
	opMaxWrite:    {kindMaxreg, "write", true},
	opSnapUpdate:  {kindSnapshot, "update", true},
	opSnapScan:    {kindSnapshot, "scan", false},
	opBagInsert:   {kindBag, "insert", true},
	opBagRemove:   {kindBag, "remove", false},
	opObjInc:      {kindObject, "execute", false},
}

// kindNames are the registered kind names, and the prefix of object names.
var kindNames = [numKinds]string{"counter", "maxreg", "snapshot", "bag", "object"}

// The universal-object workload serves the counter type through inc() only;
// read() runs once per object in the verify phase.
const (
	objectType = "counter"
	objectInc  = "inc()"
	objectRead = "read()"
)

// op is one generated operation. arg is the operand: the value of a maxreg
// write, the index of a snapshot value, the sequence number of a bag item.
type op struct {
	code   opCode
	client uint8
	key    uint8
	arg    uint32
}

// snapValues are the strings the clients write into snapshots, a fixed table
// per client so that generating an update allocates nothing and a scanned
// component can be recognised by its shape alone.
var snapValues = func() (t [clients][256]string) {
	for c := range t {
		for i := range t[c] {
			t[c][i] = fmt.Sprintf("w%d-%03d", c, i)
		}
	}
	return t
}()

// validSnapValue reports whether v is the initial value of a snapshot
// component or a value some client writes.
func validSnapValue[T ~string | ~[]byte](v T) bool {
	if len(v) == 0 {
		return true
	}
	if len(v) != 6 || v[0] != 'w' || v[1] < '0' || v[1] >= '0'+clients || v[2] != '-' {
		return false
	}
	for i := 3; i < 6; i++ {
		if v[i] < '0' || v[i] > '9' {
			return false
		}
	}
	return true
}

// value returns the operand of o as the wire carries it.
func (o op) value() string {
	return string(o.appendValue(nil))
}

func (o op) appendValue(dst []byte) []byte {
	switch o.code {
	case opMaxWrite:
		return strconv.AppendUint(dst, uint64(o.arg), 10)
	case opSnapUpdate:
		return append(dst, snapValues[o.client][o.arg%256]...)
	case opBagInsert:
		return appendItem(dst, item{client: o.client, seq: o.arg})
	}
	return dst
}

// item identifies one bag insert: the client that made it and that client's
// running insert number. Items are unique, so a bag that hands one out twice
// is caught.
type item struct {
	client uint8
	seq    uint32
}

func appendItem(dst []byte, it item) []byte {
	dst = append(dst, 'a'+it.client)
	return strconv.AppendUint(dst, uint64(it.seq), 10)
}

// parseItem decodes an item as a bag remove returns it.
func parseItem[T ~string | ~[]byte](v T) (item, bool) {
	if len(v) < 2 || len(v) > 11 || v[0] < 'a' || v[0] >= 'a'+clients {
		return item{}, false
	}
	var n uint64
	for i := 1; i < len(v); i++ {
		if v[i] < '0' || v[i] > '9' {
			return item{}, false
		}
		n = n*10 + uint64(v[i]-'0')
	}
	if n > 1<<32-1 {
		return item{}, false
	}
	return item{client: v[0] - 'a', seq: uint32(n)}, true
}

// workload is one traffic mix. Every workload runs with the same two
// closed-loop clients; what differs is which layers do the work.
type workload struct {
	name string
	// http drives the system over loopback TCP; otherwise the clients call
	// the registry in process, as the server's dispatch does.
	http bool
	// batch sends batchSize operations per call through the batch pipeline.
	batch bool
	// procs is the registry's pid-pool size.
	procs int
	// names is the number of objects of each kind the workload uses.
	names [numKinds]int
	// shape appends the operations of one call to buf.
	shape func(g *generator, buf []op) []op
}

// ladder lists the entry points the traced pass drives, lowest first.
func (w *workload) ladder() []string {
	rungs := []string{rungCore, rungRuntime, rungKind, rungRegistry}
	if w.http {
		rungs = append(rungs, rungServer, rungNet)
	}
	return rungs
}

// top is the entry point the end-to-end run drives.
func (w *workload) top() string {
	if w.http {
		return rungNet
	}
	return rungRegistry
}

// opsPerCall is the number of operations one call carries.
func (w *workload) opsPerCall() int {
	if w.batch {
		return batchSize
	}
	return 1
}

var workloads = []*workload{
	{
		name: "http-single",
		// Why: one counter op per POST: the HTTP round trip and internal/server
		// do ~97% of the work, so server, fastjson and net changes show here and
		// object changes do not
		http:  true,
		procs: 16,
		names: [numKinds]int{kindCounter: 64},
		shape: func(g *generator, buf []op) []op {
			code := opCounterInc
			if g.mix.Next() == 0 {
				code = opCounterRead
			}
			return append(buf, g.op(code))
		},
	},
	{
		name: "http-batch64",
		// Why: 64 mixed ops per POST /v1/batch: HTTP is amortised 64x, so
		// BatchExecute, the kind codec, the lease and the paper objects do the
		// work; the write-heavy use of internal/core
		http:  true,
		batch: true,
		procs: 16,
		names: [numKinds]int{kindCounter: 64, kindMaxreg: 64, kindSnapshot: 64, kindBag: 64},
		shape: func(g *generator, buf []op) []op {
			for _, part := range [...]struct {
				code opCode
				n    int
			}{{opCounterInc, 16}, {opCounterRead, 8}, {opMaxWrite, 8}, {opSnapUpdate, 8}, {opSnapScan, 8}} {
				for i := 0; i < part.n; i++ {
					buf = append(buf, g.op(part.code))
				}
			}
			// Each insert is followed by a remove on the same bag, so bags
			// stay small and, by strong linearizability, no remove can find
			// its bag empty.
			for i := 0; i < 8; i++ {
				ins := g.op(opBagInsert)
				buf = append(buf, ins, op{code: opBagRemove, client: ins.client, key: ins.key})
			}
			return buf
		},
	},
	{
		name: "inproc-readmostly",
		// Why: no HTTP, 90% scan / 10% update over 8 shared snapshots: the read-
		// heavy use of internal/core beside http-batch64's writes, and the lease
		// is ~25% of an op here
		procs: 16,
		names: [numKinds]int{kindSnapshot: 8},
		shape: func(g *generator, buf []op) []op {
			code := opSnapScan
			if g.mix.Next() == 0 {
				code = opSnapUpdate
			}
			return append(buf, g.op(code))
		},
	},
	{
		name: "inproc-object",
		// Why: no HTTP, inc() on 64 universal objects with a 2-pid pool:
		// internal/universal (replay cache, precedence graph, GC) does all the
		// work and nothing else touches it
		procs: clients,
		names: [numKinds]int{kindObject: 64},
		shape: func(g *generator, buf []op) []op {
			return append(buf, g.op(opObjInc))
		},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// generator produces one client's calls. Everything it emits is a function of
// the seed and the client number, so a seed names an input exactly.
type generator struct {
	w      *workload
	client uint8
	keys   [numKinds]load.KeyGen
	mix    load.KeyGen // draws 0..9; 0 picks the 10% operation
	seq    uint32      // operand counter: maxreg and snapshot values
	bagSeq uint32      // insert counter: bag items
}

func newGenerator(w *workload, seed int64, client int) *generator {
	g := &generator{w: w, client: uint8(client)}
	clientSeed := seed + int64(client)*1000003
	for k, n := range w.names {
		if n > 0 {
			g.keys[k] = mustKeyGen(n, clientSeed+int64(k)*7919)
		}
	}
	g.mix = mustKeyGen(10, clientSeed+104729)
	return g
}

func mustKeyGen(keys int, seed int64) load.KeyGen {
	kg, err := load.KeySpec{Dist: load.DistUniform, Keys: keys}.New(seed)
	if err != nil {
		panic(err) // the spec is a constant of this file
	}
	return kg
}

// op draws the key and operand of one operation.
func (g *generator) op(code opCode) op {
	o := op{code: code, client: g.client, key: uint8(g.keys[opInfo[code].kind].Next())}
	switch code {
	case opMaxWrite:
		// Rising and distinct across clients, so most writes raise the
		// register instead of returning early.
		g.seq++
		o.arg = g.seq<<1 | uint32(g.client)
	case opSnapUpdate:
		g.seq++
		o.arg = g.seq
	case opBagInsert:
		o.arg = g.bagSeq
		g.bagSeq++
	}
	return o
}

// next appends the operations of the client's next call to buf.
func (g *generator) next(buf []op) []op { return g.w.shape(g, buf) }

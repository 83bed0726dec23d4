package registry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"

	"slmem/internal/kind"
)

// Op names an operation in a batch, matching the final path segment of the
// server's single-operation endpoints. The op space is open — any op a
// registered driver declares is valid for its kind — plus the reserved
// registry-level introspection ops OpNames and OpStats.
type Op string

// Ops of the built-in kinds, as constants for compile-time checked callers:
// counters accept inc/read, max-registers write/read, snapshots update/scan,
// and universal objects execute. Other kinds (e.g. the bag) define their op
// names in their drivers.
const (
	OpInc     Op = "inc"
	OpRead    Op = "read"
	OpWrite   Op = "write"
	OpUpdate  Op = "update"
	OpScan    Op = "scan"
	OpExecute Op = "execute"
)

// Reserved registry-level introspection ops, valid in batches for any
// registered kind (kind.ReservedOps keeps drivers from claiming them).
const (
	// OpNames lists the registered names of the entry's kind in View.
	OpNames Op = "names"
	// OpStats reports registry stats as a JSON document in Value.
	OpStats Op = "stats"
)

// BatchOp is one typed operation in a batch: an operation Op against the
// named object of the given kind. Value is the operand where the operation
// takes one (a decimal for maxreg write, the component text for snapshot
// update, the item for bag insert); Type and Invocation are used only by
// object execute.
type BatchOp struct {
	Kind       Kind   `json:"kind"`
	Name       string `json:"name"`
	Op         Op     `json:"op"`
	Value      string `json:"value,omitempty"`
	Type       string `json:"type,omitempty"`
	Invocation string `json:"invocation,omitempty"`
}

// BatchResult is the outcome of one BatchOp. Exactly one of the payload
// fields is populated on success, mirroring the single-operation responses:
// Value for reads and execute, View for scans, neither for writes. Err is
// non-nil when the op was rejected during validation, failed during
// execution, or was skipped because the batch's context was cancelled before
// it ran.
type BatchResult struct {
	Value string
	View  []string
	Err   error
}

// stepKind classifies a compiled batch entry.
type stepKind uint8

const (
	stepInvalid stepKind = iota
	stepRun              // a driver op: run compiled as the batch's leased pid
	stepNames            // registry introspection: names of a kind
	stepStats            // registry introspection: stats document
)

// step is a validated BatchOp with its target resolved and operand parsed,
// so the leased execution loop is a tight dispatch with no map lookups or
// parsing. t is the table of the entry's kind whenever that kind is
// registered, valid entry or not: the entry counts in its ops.
type step struct {
	kind stepKind
	run  kind.Compiled
	t    *table
}

// BatchWork is the working storage of one BatchExecuteWith call: results
// and compiled steps. The zero value is ready to use, and a BatchWork may be
// reused by one call after another (not concurrently) so that a warm batch
// allocates nothing of its own.
//
// Ownership: the Results of the BatchOutcome a call returns are the
// BatchWork's storage. They stay valid until the next call with it or its
// Reset, whichever comes first; the strings and views in them are the
// caller's to keep but not to write (a View may be the one the object's
// register R holds, shared with other readers; nothing writes it again).
type BatchWork struct {
	results []BatchResult
	steps   []step
}

// Reset drops every string, view, error and compiled step the BatchWork
// refers to and keeps its capacity, so a pooled BatchWork pins nothing of the
// batch it last served.
func (w *BatchWork) Reset() {
	clear(w.results)
	clear(w.steps)
	w.results, w.steps = w.results[:0], w.steps[:0]
}

// BatchOutcome is what BatchExecute returns: one result per op,
// positionally, plus the aggregate facts the ops cannot express.
type BatchOutcome struct {
	// Results holds one BatchResult per submitted op, in submission order.
	Results []BatchResult
	// Leases is how many pid leases the batch acquired: 1 when any op
	// passed validation as a driver op, 0 when every op failed validation or
	// was introspection-only.
	Leases int
}

// BatchExecute runs the ops in order, amortizing pid-lease acquisition (and,
// for HTTP callers, the request round trip) over the whole slice: it leases
// one pid from the registry's pool for the duration of the batch. It returns
// one BatchResult per op, positionally.
//
// Semantics:
//
//   - One lease, one process: every op runs as the leased pid, whatever its
//     kind, so the batch is one process's operation sequence in the paper's
//     model. Each op is individually strongly linearizable; the batch as a
//     whole is NOT atomic — other processes' operations may linearize
//     between ops.
//   - Partial failure: an op that fails validation (unknown kind or op, bad
//     operand, object type conflict) gets an Err in its slot and the
//     remaining ops still run. Doomed ops never register an object.
//   - Introspection: OpNames and OpStats entries read registry state at
//     their position in the batch without leasing; a batch of only
//     introspection ops costs zero leases.
//   - Cancellation: the context is checked between ops; once it is
//     cancelled, every remaining op's slot reports the cancellation error
//     while earlier results stand.
//   - Counting: once the batch runs (it holds its lease, or needs none),
//     every entry whose kind is registered counts in Stats().Ops under that
//     kind, failed and cancelled entries included. A batch refused as a
//     whole counts nothing.
//
// The returned error is non-nil only when the batch as a whole could not
// run: the context was already cancelled on entry, or it was cancelled
// while queueing for a pid lease. In either case no op has executed. A
// batch that is dead on entry creates no objects at all; one cancelled
// while queueing may already have lazily created the objects its valid ops
// named during validation (the client was still connected then).
func (r *Registry) BatchExecute(ctx context.Context, ops []BatchOp) (BatchOutcome, error) {
	return r.BatchExecuteWith(ctx, ops, new(BatchWork))
}

// BatchExecuteWith is BatchExecute on working storage the caller supplies
// and may reuse (see BatchWork for who owns the results until when).
func (r *Registry) BatchExecuteWith(ctx context.Context, ops []BatchOp, w *BatchWork) (BatchOutcome, error) {
	// A context that is already dead fails the batch before any work. This
	// must precede compilation, not just leasing: compiling lazily creates
	// the named objects, and the registry has no eviction — a disconnected
	// client's batch must not leave objects behind. (The lease fast path
	// does not poll the context, so without this check a cancelled client
	// could even burn a lease.)
	if err := ctx.Err(); err != nil {
		return BatchOutcome{}, err
	}

	w.Reset()
	w.results = slices.Grow(w.results, len(ops))[:len(ops)]
	w.steps = slices.Grow(w.steps, len(ops))[:len(ops)]
	results, steps := w.results, w.steps

	// Phase 1, before leasing: validate every op through its driver codec,
	// resolve its target instance, and compile its operand, so the leased
	// phase below is a tight dispatch loop.
	runs := false
	for i := range ops {
		st, err := r.compile(&ops[i])
		steps[i], results[i] = st, BatchResult{Err: err}
		runs = runs || st.kind == stepRun
	}

	// Phase 2: one lease for the whole batch. Introspection steps need no
	// pid; a batch without driver ops skips leasing entirely.
	out := BatchOutcome{Results: results}
	var pid int
	if runs {
		var err error
		if pid, err = r.pool.Acquire(ctx); err != nil {
			// Cancelled while queueing: no op has run.
			return BatchOutcome{}, err
		}
		out.Leases = 1
		// Deferred, so a panicking op still gives the pid back.
		defer r.pool.Release(pid)
	}
	countOps(steps)

	// Cancellation is polled per op on the Done channel: ctx.Err locks the
	// context's mutex on every call, Err is read only once Done is closed.
	done := ctx.Done()
	for i := range steps {
		st := &steps[i]
		if st.kind == stepInvalid {
			continue
		}
		select {
		case <-done:
			results[i].Err = fmt.Errorf("batch cancelled before op %d: %w", i, ctx.Err())
			continue
		default:
		}
		switch st.kind {
		case stepNames:
			results[i].View = st.t.names()
		case stepStats:
			doc, err := json.Marshal(r.Stats())
			results[i] = BatchResult{Value: string(doc), Err: err}
		case stepRun:
			res, err := st.run.Run(pid)
			results[i] = BatchResult{Value: res.Value, View: res.View, Err: err}
			// Lease-reuse assertion: the pid must survive every step. A step
			// that released it would let another goroutine lease the same id
			// and corrupt per-process state on the next iteration. Holds
			// catches a release while no acquirer was queued; one that handed
			// the pid to a queued acquirer leaves it leased and passes.
			if !r.pool.Holds(pid) {
				panic(fmt.Sprintf("registry: batch op %d released pid %d mid-batch", i, pid))
			}
		}
	}
	return out, nil
}

// compile validates op through its kind's driver and returns its executable
// step, resolving (and lazily creating) the target instance. A non-nil error
// means the op can never succeed; no object is created for it. The step
// names the kind's table whenever the kind is registered, error or not.
func (r *Registry) compile(op *BatchOp) (step, error) {
	t, known := r.table(op.Kind)
	// Reserved introspection ops resolve against the registry itself; stats
	// reads the whole registry, whatever kind its entry names.
	switch {
	case op.Op == OpStats:
		return step{kind: stepStats, t: t}, nil
	case !known:
		return step{}, kind.UnknownKind(string(op.Kind))
	case op.Op == OpNames:
		return step{kind: stepNames, t: t}, nil
	case op.Name == "":
		return step{t: t}, errors.New("empty object name")
	}
	req := kind.Request{Op: string(op.Op), Value: op.Value, Type: op.Type, Invocation: op.Invocation}
	// Reject unknown ops and malformed operands before the name lookup; a
	// doomed op must not register an object.
	if err := t.driver.Validate(req); err != nil {
		return step{t: t}, err
	}
	inst, err := r.instance(t, op.Name, req)
	if err != nil {
		return step{t: t}, err
	}
	// Compile carries the per-instance checks (e.g. the universal object's
	// type-conflict detection), which must also fire between two ops of one
	// batch that name the same object differently.
	compiled, err := inst.Compile(req)
	if err != nil {
		return step{t: t}, err
	}
	return step{kind: stepRun, run: compiled, t: t}, nil
}

// countOps adds a running batch's steps to their kinds' op counts, one add
// per run of steps of one kind: batches are usually homogeneous, so this is
// one atomic add a batch, not one an entry.
func countOps(steps []step) {
	for i := 0; i < len(steps); {
		t, j := steps[i].t, i+1
		for j < len(steps) && steps[j].t == t {
			j++
		}
		if t != nil {
			t.ops.Add(int64(j - i))
		}
		i = j
	}
}

package registry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"slmem"
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
	stepRun              // a driver op: run compiled as the pool's leased pid
	stepNames            // registry introspection: names of a kind
	stepStats            // registry introspection: stats document
)

// step is a validated BatchOp with its target resolved and operand parsed,
// so the leased execution loop is a tight dispatch with no map lookups or
// parsing.
type step struct {
	kind stepKind
	run  kind.Compiled
	pool *slmem.PIDPool // pool run leases from (stepRun only)
	k    Kind           // kind operand (stepNames only)
}

// resolvedEntry memoizes one registry resolution within a batch.
type resolvedEntry struct {
	inst kind.Instance
	pool *slmem.PIDPool
}

// BatchOutcome is what BatchExecute returns: one result per op,
// positionally, plus the aggregate facts the ops cannot express.
type BatchOutcome struct {
	// Results holds one BatchResult per submitted op, in submission order.
	Results []BatchResult
	// Leases is how many pid leases the batch acquired: one per distinct
	// pool its valid driver ops touch — 1 for a batch confined to
	// shared-pool kinds, +1 per dedicated-pool kind mixed in, 0 when every
	// op failed validation or was introspection-only.
	Leases int
	// Leased reports whether the batch acquired any pid lease (Leases > 0).
	Leased bool
}

// BatchExecute runs the ops in order, amortizing pid-lease acquisition (and,
// for HTTP callers, the request round trip) over the whole slice: it leases
// one pid per distinct pool the batch's valid ops touch, for the duration of
// the batch. It returns one BatchResult per op, positionally.
//
// Semantics:
//
//   - One lease per pool, one process each: every op runs as the leased pid
//     of its kind's pool, so a batch confined to shared-pool kinds is one
//     process's operation sequence in the paper's model. Each op is
//     individually strongly linearizable; the batch as a whole is NOT
//     atomic — other processes' operations may linearize between ops.
//   - Pools are acquired in a global deterministic order (the shared pool
//     first, then dedicated kind pools by kind name), so concurrent batches
//     over mixed kinds cannot deadlock.
//   - Partial failure: an op that fails validation (unknown kind or op, bad
//     operand, object type conflict) gets an Err in its slot and the
//     remaining ops still run. Doomed ops never register an object.
//   - Introspection: OpNames and OpStats entries read registry state at
//     their position in the batch without leasing; a batch of only
//     introspection ops costs zero leases.
//   - Cancellation: the context is checked between ops; once it is
//     cancelled, every remaining op's slot reports the cancellation error
//     while earlier results stand.
//
// The returned error is non-nil only when the batch as a whole could not
// run: the context was already cancelled on entry, or it was cancelled
// while queueing for a pid lease. In either case no op has executed. A
// batch that is dead on entry creates no objects at all; one cancelled
// while queueing may already have lazily created the objects its valid ops
// named during validation (the client was still connected then).
func (r *Registry) BatchExecute(ctx context.Context, ops []BatchOp) (BatchOutcome, error) {
	// A context that is already dead fails the batch before any work. This
	// must precede compilation, not just leasing: compiling lazily creates
	// the named objects, and the registry has no eviction — a disconnected
	// client's batch must not leave objects behind. (The lease fast path
	// does not poll the context, so without this check a cancelled client
	// could even burn a lease.)
	if err := ctx.Err(); err != nil {
		return BatchOutcome{}, err
	}

	results := make([]BatchResult, len(ops))
	steps := make([]step, len(ops))

	// Phase 1, before leasing: validate every op through its driver codec,
	// resolve its target instance, and compile its operand, so the leased
	// phase below is a tight dispatch loop. Resolution is memoized per
	// batch — repeated ops against one hot object pay the registry lookup
	// once.
	resolved := make(map[objectKey]resolvedEntry)
	valid := 0
	for i := range ops {
		st, err := r.compile(&ops[i], resolved)
		if err != nil {
			results[i].Err = err
			continue
		}
		steps[i] = st
		valid++
	}
	if valid == 0 {
		return BatchOutcome{Results: results}, nil
	}

	// Phase 2: one lease per distinct pool among the valid driver ops, in
	// deterministic order (shared pool first, then kind pools by name) so
	// concurrent mixed-kind batches cannot deadlock. Introspection steps
	// need no pool; a batch without driver ops skips leasing entirely.
	pools := batchPools(steps)
	pids := make(map[*slmem.PIDPool]int, len(pools))
	for acquired, pool := range pools {
		pid, err := pool.Acquire(ctx)
		if err != nil {
			// Cancelled while queueing: release what we hold; no op has run.
			for j := acquired - 1; j >= 0; j-- {
				pools[j].Release(pids[pools[j]])
			}
			return BatchOutcome{}, err
		}
		pids[pool] = pid
	}
	defer func() {
		for j := len(pools) - 1; j >= 0; j-- {
			pools[j].Release(pids[pools[j]])
		}
	}()

	// Instances that can defer per-op bookkeeping get one batch bracket per
	// leased pid (the universal object re-anchors its replay cache once for
	// the whole batch instead of per op). Registered after the release defer
	// so every EndBatch runs while its pid is still held.
	for _, re := range resolved {
		b, ok := re.inst.(kind.Batcher)
		if !ok {
			continue
		}
		pid, leased := pids[re.pool]
		if !leased {
			continue // every op of this instance failed validation
		}
		b.BeginBatch(pid)
		defer b.EndBatch(pid)
	}

	for i := range steps {
		st := &steps[i]
		if st.kind == stepInvalid {
			continue
		}
		if err := ctx.Err(); err != nil {
			results[i].Err = fmt.Errorf("batch cancelled before op %d: %w", i, err)
			continue
		}
		switch st.kind {
		case stepNames:
			results[i].View = r.Names(st.k)
		case stepStats:
			doc, err := json.Marshal(r.Stats())
			results[i] = BatchResult{Value: string(doc), Err: err}
		case stepRun:
			pid := pids[st.pool]
			res, err := st.run.Run(pid)
			results[i] = BatchResult{Value: res.Value, View: res.View, Err: err}
			// Lease-reuse assertion: the pid must survive every step. A step
			// that released it would let another goroutine lease the same id
			// and corrupt per-process state on the next iteration.
			if !st.pool.Holds(pid) {
				panic(fmt.Sprintf("registry: batch op %d released pid %d mid-batch", i, pid))
			}
		}
	}
	return BatchOutcome{Results: results, Leases: len(pools), Leased: len(pools) > 0}, nil
}

// batchPools collects the distinct pools of the batch's valid driver steps
// in global acquisition order: the shared registry pool first, then
// dedicated kind pools sorted by the kind name that owns them. Step pools
// are per-kind, so ordering by first-use kind name under a per-kind
// uniqueness invariant is equivalent to sorting by name.
func batchPools(steps []step) []*slmem.PIDPool {
	var shared *slmem.PIDPool
	type kindPool struct {
		k    Kind
		pool *slmem.PIDPool
	}
	var dedicated []kindPool
	seen := make(map[*slmem.PIDPool]bool)
	for i := range steps {
		st := &steps[i]
		if st.kind != stepRun || seen[st.pool] {
			continue
		}
		seen[st.pool] = true
		if d, ok := kind.Lookup(string(st.k)); ok && d.Options().DedicatedPool {
			dedicated = append(dedicated, kindPool{st.k, st.pool})
		} else {
			shared = st.pool
		}
	}
	sort.Slice(dedicated, func(i, j int) bool { return dedicated[i].k < dedicated[j].k })
	pools := make([]*slmem.PIDPool, 0, 1+len(dedicated))
	if shared != nil {
		pools = append(pools, shared)
	}
	for _, kp := range dedicated {
		pools = append(pools, kp.pool)
	}
	return pools
}

// compile validates op through its kind's driver and returns its executable
// step, resolving (and lazily creating) the target instance through the
// memo map. A non-nil error means the op can never succeed; no object is
// created for it.
func (r *Registry) compile(op *BatchOp, resolved map[objectKey]resolvedEntry) (step, error) {
	// Reserved introspection ops resolve against the registry itself.
	switch op.Op {
	case OpNames:
		if _, ok := kind.Lookup(string(op.Kind)); !ok {
			return step{}, kind.UnknownKind(string(op.Kind))
		}
		return step{kind: stepNames, k: op.Kind}, nil
	case OpStats:
		return step{kind: stepStats}, nil
	}

	d, ok := kind.Lookup(string(op.Kind))
	if !ok {
		return step{}, kind.UnknownKind(string(op.Kind))
	}
	if op.Name == "" {
		return step{}, errors.New("empty object name")
	}
	req := kind.Request{Op: string(op.Op), Value: op.Value, Type: op.Type, Invocation: op.Invocation}
	// Reject unknown ops and malformed operands before the registry lookup;
	// a doomed op must not register an object.
	if err := d.Validate(req); err != nil {
		return step{}, err
	}
	key := objectKey{op.Kind, op.Name}
	re, hit := resolved[key]
	if !hit {
		inst, pool, err := r.Get(op.Kind, op.Name, req)
		if err != nil {
			return step{}, err
		}
		re = resolvedEntry{inst: inst, pool: pool}
		resolved[key] = re
	}
	// Compile carries the per-instance checks (e.g. the universal object's
	// type-conflict detection), which must also fire between two ops of one
	// batch that name the same object differently.
	compiled, err := re.inst.Compile(req)
	if err != nil {
		return step{}, err
	}
	return step{kind: stepRun, run: compiled, pool: re.pool, k: op.Kind}, nil
}

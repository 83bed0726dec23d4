// Package universal implements the Aspnes–Herlihy wait-free construction of
// arbitrary simple types from a snapshot object (paper Section 5,
// Algorithms 5 and 6), which the paper proves strongly linearizable
// (Theorem 54). With the strongly linearizable snapshot of internal/core as
// its root, every simple type has a lock-free strongly linearizable
// implementation from registers (Theorem 3).
//
// A simple type is one where every pair of invocation descriptions either
// commutes or one overwrites the other (Definition 33). Each operation:
//
//  1. scans the root snapshot for the latest nodes of all processes,
//  2. extracts the precedence graph reachable from them (Algorithm 6),
//  3. builds the linearization graph by adding dominance edges between
//     concurrent operations (Algorithm 5, lingraph),
//  4. computes its response from a topological sort of that graph, and
//  5. appends its own node, pointing at the scanned nodes, to the root.
//
// As the paper notes (Section 5.3/6), the construction keeps every node
// forever: it is wait-free but not bounded wait-free. Executed naively,
// steps 2-4 re-extract and re-sort the whole history, so per-operation cost
// grows with history length — measured by experiment E6.
//
// # Replay cache
//
// This implementation amortizes that cost to O(Δ·n) in the number Δ of
// operations since the calling process's previous operation, using a purely
// process-local replay cache. After an operation, process p remembers an
// anchor — the per-process operation-index prefix {(q, i) : i <= anchor[q]}
// it just linearized — together with the sequential state reached by
// replaying that prefix (checkpointed through spec.Checkpoint). The next
// operation extracts only nodes beyond the anchor and replays them onto the
// cached state, provided every extracted node covers the anchor: its own
// scanned view includes every anchored node. Covering nodes are forced
// after the whole anchored prefix in the linearization — by precedence
// (their view reaches every anchored node through the per-process chains)
// and therefore also by the dominance rules, whose edges toward already
// preceding nodes are skipped — so the cached prefix is exactly a prefix of
// the full linearization, node orders and responses byte-identical to an
// uncached run (the differential tests check this). A non-covering node
// (a genuinely concurrent straggler that might linearize inside the cached
// prefix) forces a fallback to full re-extraction, after which the cache
// re-anchors.
//
// Strong linearizability is untouched: the cache reads nothing but what a
// legal root scan returns, writes nothing shared, and computes the same
// response function of the scanned view as the uncached algorithm.
package universal

import (
	"fmt"
	"sync/atomic"

	"slmem/internal/core"
	"slmem/internal/memory"
	"slmem/internal/spec"
)

// Type describes a simple type: its sequential specification plus the
// commute/overwrite calculus over invocation descriptions (which, per the
// paper's Section 2, include the invoking process id).
type Type interface {
	// Name identifies the type.
	Name() string
	// Spec returns the sequential specification used to compute responses.
	Spec() spec.Spec
	// Commutes reports whether invocations a and b commute: executing them
	// in either order yields valid, equivalent histories.
	Commutes(descA string, pidA int, descB string, pidB int) bool
	// Overwrites reports whether invocation a overwrites invocation b:
	// H ∘ b ∘ a is always valid and equivalent to H ∘ a.
	Overwrites(descA string, pidA int, descB string, pidB int) bool
}

// Dominates implements the paper's Definition 34: a dominates b if a
// overwrites b but not vice versa, or they overwrite each other and a's
// process id is larger.
func Dominates(t Type, descA string, pidA int, descB string, pidB int) bool {
	ab := t.Overwrites(descA, pidA, descB, pidB)
	ba := t.Overwrites(descB, pidB, descA, pidA)
	switch {
	case ab && !ba:
		return true
	case ab && ba:
		return pidA > pidB
	default:
		return false
	}
}

// ValidateSimple checks Definition 33 over a set of invocation samples:
// every pair must commute or overwrite one way. It returns the first
// offending pair, if any.
func ValidateSimple(t Type, descs []string, pids []int) error {
	for i, a := range descs {
		for j, b := range descs {
			pa, pb := pids[i%len(pids)], pids[j%len(pids)]
			if t.Commutes(a, pa, b, pb) || t.Overwrites(a, pa, b, pb) || t.Overwrites(b, pb, a, pa) {
				continue
			}
			return fmt.Errorf("universal: %s is not simple: %s(p%d) and %s(p%d) neither commute nor overwrite",
				t.Name(), a, pa, b, pb)
		}
	}
	return nil
}

// node is the struct of Algorithm 5: an operation record stored in the
// shared precedence-graph representation. Nodes are immutable once written
// to the root.
type node struct {
	invocation string
	response   string
	pid        int
	index      int     // per-process operation index: (pid,index) is unique
	preceding  []*node // view[i] at this operation's scan; nil = ⊥
}

// Root is the snapshot interface the construction needs. Theorem 3 requires
// a strongly linearizable implementation (internal/core); a merely
// linearizable one still yields a linearizable object (Aspnes–Herlihy).
//
// View is the snapshot's scan as the snapshot stores it — shared, never
// written: the construction only reads a view, and keeps it as its node's
// preceding vector, which it never writes through either.
type Root interface {
	Update(pid int, x *node)
	View(pid int) []*node
}

// plocal is everything process p keeps between its operations: its operation
// count, its replay-cache entry and the scratch its extractions and
// linearizations run in. It is written only by the goroutine driving that pid
// (the counters are atomic so CacheStats may read them concurrently), it is
// indexed by pid, and it is never pooled and never shared: exclusive pid
// ownership is the model's own invariant, so none of it needs synchronising.
// The trailing pad keeps one process's entry off the cache lines of the next.
type plocal struct {
	// index counts the operations the process has executed.
	index int
	// anchor[q] is the highest operation index of process q in the cached
	// linearized prefix, -1 for none; a nil slice means no anchor yet.
	anchor []int
	// state is the sequential state after replaying the anchored prefix.
	state string
	// deferred marks batch mode: remember keeps the rolling anchor and raw
	// state but postpones the checkpoint (the durable re-anchor) to EndBatch.
	deferred bool
	// dirty reports a deferred remember that EndBatch still has to checkpoint.
	dirty bool
	// hits and misses count this process's cache outcomes; anchors counts
	// durable re-anchors (checkpoints written).
	hits    atomic.Int64
	misses  atomic.Int64
	anchors atomic.Int64

	scratch
	_ [128]byte
}

// CacheStats counts replay-cache outcomes across all processes.
type CacheStats struct {
	// Hits counts operations that replayed only the delta beyond their
	// process's anchor.
	Hits int64
	// Misses counts operations that fell back to a full history replay
	// because some extracted node did not cover the anchor.
	Misses int64
	// Anchors counts durable re-anchors: checkpoints written to the cache.
	// Outside batch mode every cached operation re-anchors once; within a
	// BeginBatch/EndBatch window the whole batch re-anchors once at the end.
	Anchors int64
}

// Object is an implementation of a simple type from a snapshot object.
// Methods take the calling process id; at most one goroutine may drive a
// given pid at a time.
type Object struct {
	t       Type
	sp      spec.Spec
	n       int
	root    Root
	caching bool
	local   []plocal
	noFloor []int   // all -1: the floor of a full extraction
	gc      *gcInfo // nil until SetGC enables truncation
	// coverFails counts extractions refused because a reachable node does
	// not cover the floor they must start from, or breaks the chain rules.
	coverFails atomic.Int64
}

// New constructs the object over the strongly linearizable snapshot of
// internal/core, yielding a lock-free strongly linearizable implementation
// (Theorem 3).
func New(alloc memory.Allocator, t Type, n int) *Object {
	return NewWithRoot(t, n, core.New[*node](alloc, n, nil))
}

// NewWithRoot constructs the object over an explicit root snapshot.
func NewWithRoot(t Type, n int, root Root) *Object {
	if n < 1 {
		panic(fmt.Sprintf("universal: n = %d, need at least 1 process", n))
	}
	o := &Object{
		t:       t,
		sp:      t.Spec(),
		n:       n,
		root:    root,
		caching: true,
		local:   make([]plocal, n),
		noFloor: make([]int, n),
	}
	for p := range o.local {
		o.local[p].n = n
		o.noFloor[p] = -1
	}
	return o
}

// SetCaching enables or disables the replay cache (enabled by default).
// Disabling forces every Execute through the full O(history) extract-and-
// replay path; it exists for differential tests and growth measurements.
// It must not be called concurrently with Execute. Cached anchors survive a
// disable/enable cycle — an anchor describes a closed history prefix, which
// stays valid no matter how many operations elapse.
func (o *Object) SetCaching(on bool) { o.caching = on }

// CacheStats returns the replay-cache hit/miss counters, summed over all
// processes.
func (o *Object) CacheStats() CacheStats {
	var st CacheStats
	for p := range o.local {
		st.Hits += o.local[p].hits.Load()
		st.Misses += o.local[p].misses.Load()
		st.Anchors += o.local[p].anchors.Load()
	}
	return st
}

// Execute performs the invocation as process p (Algorithm 5, execute):
// it computes the response the history demands, publishes the operation's
// node, and returns the response. With the replay cache warm it extracts,
// sorts, and replays only the nodes beyond process p's anchor; with GC
// enabled the replay floor never drops below the truncation root, whose
// checkpointed state stands in for the truncated prefix.
func (o *Object) Execute(p int, invoke string) (string, error) {
	var gs *gcState
	if o.gc != nil {
		gs = o.gc.state.Load()
	}
	view := o.root.View(p) // line 81

	l := &o.local[p]
	floor, state, fromCache := o.floor(p, gs)
	_, ok := l.extract(floor, view) // line 82, restricted past the floor
	if !ok && fromCache {
		// Some extracted node does not cover the anchor and may linearize
		// inside the cached prefix: fall back. With GC enabled the fallback
		// floor is the truncation root — the history below it may already be
		// trimmed — replayed from the checkpointed root state; without GC it
		// is the full extraction.
		l.misses.Add(1)
		floor, state = o.rootFloor(gs)
		_, ok = l.extract(floor, view)
	} else if fromCache {
		l.hits.Add(1)
	}
	if !ok {
		// The floor was the truncation root, which every reachable node
		// covers (the truncation invariant), or nothing at all: only a graph
		// that is not the construction's can get here.
		o.coverFails.Add(1)
		if gs != nil {
			return "", fmt.Errorf("universal: extracted node does not cover truncation root v%d", gs.version)
		}
		return "", fmt.Errorf("universal: precedence graph is not a set of per-process chains")
	}

	// Line 83: topological sort of lingraph(G); lines 84-87: compute the
	// response valid after H. With a warm cache, H is only the suffix past
	// the anchored prefix, replayed onto its state.
	var err error
	for _, nd := range l.linearize(o.t) {
		state, _, err = o.sp.Apply(state, nd.pid, nd.invocation)
		if err != nil {
			err = fmt.Errorf("universal: replaying %s: %w", nd.invocation, err)
			break
		}
	}
	l.release()
	if err != nil {
		return "", err
	}
	next, resp, err := o.sp.Apply(state, p, invoke)
	if err != nil {
		return "", fmt.Errorf("universal: %s: %w", invoke, err)
	}

	e := &node{
		invocation: invoke,
		response:   resp,
		pid:        p,
		index:      l.index,
		preceding:  view, // lines 88-90 (a stored view is immutable: see Root)
	}
	l.index++
	o.root.Update(p, e) // line 91
	if o.caching {
		o.remember(p, view, e, next)
	}
	if o.gc != nil {
		o.gc.afterOp(o, p, view, e, gs)
	}
	return resp, nil
}

// floor picks process p's replay floor: its cache anchor when one exists and
// still covers the truncation root, else the root floor. A cache anchor below
// the root — stale since before a truncation, e.g. after a caching toggle —
// is simply unusable, never an error: the root state subsumes it.
func (o *Object) floor(p int, gs *gcState) (floor []int, state string, fromCache bool) {
	if o.caching {
		if a := o.local[p].anchor; a != nil && (gs == nil || atOrAbove(a, gs.cut)) {
			return a, o.local[p].state, true
		}
	}
	floor, state = o.rootFloor(gs)
	return floor, state, false
}

// rootFloor is the floor under every cache anchor: the truncation root (a
// checkpoint replay), or without GC nothing (the full extraction).
func (o *Object) rootFloor(gs *gcState) (floor []int, state string) {
	if gs != nil {
		return gs.cut, gs.base
	}
	return o.noFloor, o.sp.Initial()
}

// atOrAbove reports whether anchor a includes the cut pointwise.
func atOrAbove(a, cut []int) bool {
	for q, c := range cut {
		if a[q] < c {
			return false
		}
	}
	return true
}

// remember re-anchors process p's cache at the view it just linearized plus
// its own freshly published node, with the sequential state that includes
// its own operation. In batch mode the checkpoint — the durable re-anchor —
// is deferred to EndBatch; the rolling anchor and raw state still advance so
// every batch entry replays only its own delta.
func (o *Object) remember(p int, view []*node, e *node, state string) {
	l := &o.local[p]
	if l.anchor == nil {
		l.anchor = make([]int, o.n)
	}
	setAnchor(l.anchor, view, e)
	if l.deferred {
		l.state = state
		l.dirty = true
		return
	}
	l.state = spec.Checkpoint(o.sp, state)
	l.anchors.Add(1)
}

// setAnchor writes into dst the per-process index prefix an operation has
// linearized once it published e over view: the view's indexes (-1 for ⊥),
// and e's own.
func setAnchor(dst []int, view []*node, e *node) {
	for q, nd := range view {
		dst[q] = -1
		if nd != nil {
			dst[q] = nd.index
		}
	}
	dst[e.pid] = e.index
}

// BeginBatch puts process p's replay cache into deferred-anchor mode: the
// operations that follow keep a rolling anchor but write one durable
// checkpoint for the whole batch, at EndBatch, instead of one per
// operation. Must be paired with EndBatch under the same pid ownership
// rules as Execute.
func (o *Object) BeginBatch(p int) { o.local[p].deferred = true }

// EndBatch leaves deferred-anchor mode, re-anchoring process p's cache once
// for the whole batch.
func (o *Object) EndBatch(p int) {
	l := &o.local[p]
	l.deferred = false
	if l.dirty {
		l.dirty = false
		l.state = spec.Checkpoint(o.sp, l.state)
		l.anchors.Add(1)
	}
}

// HistorySize returns the number of operations currently reachable in the
// shared precedence graph, as observed by process p (for growth
// measurements; one root scan). With GC enabled it reports the live nodes
// past the truncation root — the truncated prefix survives only as the
// root's checkpointed state.
func (o *Object) HistorySize(p int) int {
	live, _ := o.liveNodes(p)
	return live
}

// liveNodes counts the operations past the truncation root (all of them
// without GC) as process p, from one root scan, with the root it counted
// against. An extraction the graph refuses still yields the count, and is
// surfaced through the coverage-failure counter rather than under-reported.
func (o *Object) liveNodes(p int) (int, *gcState) {
	var gs *gcState
	if o.gc != nil {
		gs = o.gc.state.Load()
	}
	view := o.root.View(p)
	floor, _ := o.rootFloor(gs)
	l := &o.local[p]
	live, ok := l.extract(floor, view)
	if !ok {
		o.coverFails.Add(1)
	}
	l.release()
	return live, gs
}

// anchored reports whether nd is inside the anchored prefix. The anchored
// prefix is per-process index-closed: process q's nodes 0..anchor[q] and
// nothing else are reachable at or below the anchor (each process's nodes
// form a preceding chain, and scans of q's component are monotone).
func anchored(anchor []int, nd *node) bool {
	return anchor != nil && nd.index <= anchor[nd.pid]
}

// covers reports whether a scanned view includes every anchored node: for
// each process q with an anchored operation, the view holds q's node with at
// least the anchored index.
func covers(view []*node, anchor []int) bool {
	for q, idx := range anchor {
		if idx < 0 {
			continue
		}
		if q >= len(view) || view[q] == nil || view[q].index < idx {
			return false
		}
	}
	return true
}

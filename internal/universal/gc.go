// gc.go bounds the construction's memory with a shared low-watermark
// protocol. The precedence graph of Algorithm 5 keeps every node forever;
// the replay cache (cache-aware Execute) bounded time per operation, and
// this file is its memory analogue.
//
// # Protocol
//
// After every operation, process p publishes a watermark: a copy of the
// per-process index prefix it just linearized (its anchor — exactly what
// remember caches) in a single-writer padded register, plus the version of
// the truncation root the operation executed against. The hot path never
// reads another process's watermark; only the amortized truncation pass
// does, so no shared steps are added to Execute (the registers live outside
// the simulated shared memory, invisible to the sched adversary — GC-on and
// GC-off runs take byte-identical schedules).
//
// Every Window operations a process attempts a truncation pass (one
// TryLock'd collector at a time). The pass reads all n watermarks, takes
// their pointwise minimum M, and lowers M to a fixpoint where every
// reachable node outside the prefix {(q,i) : i <= M[q]} covers M — its
// scanned view includes every node of the prefix. The fixpoint terminates
// at or above the current root: every live node covers the current root by
// induction, and M only decreases toward views that themselves cover it.
//
// The fixpoint only examines nodes reachable from the collector's scan,
// and the watermarks are read after that scan, so process q may have
// published operations the scan cannot see. The freshness gate makes those
// safe sight unseen: the pass proceeds only if each watermark's own index
// W_q[q] is at most one past the scan's view of q, so every unseen node of
// q has index at least W_q[q]. Operation W_q[q]'s view is W_q minus its
// own component and M is pointwise at most W_q (M starts at the minimum
// and is only lowered), so it covers M; per-process scans are pointwise
// monotone and own indexes only grow, so by induction every later
// operation of q — already published or still in the future — covers M
// too. Without the gate, an operation that scanned a stale view and
// published between the collector's scan and its watermark reads, its
// process then raising the watermark past it with further operations,
// would be examined by neither rule; committing a cut it does not cover
// would wedge every subsequent extraction against the root.
//
// Why truncation at such an M preserves strong linearizability:
//
//   - Published nodes reachable from the scan and outside the prefix cover
//     M by the fixpoint; unseen and future nodes cover M by the freshness
//     gate argument above.
//   - A covering node is forced after the whole prefix in every
//     linearization: through the per-process chains its view reaches every
//     prefix node, so precedence orders it after the prefix, and lingraph's
//     dominance edges skip pairs already ordered by precedence, so no edge
//     can invert it. The prefix is therefore an exact prefix of every
//     future linearization — replacing it by its replayed, checkpointed
//     sequential state changes no response and reorders nothing, which is
//     precisely prefix preservation.
//
// The pass publishes the new root {cut M, checkpointed base state, version}
// in one atomic pointer. Physical reclamation is deferred: the boundary
// nodes (index exactly M[q]) keep their preceding views until every
// process's watermark records a root version at or past the truncation —
// from then on no replay floor can fall below M, nobody follows pointers
// into the prefix again (extraction never reads the view of a node at or
// below its floor), and the collector severs the boundary views so the Go
// runtime can free the prefix. The ordering argument is the watermark
// store/load pair: the last potential reader published its watermark
// (release) before the collector observed quiescence (acquire) and cut.
//
// Liveness caveat: truncation needs a watermark from all n processes, so a
// process that never executes pins the graph (its watermark never
// advances). The bound on live nodes is therefore the number of operations
// executed between the slowest process's consecutive operations, plus the
// Window between collector passes — flat under steady traffic from every
// process, the churn soak's assertion.
package universal

import (
	"sync"
	"sync/atomic"

	"slmem/internal/spec"
)

// DefaultGCWindow is the operations-per-process between truncation attempts
// when GCOptions.Window is not set.
const DefaultGCWindow = 256

// GCOptions configures precedence-graph garbage collection.
type GCOptions struct {
	// Window is the number of operations a process executes between
	// truncation attempts; 0 or negative selects DefaultGCWindow. Smaller
	// windows truncate sooner and bound live nodes tighter at the cost of
	// more frequent collector passes.
	Window int
}

// GCStats describes the garbage collector's progress.
type GCStats struct {
	// LiveNodes is the number of precedence-graph nodes reachable past the
	// truncation root, from one root scan. With GC disabled it is the full
	// history size.
	LiveNodes int
	// Truncations counts completed truncation passes that advanced the root.
	Truncations int64
	// TruncatedNodes counts operations folded into the checkpointed root
	// across all truncations.
	TruncatedNodes int64
	// RootVersion is the current truncation root's version; 0 is the
	// initial, empty root.
	RootVersion int64
	// PendingTrims counts truncations whose boundary pointers are still
	// awaiting quiescence before being cut.
	PendingTrims int64
	// CoverageFailures counts extractions that found a reachable node not
	// covering the truncation root. The truncation invariant rules this
	// out; a nonzero count means the invariant broke — Execute returns
	// errors and LiveNodes may undercount — so the breakage is observable
	// here instead of masked.
	CoverageFailures int64
	// ReplayFailures counts truncation passes abandoned because the
	// truncated prefix failed to replay onto the checkpointed base. A
	// persistent failure stops the root from ever advancing; this counter
	// distinguishes that from normal non-advancement.
	ReplayFailures int64
}

// gcState is one truncation root, published as a whole via one atomic
// pointer and immutable afterwards.
type gcState struct {
	// cut[q] is the highest truncated operation index of process q, -1 for
	// none: nodes at or below the cut are (logically, then physically) gone.
	cut []int
	// base is the checkpointed sequential state reached by replaying the
	// truncated prefix; replay floors at the cut start from it.
	base string
	// version numbers the roots monotonically.
	version int64
}

// watermarkRec is one published watermark: an immutable anchor copy plus
// the root version the publishing operation executed against.
type watermarkRec struct {
	anchor  []int
	version int64
}

// watermarkSlab is the number of records a process allocates at a time: a
// record and its anchor are carved out of two slabs, so publishing costs an
// eighth of an allocation instead of two. A slab stays reachable as long as
// any record in it is the published one — at most the slab itself.
const watermarkSlab = 16

// watermark is a single-writer padded register: rec is stored only by the
// owning process and loaded by collector passes; the rest is owner-local —
// ops is the bookkeeping for the collection cadence, recs and anchors are
// what is left of the current slabs.
type watermark struct {
	rec     atomic.Pointer[watermarkRec]
	ops     int
	recs    []watermarkRec
	anchors []int
	_       [64]byte // keep the next process's register off these lines
}

// next carves the next record out of the slabs.
func (w *watermark) next(n int) *watermarkRec {
	if len(w.recs) == 0 {
		w.recs = make([]watermarkRec, watermarkSlab)
		w.anchors = make([]int, watermarkSlab*n)
	}
	rec := &w.recs[0]
	rec.anchor = w.anchors[:n:n]
	w.recs, w.anchors = w.recs[1:], w.anchors[n:]
	return rec
}

// pendingTrim queues one truncation's boundary nodes for pointer cuts once
// every process has executed past its root version.
type pendingTrim struct {
	version  int64
	boundary []*node
}

// gcInfo is the per-object collector state.
type gcInfo struct {
	window      int
	state       atomic.Pointer[gcState]
	marks       []watermark
	mu          sync.Mutex // serializes collector passes; guards pending and scratch
	pending     []pendingTrim
	scratch     scratch // the collector's own: a pass runs as no process
	truncations atomic.Int64
	truncated   atomic.Int64
	trims       atomic.Int64
	replayFails atomic.Int64
}

// SetGC enables precedence-graph garbage collection. Like SetCaching it
// must not be called concurrently with Execute; unlike caching, GC cannot
// be disabled once enabled — after the first pointer cuts the untruncated
// history no longer exists. Calling SetGC again only retunes the window.
func (o *Object) SetGC(opts GCOptions) {
	window := opts.Window
	if window <= 0 {
		window = DefaultGCWindow
	}
	if o.gc != nil {
		o.gc.window = window
		return
	}
	g := &gcInfo{window: window, marks: make([]watermark, o.n), scratch: scratch{n: o.n}}
	cut := make([]int, o.n)
	for q := range cut {
		cut[q] = -1
	}
	g.state.Store(&gcState{cut: cut, base: o.sp.Initial(), version: 0})
	o.gc = g
}

// GCEnabled reports whether SetGC has enabled truncation.
func (o *Object) GCEnabled() bool { return o.gc != nil }

// GCStats returns collector progress, as process p (one root scan, same
// pid ownership rules as Execute). With GC disabled only LiveNodes is set,
// to the full history size.
func (o *Object) GCStats(p int) GCStats {
	live, gs := o.liveNodes(p)
	if o.gc == nil {
		return GCStats{LiveNodes: live, CoverageFailures: o.coverFails.Load()}
	}
	g := o.gc
	return GCStats{
		LiveNodes:        live,
		Truncations:      g.truncations.Load(),
		TruncatedNodes:   g.truncated.Load(),
		RootVersion:      gs.version,
		PendingTrims:     g.truncations.Load() - g.trims.Load(),
		CoverageFailures: o.coverFails.Load(),
		ReplayFailures:   g.replayFails.Load(),
	}
}

// afterOp publishes process p's watermark for the operation that just
// completed (node e over view, executed against root gs) and runs the
// amortized collector every window operations.
func (g *gcInfo) afterOp(o *Object, p int, view []*node, e *node, gs *gcState) {
	w := &g.marks[p]
	rec := w.next(o.n)
	rec.version = gs.version
	setAnchor(rec.anchor, view, e)
	w.rec.Store(rec)

	w.ops++
	if w.ops < g.window {
		return
	}
	w.ops = 0
	if g.mu.TryLock() {
		o.collect(view)
		g.mu.Unlock()
	}
}

// collect is one truncation pass, run with g.mu held. It reuses the
// caller's root scan (view) so the pass adds no shared steps of its own.
func (o *Object) collect(view []*node) {
	g := o.gc
	cur := g.state.Load()

	// Read every process's watermark. One unpublished mark pins everything:
	// a process that has never executed could still linearize an operation
	// anywhere, so nothing is safely below it.
	minVer := int64(-1)
	m := make([]int, o.n)
	own := make([]int, o.n) // own[q]: q's last completed operation per its watermark
	for q := range g.marks {
		rec := g.marks[q].rec.Load()
		if rec == nil {
			return
		}
		own[q] = rec.anchor[q]
		if minVer < 0 || rec.version < minVer {
			minVer = rec.version
		}
		for r, idx := range rec.anchor {
			if q == 0 || idx < m[r] {
				m[r] = idx
			}
		}
	}

	// Cut boundary pointers of truncations every process has executed past.
	g.trimQuiesced(minVer)

	// Freshness gate: the watermarks were read after the scan, so process q
	// may have completed operations the scan cannot see. Operations at or
	// past own[q] are safe unseen — operation own[q]'s view is q's watermark
	// anchor minus its own component, the cut never exceeds that anchor, and
	// later scans of q are pointwise at least it — but an operation strictly
	// between the scan's top of q and own[q] carries a view this pass never
	// examines: it published after the scan and q's watermark already moved
	// past it. Truncating across such a gap is unsound (the node may not
	// cover the cut, wedging later extractions), so wait for a fresher scan.
	for q, k := range own {
		vi := -1
		if view[q] != nil {
			vi = view[q].index
		}
		if k > vi+1 {
			return
		}
	}

	// Clamp the candidate into [cur.cut, view]: monotone above the current
	// root, and within what this scan reached — the watermarks were read
	// after the scan, so they may run ahead of it. A scan older than the
	// current root (another process truncated since) waits for a fresher one.
	advanced := false
	for q := range m {
		if m[q] < cur.cut[q] {
			m[q] = cur.cut[q]
		}
		vi := -1
		if view[q] != nil {
			vi = view[q].index
		}
		if m[q] > vi {
			m[q] = vi
		}
		if m[q] < cur.cut[q] {
			return
		}
		if m[q] > cur.cut[q] {
			advanced = true
		}
	}
	if !advanced {
		return
	}

	sc := &g.scratch
	defer sc.release()
	if _, ok := sc.extract(cur.cut, view); !ok {
		o.coverFails.Add(1)
		return // unreachable: every live node covers the current root
	}
	delta := sc.nodes

	// Lower m to the covering fixpoint: every node left outside the prefix
	// must cover it. A violating node's own view caps the prefix — nodes it
	// did not scan might linearize after it.
	for changed := true; changed; {
		changed = false
		for _, nd := range delta {
			if anchored(m, nd) || covers(nd.preceding, m) {
				continue
			}
			for q, prev := range nd.preceding {
				idx := -1
				if prev != nil {
					idx = prev.index
				}
				if idx < m[q] {
					m[q] = idx
					changed = true
				}
			}
		}
	}
	advanced = false
	for q := range m {
		if m[q] < cur.cut[q] {
			return // unreachable: live nodes' views cover the current root
		}
		if m[q] > cur.cut[q] {
			advanced = true
		}
	}
	if !advanced {
		return
	}

	// Replay the newly truncated prefix onto the current base. By the
	// covering fixpoint the prefix nodes form an exact prefix of the
	// linearization (prefix-first), checked defensively before committing.
	prefixLen := 0
	for _, nd := range delta {
		if anchored(m, nd) {
			prefixLen++
		}
	}
	state := cur.base
	count := 0
	for _, nd := range sc.linearize(o.t) {
		if !anchored(m, nd) {
			break
		}
		next, _, err := o.sp.Apply(state, nd.pid, nd.invocation)
		if err != nil {
			// Leave the graph untruncated, but observably: a persistent
			// replay failure would otherwise disable GC forever while
			// looking like normal non-advancement.
			g.replayFails.Add(1)
			return
		}
		state = next
		count++
	}
	if count != prefixLen {
		g.replayFails.Add(1)
		return // unreachable: prefix-first order violated
	}

	g.state.Store(&gcState{cut: m, base: spec.Checkpoint(o.sp, state), version: cur.version + 1})
	g.truncations.Add(1)
	g.truncated.Add(int64(count))

	// Queue the boundary nodes — index exactly m[q]; live nodes cover m, so
	// nothing live points below them — for pointer cuts at quiescence.
	var boundary []*node
	for _, nd := range delta {
		if nd.index == m[nd.pid] {
			boundary = append(boundary, nd)
		}
	}
	g.pending = append(g.pending, pendingTrim{version: cur.version + 1, boundary: boundary})
}

// trimQuiesced severs the boundary views of truncations whose root version
// every watermark has reached: from then on no process's replay floor can
// fall below that cut, extraction never follows a pointer into it again,
// and the store/load ordering through the watermarks makes the cut safe.
func (g *gcInfo) trimQuiesced(minVer int64) {
	for len(g.pending) > 0 && g.pending[0].version <= minVer {
		for _, nd := range g.pending[0].boundary {
			nd.preceding = nil
		}
		g.pending[0].boundary = nil
		g.pending = g.pending[1:]
		g.trims.Add(1)
	}
}

// gc.go bounds the construction's memory with a shared low-watermark
// protocol over the anchor records of the package doc. The precedence graph
// of Algorithm 5 keeps every node forever; the replay cache bounded time per
// operation, and this file is its memory analogue.
//
// # Protocol
//
// Process p's watermark is its published record: a copy of the anchor of one
// of its recent operations — the prefix that operation linearized and the
// version of the truncation root it executed against — published on p's
// first operation, on every operation that runs a pass, and at least every
// min(Window, publishEvery) operations. The hot path never reads another
// process's record; only the amortized truncation pass does, so no shared
// steps are added to Execute (the records live outside the simulated shared
// memory, invisible to the sched adversary — GC-on and GC-off runs take
// byte-identical schedules).
//
// A record may be stale — up to publishEvery-1 operations behind its
// process's latest — and every rule below stays sound, because none of them
// needs q's latest record, only some record q once published, which is
// immutable. The freshness gate bounds q's unseen operations from below by
// the record's own index; an older record has a smaller one, so the gate
// passes no operation it should not, and every operation of q from that index
// on still covers a cut at or below the record. The pointwise-minimum cut
// takes a lower prefix, so it folds less. Base adoption takes a record's
// state, which is the state of its prefix however old. The trim's quiescence
// test reads an older root version, so a cut is severed later, and every
// operation q runs after publishing that record loads a root at or past its
// version. A stale record is therefore only more conservative.
//
// Every Window operations a process attempts a truncation pass (one
// TryLock'd collector at a time). The pass reads the records of the processes
// that have begun (below), takes the pointwise minimum M of their prefixes
// (the candidate), and lowers M to a fixpoint where every reachable node
// outside M covers it. The fixpoint terminates at or above the current root:
// every live node covers the current root by induction, and M only decreases
// toward views that themselves cover it.
//
// A process begins by publishing the initial truncation root as its record,
// once, before its first load of the truncation root and its first scan; a
// pass reads the records after its scan. A process the pass sees without a
// record is left out of the minimum, the freshness gate, the base climb and
// the trim's quiescence, and that is sound by the same Dekker pairing the pid
// leaser relies on: the atomics are sequentially consistent, so a record the
// pass missed is stored after the pass read it, and the process's first scan
// follows the pass's scan. By snapshot monotonicity that scan, and every
// later one of the process, is pointwise at least the pass's, which bounds M,
// so every node the process ever appends covers M — the covering lemma's
// condition, for nodes no rule below examines. Its first root load follows
// every truncation committed before the pass, so no trim the pass makes can
// cut under a root it loaded. A later pass sees the initial record — the
// empty prefix at version 0 — until the process publishes its own: the
// minimum then clamps to the current root and the trim's quiescence to
// version 0, so the pass neither cuts nor trims, as it must while a process
// with an operation in flight may be reading under any root.
//
// The fixpoint only examines nodes reachable from the collector's scan,
// and the records are read after that scan, so process q may have published
// operations the scan cannot see. The freshness gate makes those safe sight
// unseen: the pass proceeds only if each record's own index W_q[q] is at
// most one past the scan's view of q, so every unseen node of q has index at
// least W_q[q]. Operation W_q[q]'s view is W_q minus its own component and M
// is pointwise at most W_q (M starts at the minimum and is only lowered), so
// it covers M; per-process scans are pointwise monotone and own indexes only
// grow, so by induction every later operation of q — already published or
// still in the future — covers M too. Without the gate, an operation that
// scanned a stale view and published between the collector's scan and its
// record reads, its process then raising its record past it with further
// operations, would be examined by neither rule; committing a cut it does
// not cover would wedge every subsequent extraction against the root.
//
// So every node outside M covers it — those reachable from the scan by the
// fixpoint, unseen and future ones by the freshness gate — in every graph
// any later scan can reach, and by the covering lemma of the package doc M's
// replayed state can stand in for M: the pass publishes {M, state, version}
// as the new truncation root in one atomic pointer.
//
// The state is computed from the nearest checkpoint the pass has in hand, not
// from the farthest. Its base is the highest record between the current root
// and the candidate — found by climbing from the root through the n records
// just read, so the root is simply the list's last resort. The candidate is
// the pointwise minimum of those records, so a record at or below it is the
// candidate itself: one process's anchor that every other has passed, the
// ordinary case when operations do not overlap. Extraction, the fixpoint and
// the replay run over the nodes above the base only; extraction is the
// covering check, so by the lemma the base's state is the state of its
// prefix in this graph, whoever computed it, and when M is the base nothing is
// sorted or applied — the record's state is adopted. A straggler outside the
// base that does not cover it makes extraction refuse (or, in a graph that is
// not the construction's, the fixpoint sink below the base), and the pass
// starts over from the current root. GCStats.TruncatedNodes counts the
// operations folded, Σ_q (M[q] − root[q]), whichever base did the folding.
//
// Physical reclamation is deferred: the boundary nodes (index exactly M[q],
// reached by stepping down each chain from the scan) keep their preceding views
// until every published record carries a root version at or past the
// truncation — from then on no replay floor can fall below M, nobody follows
// pointers into the prefix again (extraction never reads the view of a node at
// or below its floor), and the collector severs the boundary views so the Go
// runtime can free the prefix. A process has several floors to choose from
// (its own last nodes, package doc; its walk stops at a node at or below the
// root it loaded, before reading that node's view) and a pass has its base,
// and neither weakens this: every one of them is at or above the root loaded
// by the operation or pass that uses it, and a record of version v belongs to
// a process whose later operations — published or not — load roots at or past
// v. The ordering argument is the record's store/load pair: the process's
// operations that could still read under the cut all ran before it published
// its record (release), and the collector observed quiescence (acquire)
// before it cut.
//
// Liveness: truncation needs a record from every process that has begun, and
// none from one that never executes, so idle pids pin nothing. A process that
// has begun still pins the graph while it idles, at its last record: the
// bound on live nodes is the number of operations executed between the
// slowest begun process's consecutive operations, plus the Window between
// collector passes and the fewer than publishEvery operations a record may lag
// — flat under steady traffic from every process that runs, the churn soak's
// assertion. Reading GCStats begins no process: it counts the live nodes from
// a scan's indexes and follows no view.
package universal

import (
	"sync"
	"sync/atomic"
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
	// truncation root, counted from one root scan's indexes. With GC disabled
	// it is the full history size.
	LiveNodes int
	// Truncations counts completed truncation passes that advanced the root.
	Truncations int64
	// TruncatedNodes counts operations folded into the root's state across
	// all truncations: per truncation, the sum over processes of how far the
	// root's prefix moved.
	TruncatedNodes int64
	// RootVersion is the current truncation root's version; 0 is the
	// initial, empty root.
	RootVersion int64
	// PendingTrims counts truncations whose boundary pointers are still
	// awaiting quiescence before being cut.
	PendingTrims int64
	// CoverageFailures counts extractions that found a reachable node not
	// covering the truncation root, and collector passes whose fixpoint fell
	// below it. The truncation invariant rules both out; a nonzero count
	// means the invariant broke — Execute returns errors — so the breakage
	// is observable here instead of masked.
	CoverageFailures int64
	// ReplayFailures counts truncation passes abandoned because the
	// truncated prefix failed to replay onto the root's state. A
	// persistent failure stops the root from ever advancing; this counter
	// distinguishes that from normal non-advancement.
	ReplayFailures int64
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
	mu          sync.Mutex // serializes collector passes; guards pending, recs, cut and scratch
	pending     []pendingTrim
	recs        []*anchor // a pass's reading of every process's record, nil for one not begun
	cut         []int     // a pass's candidate: the pointwise minimum of recs, clamped
	scratch     scratch   // the collector's own: a pass runs as no process
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
	o.gc = &gcInfo{window: window, recs: make([]*anchor, o.n), cut: make([]int, o.n), scratch: scratch{n: o.n}}
}

// GCEnabled reports whether SetGC has enabled truncation.
func (o *Object) GCEnabled() bool { return o.gc != nil }

// GCStats returns collector progress, as process p (one root scan, same pid
// ownership rules as Execute). It counts the live nodes from the scan's
// indexes, Σ_q (view[q] − root[q]), and follows no view, so it does not enter
// p into the collector's protocol: a pid that only reads stats pins nothing.
// With GC disabled only LiveNodes is set, to the full history size.
func (o *Object) GCStats(p int) GCStats {
	root := o.trunc.Load()
	live := 0
	for q, nd := range o.root.View(p) {
		live += max(top(nd)-root.prefix[q], 0)
	}
	if o.gc == nil {
		return GCStats{LiveNodes: live, CoverageFailures: o.coverFails.Load()}
	}
	g := o.gc
	return GCStats{
		LiveNodes:        live,
		Truncations:      g.truncations.Load(),
		TruncatedNodes:   g.truncated.Load(),
		RootVersion:      root.version,
		PendingTrims:     g.truncations.Load() - g.trims.Load(),
		CoverageFailures: o.coverFails.Load(),
		ReplayFailures:   g.replayFails.Load(),
	}
}

// collect is one truncation pass, run with g.mu held. It reuses the
// caller's root scan (view) so the pass adds no shared steps of its own, and
// reads the records after it.
func (o *Object) collect(view []*node) {
	g := o.gc
	cur := o.trunc.Load()

	// Read every process's record. A process without one has not begun and
	// is left out of every rule below: it stores its first record before its
	// first root load and scan, and the record is read after this pass's scan,
	// so its first scan follows this one and covers the cut, which is clamped
	// to this scan. A process whose record is still the initial one may have
	// loaded any root and be reading under it; that record's empty prefix and
	// version 0 keep this pass from cutting or trimming.
	for q := range o.local {
		g.recs[q] = o.local[q].rec.Load()
	}
	cut, minVer := g.cut, cur.version
	for q := range cut {
		cut[q] = top(view[q])
	}
	for _, rec := range g.recs {
		if rec == nil {
			continue
		}
		minVer = min(minVer, rec.version)
		for r, idx := range rec.prefix {
			cut[r] = min(cut[r], idx)
		}
	}

	// Cut boundary pointers of truncations every begun process has executed
	// past.
	g.trimQuiesced(minVer)

	// Freshness gate: the records were read after the scan, so process q may
	// have completed operations the scan cannot see. With own = q's last
	// completed operation per its record, operations at or past own are safe
	// unseen — operation own's view is q's prefix minus its own component, the
	// cut never exceeds that prefix, and later scans of q are pointwise at
	// least it — but an operation strictly between the scan's top of q and own
	// carries a view this pass never examines: it published after the scan
	// and q's record already moved past it. Truncating across such a gap is
	// unsound (the node may not cover the cut, wedging later extractions), so
	// wait for a fresher scan.
	for q, rec := range g.recs {
		if rec != nil && rec.prefix[q] > top(view[q])+1 {
			return
		}
	}

	// Clamp the candidate into [cur.prefix, view]: monotone above the current
	// root, and within what this scan reached — the records were read
	// after the scan, so they may run ahead of it. A scan older than the
	// current root (another process truncated since) waits for a fresher one.
	advanced := false
	for q := range cut {
		cut[q] = min(max(cut[q], cur.prefix[q]), top(view[q]))
		if cut[q] < cur.prefix[q] {
			return
		}
		if cut[q] > cur.prefix[q] {
			advanced = true
		}
	}
	if !advanced {
		return
	}

	// The base of the pass: the highest record between the current root and
	// the candidate, found by climbing from the root through the records just
	// read. Its state already folds everything at or below it.
	base := cur
	for _, rec := range g.recs {
		if rec != nil && atOrAbove(rec.prefix, base.prefix) && atOrAbove(cut, rec.prefix) {
			base = rec
		}
	}

	// Extract past the base and lower m to the covering fixpoint. The graph
	// may refuse a record as a base — a straggler outside it need not cover it
	// — and then the pass starts over from the current root, which every live
	// node covers. m becomes the new root's prefix, so it is fresh storage.
	sc := &g.scratch
	defer sc.release()
	m := make([]int, o.n)
	for {
		copy(m, cut)
		if _, _, ok := sc.extract(base.prefix, view); ok {
			lowerToCover(m, sc.nodes)
			if atOrAbove(m, base.prefix) {
				break
			}
		}
		if base == cur {
			o.coverFails.Add(1)
			return // unreachable: every live node covers the current root
		}
		base = cur
	}
	folded := 0
	for q := range m {
		folded += m[q] - cur.prefix[q]
	}
	if folded == 0 {
		return
	}

	// Replay what lies between the base and m onto the base's state; when m
	// is the base there is nothing to sort. By the covering fixpoint the
	// prefix nodes form an exact prefix of the linearization (prefix-first),
	// checked defensively before committing.
	between := 0
	for _, nd := range sc.nodes {
		if anchored(m, nd) {
			between++
		}
	}
	var order []*node
	if between > 0 {
		order = sc.linearize(o.t)
	}
	state, count := base.state, 0
	for _, nd := range order {
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
	if count != between {
		g.replayFails.Add(1)
		return // unreachable: prefix-first order violated
	}

	o.trunc.Store(&anchor{prefix: m, state: state, version: cur.version + 1})
	g.truncations.Add(1)
	g.truncated.Add(int64(folded))

	// Queue the boundary nodes — index exactly m[q], one step down each chain
	// that moved; live nodes cover m, so nothing live points below them — for
	// pointer cuts at quiescence.
	var boundary []*node
	for q, nd := range view {
		if m[q] == cur.prefix[q] {
			continue
		}
		for nd.index > m[q] {
			nd = nd.preceding[q]
		}
		boundary = append(boundary, nd)
	}
	g.pending = append(g.pending, pendingTrim{version: cur.version + 1, boundary: boundary})
}

// lowerToCover lowers m to the covering fixpoint over nodes: every node left
// outside the prefix must cover it. A violating node's own view caps the
// prefix — nodes it did not scan might linearize after it.
func lowerToCover(m []int, nodes []*node) {
	for changed := true; changed; {
		changed = false
		for _, nd := range nodes {
			if anchored(m, nd) || covers(nd.preceding, m) {
				continue
			}
			for q, prev := range nd.preceding {
				if idx := top(prev); idx < m[q] {
					m[q] = idx
					changed = true
				}
			}
		}
	}
}

// trimQuiesced severs the boundary views of truncations whose root version
// every begun process's record has reached: from then on no process's replay
// floor can fall below that cut, extraction never follows a pointer into it
// again, and the store/load ordering through the records makes the cut safe.
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

// gc.go bounds the construction's memory with a shared low-watermark
// protocol over the anchors of the package doc. The precedence graph of
// Algorithm 5 keeps every node forever; the replay cache bounded time per
// operation, and this file is its memory analogue.
//
// # Protocol
//
// Every Window operations a process attempts a truncation pass (one
// TryLock'd collector at a time) over the root scan its operation just took.
// An operation reads nothing of the collector's but the truncation root, and
// a pass reads only that scan, the root and, after the scan, the begun bits;
// the bits and the root live outside the simulated shared memory, invisible
// to the sched adversary, so no shared step is added to Execute and GC-on and
// GC-off runs take byte-identical schedules.
//
// Process q's watermark is its newest node in the scan, an anchor: the prefix
// that operation linearized and the version of the root it executed against.
// The caller's is the node it has just appended, whose prefix is the scan
// plus itself. The pass takes the pointwise minimum M of the watermarks'
// prefixes, clamped into the scan and above the current root (the candidate),
// and lowers M to a fixpoint where every reachable node outside M covers it.
// The fixpoint terminates at or above the current root: every live node
// covers the current root by induction, and M only decreases toward views
// that themselves cover it.
//
// The fixpoint examines only the nodes the scan reaches. Every other node
// covers M as well. A node of q that the scan misses follows q's watermark
// on q's chain, so it scanned after the watermark was appended, and by
// snapshot monotonicity its view holds the watermark's prefix, which is at or
// above M; the caller's new node's view is the scan itself. A process with no
// node in the scan is the remaining case. A process begins by setting its
// begun bit, once, before its first load of the truncation root and its first
// scan, and a pass reads the bits after its scan. A process the pass sees
// without the bit is left out, and that is sound by the same Dekker pairing
// the pid leaser relies on: the atomics are sequentially consistent, so a bit
// the pass missed is set after the pass read it, and the process's first scan
// follows the pass's scan. By snapshot monotonicity that scan, and every
// later one of the process, is pointwise at least the pass's, which bounds M,
// so every node the process ever appends covers M. Its first root load
// follows every truncation committed before the pass, so no trim the pass
// makes can cut under a root it loaded. A process that has begun but has no
// node in the scan may have loaded any root and be reading under it, so the
// pass neither cuts nor trims.
//
// So every node outside M covers it, in every graph any later scan can reach,
// and by the covering lemma of the package doc M's replayed state can stand
// in for M: the pass replays it from the floor its caller's operations would
// start from, bounded by the candidate (package doc, Replay cache), and
// publishes {M, state, version} as the new truncation root in one atomic
// pointer.
//
// A watermark at or below the current root may be a boundary node that a pass
// since the scan has severed (below), so its view is never read. The pass
// still counts its version for the trim but cuts nothing: the node's prefix
// lies inside the root's, so M would only clamp to the root.
//
// Physical reclamation is deferred: the boundary nodes (index exactly M[q],
// reached by stepping down each chain from the scan) keep their preceding
// views until every watermark of a pass carries a root version at or past the
// truncation — from then on no replay floor can fall below M, nobody follows
// pointers into the prefix again (extraction never reads the view of a node at
// or below its floor), and the collector severs the boundary views so the Go
// runtime can free the prefix. The watermarks' minimum version suffices: q's
// operation in flight, and every later one, loaded its root after q's newest
// scanned node completed, and roots only advance. A process has several
// floors to choose from, for its operations and its passes alike (package doc;
// its walk stops at a node at or below the root it loaded, before reading that
// node's view), and that does not weaken this: every one of them is at or
// above the root loaded by the operation or pass that uses it. The ordering is
// the snapshot's: an operation of q that could still read under the cut
// finished reading before q appended its watermark (release), and the pass
// read the watermark in its scan (acquire) before it cut.
//
// Liveness: truncation needs a node in the scan from every process that has
// begun, and nothing from one that never executes, so idle pids pin nothing.
// A process that has begun still pins the graph while it idles, at its newest
// node: the bound on live nodes is the number of operations executed between
// the slowest begun process's consecutive operations, plus the Window between
// collector passes — flat under steady traffic from every process that runs,
// the churn soak's assertion. Reading GCStats begins no process: it counts the
// live nodes from a scan's indexes and follows no view.
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
	mu          sync.Mutex // serializes collector passes; guards pending and cut
	pending     []pendingTrim
	cut         []int // a pass's candidate: the pointwise minimum of the watermarks, clamped
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
	o.gc = &gcInfo{window: window, cut: make([]int, o.n)}
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

// collect is one truncation pass, run with g.mu held by process p over the
// root scan view of the operation that loaded root version: the pass adds no
// shared steps of its own, and reads nothing after the scan but begun bits.
func (o *Object) collect(p int, view []*node, version int64) {
	g := o.gc
	cur := o.trunc.Load()

	// The watermarks: p's new node, whose prefix is the scan plus itself, so
	// that the candidate starts at the scan, and every other process's newest
	// scanned node.
	cut, minVer, cuts := g.cut, min(cur.version, version), true
	for q := range cut {
		cut[q] = top(view[q])
	}
	for q, nd := range view {
		switch {
		case q == p:
		case nd == nil:
			if o.local[q].begun.Load() {
				return // q may be reading under any root
			}
		case nd.index <= cur.prefix[q]:
			minVer = min(minVer, nd.version)
			cuts = false // nd's view may be severed, and the root holds its prefix
		default:
			minVer = min(minVer, nd.version)
			for r, prev := range nd.preceding {
				if r != q { // nd's prefix holds nd itself, which cut[q] is at most
					cut[r] = min(cut[r], top(prev))
				}
			}
		}
	}

	// Cut boundary pointers of truncations every watermark has executed past.
	g.trimQuiesced(minVer)
	if !cuts {
		return
	}

	// Clamp the candidate above the current root. A scan older than the
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

	// The floor of the pass is p's, by the rule p's operations follow (package
	// doc), but at or below the candidate. The pass runs in p's scratch, which
	// the operation it follows has released, and the scratch keeps the nodes
	// past the floor, over which m is lowered to the covering fixpoint. m
	// becomes the new root's prefix, so it is fresh storage.
	l := &o.local[p]
	defer l.release()
	f := o.floor(p, cur, view, cut)
	m := make([]int, o.n)
	copy(m, cut)
	lowerToCover(m, l.nodes)
	if f.prefix == nil || !atOrAbove(m, f.prefix) {
		o.coverFails.Add(1)
		return // unreachable: every live node covers the current root, and every node past a floor covers it
	}
	folded := 0
	for q := range m {
		folded += m[q] - cur.prefix[q]
	}
	if folded == 0 {
		return
	}

	// Replay what lies between the floor and m onto the floor's state; when m
	// is the floor there is nothing to sort. By the covering fixpoint the
	// prefix nodes form an exact prefix of the linearization (prefix-first),
	// checked defensively before committing.
	between := 0
	for _, nd := range l.nodes {
		if anchored(m, nd) {
			between++
		}
	}
	var order []*node
	if between > 0 {
		order = l.linearize(o.t)
	}
	state, applied, err := o.apply(f.state, order, m)
	if err != nil || applied != between {
		// Leave the graph untruncated, but observably: a persistent replay
		// failure would otherwise disable GC forever while looking like
		// normal non-advancement. (A prefix-first violation is unreachable.)
		g.replayFails.Add(1)
		return
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
// every watermark of a pass has reached: from then on no process's replay
// floor can fall below that cut, and extraction never follows a pointer into
// it again.
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

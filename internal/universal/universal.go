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
// forever: it is wait-free but not bounded wait-free, and steps 2-4
// re-extract and re-sort the whole history, so per-operation cost grows with
// history length — measured by experiment E6.
//
// # Anchors and the covering lemma
//
// Everything this implementation adds to the paper's algorithm — the replay
// cache below and the truncation of gc.go — rests on one record and one lemma.
// Each operation of process p is an anchor: the per-process operation-index
// prefix {(q, i) : i <= prefix[q]} it just linearized (its scanned view plus
// its own node), the sequential state reached by replaying that prefix, and
// the version of the truncation root it executed against. The operation's node
// is that anchor — its preceding view and its index are the prefix, it records
// the root version, and it carries the state while it is one of p's last
// anchorRing+1 nodes — so p's replay floors are its own nodes, kept in a fixed
// array, and a collector pass takes every process's low watermark from the
// nodes its own scan returns (gc.go). The truncation root is an anchor too;
// the initial one — nothing linearized, the initial state, version 0 — exists
// from construction.
//
// A process that has never begun is left out of every pass rather than waited
// for. It begins by setting its begun bit, once, before its first load of the
// truncation root and its first scan; that bit is all a pass reads after its
// scan (gc.go says why this is sound). Reading GCStats begins nobody: it reads
// a scan's indexes and no node's view.
//
// A node covers a prefix when its scanned view includes every node of the
// prefix. Covering lemma: in a precedence graph whose nodes outside a prefix
// all cover it, the prefix is an exact prefix of the graph's linearization.
// A covering node's view reaches every prefix node through the per-process
// chains, so precedence orders it after the whole prefix, and lingraph's
// dominance edges skip pairs precedence already orders, so no edge can invert
// that. Replacing the prefix by the state it replays to therefore changes no
// response and reorders nothing. The lemma speaks of a prefix, not of the
// newest one: any anchor whose prefix the graph in hand covers is a sound
// place to start, and the nearest is merely the cheapest. The prefix may be
// the whole graph: when one scanned node's own view is the rest of the scan,
// the graph is that node's prefix, and the state its node carries is the
// graph's. The replay cache applies the lemma to the graph one scan reaches;
// truncation applies it to every graph any later scan can reach, which is
// precisely prefix preservation.
//
// # Replay cache
//
// Executed naively, steps 2-4 cost O(history). One rule instead chooses where
// process p starts — its floor — for its operations and for the collector
// passes it runs alike: the first of three candidates whose prefix the graph
// p scanned covers and, for a pass, lies at or below the pass's candidate cut.
// With the cache off the root is the only candidate.
//
//  1. The whole graph: a node of the view whose own view is the rest of the
//     scan, pointer for pointer, and which still carries its state — the
//     common case when operations do not overlap, since the newest operation
//     scanned all the others. Then p takes that state, applies its own
//     invocation and replays nothing (CacheStats.Covered). Only a node above
//     the truncation root the operation loaded is a candidate, and only its
//     own view is read, never the view of a node at or below the root, which
//     the collector may sever. A node that has left its process's last
//     anchorRing+1 has dropped its state and is no candidate.
//  2. p's own nodes newest to oldest: view[p], p's last node, and down its
//     chain while a node still holds its state and lies above the truncation
//     root the operation loaded before its scan.
//  3. That root, which every reachable node covers (gc.go; without GC the root
//     stays the empty prefix and this is the full extraction).
//
// From a candidate p extracts only the nodes beyond its prefix and replays them
// onto its state, provided every extracted node covers the prefix — the
// lemma's condition on the graph p scanned, so node orders and responses are
// byte-identical to an uncached run (the differential tests check this).
// Normally p's newest node is covered and the cost is O(Δ·n) for the Δ
// operations since p's previous one. A non-covering node (a genuinely
// concurrent straggler that might linearize inside the prefix) refuses the
// candidate, and the next one down is tried — the first at or below the
// straggler's view of p, since the straggler refuses every kept node above
// that view too, and nothing is extracted to learn it. Views only fall down a
// chain, so the straggler named is the refusing chain's lowest extracted node,
// whose view of p is that chain's lowest. A straggler that overlapped one of
// p's recent operations scanned after the operation before it, so it covers
// that operation's node and the miss costs one refused extraction and the few
// operations since, not the live graph. Only a straggler older than every kept
// node above the root sends p to the root (CacheStats.RootReplays). The walk
// stops at the first node at or below the root — that node may be a boundary
// node whose view the collector severs, and the quiescence rule of gc.go
// counts on no floor lying lower. What the list retains is bounded: an array
// of anchorRing+1 node pointers per process, one n-int buffer its candidates'
// prefixes are written to, and the kept nodes' state strings.
//
// A pass runs in its caller's scratch, inside the caller's Execute after the
// operation's replay, so its floor is the one the caller would take, bounded
// by the cut. That floor's state already folds everything at or below it:
// extraction, the covering fixpoint and the replay run over the nodes past it
// only, and when the fixpoint is the floor nothing is sorted or applied. When
// operations do not overlap the cut is the caller's whole scan, and the node
// covering the scan exactly is the floor; otherwise it is, as a rule, one of
// the caller's kept nodes a few operations below the cut. A fixpoint never
// sinks below a floor the extraction accepted, since every node past it covers
// it; should it, the pass counts a coverage failure and commits nothing.
// GCStats.TruncatedNodes counts the operations folded, Σ_q (M[q] − root[q]),
// whichever floor did the folding.
//
// Strong linearizability is untouched: the cache reads nothing but what a
// legal root scan returns, takes no shared step (a node's state is written
// before the node is published and dropped by a plain atomic store outside
// the simulated shared memory, and the kept nodes are reached through p's own
// scan), and computes the same response function of the scanned view as the
// uncached algorithm.
package universal

import (
	"cmp"
	"fmt"
	"sync/atomic"
	"unsafe"

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
	return dominates(t.Overwrites(descA, pidA, descB, pidB), t.Overwrites(descB, pidB, descA, pidA), pidA, pidB)
}

// dominates is Definition 34 given whether a overwrites b (ab) and b
// overwrites a (ba).
func dominates(ab, ba bool, pidA, pidB int) bool {
	return ab && (!ba || pidA > pidB)
}

// ValidateSimple checks Definition 33 over a set of invocation samples:
// every pair must commute or overwrite one way. It returns the first
// offending pair, if any, and an error for an empty pid sample.
func ValidateSimple(t Type, descs []string, pids []int) error {
	if len(pids) == 0 {
		return fmt.Errorf("universal: validating %s needs at least one pid, the pid sample is empty", t.Name())
	}
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
	pid        int
	index      int     // per-process operation index: (pid,index) is unique
	preceding  []*node // view[i] at this operation's scan; nil = ⊥
	version    int64   // the truncation root's version this operation executed against
	// state and stateLen are the state its executor reached — the scanned
	// graph's state with this operation applied, the state after the node's
	// own prefix — as the string's first byte (stateData) and length, set
	// before the node is published. The node holds it while it is one of its
	// process's last anchorRing+1 nodes: the process drops it (one atomic store
	// of nil) when it publishes the node that evicts it, so the live graph pins
	// at most anchorRing+1 states per process, and a node without one covers
	// nothing and is no floor.
	state    unsafe.Pointer
	stateLen int
}

// emptyState is where an empty state points: the data pointer of "" may be
// nil, and nil marks a dropped state.
var emptyState byte

// stateData is the state pointer a node reaching s carries.
func stateData(s string) unsafe.Pointer {
	return unsafe.Pointer(cmp.Or(unsafe.StringData(s), &emptyState))
}

// reachedState returns the state e's executor reached, and false once e's
// process has dropped it.
func (e *node) reachedState() (string, bool) {
	p := atomic.LoadPointer(&e.state)
	if p == nil {
		return "", false
	}
	return unsafe.String((*byte)(p), e.stateLen), true
}

// anchor is a truncation root (package doc): a linearized index prefix, the
// sequential state it replays to, and a version numbering the roots. It is
// immutable.
type anchor struct {
	// prefix[q] is the highest operation index of process q in the prefix,
	// -1 for none.
	prefix  []int
	state   string
	version int64
}

// anchorRing is the number of nodes a process keeps, with their states, from
// before its newest one, as lower replay floors for the operation a straggler
// makes miss.
const anchorRing = 8

// plocal is everything process p keeps between its operations: its last
// nodes, its begun bit and the scratch its extractions and linearizations run
// in, its collector passes' included. It is written only by the goroutine
// driving that pid — begun is the bit collector passes load, and the counters
// are atomic so CacheStats may read them concurrently — it is indexed by pid,
// and it is never pooled and never shared: exclusive pid ownership is the
// model's own invariant, so the rest needs no synchronising. The trailing pad
// keeps one process's entry off the cache lines of the next.
type plocal struct {
	// ops counts the operations since the process's last collector pass.
	ops int
	// mine holds the process's last anchorRing+1 nodes, node i in slot i %
	// len(mine): its anchors, each holding its state while it is here. at is
	// the prefix of the candidate floor that floor is trying.
	mine [anchorRing + 1]*node
	at   []int
	// begun is set before the process's first load of the truncation root
	// and never cleared.
	begun atomic.Bool
	// hits, covered, misses, rootReplays and refused count this process's
	// cache outcomes.
	hits        atomic.Int64
	covered     atomic.Int64
	misses      atomic.Int64
	rootReplays atomic.Int64
	refused     atomic.Int64

	scratch
	_ [128]byte
}

// bump adds one to a counter only this process writes.
func bump(c *atomic.Int64) { c.Store(c.Load() + 1) }

// CacheStats counts replay-cache outcomes across all processes.
type CacheStats struct {
	// Hits counts operations that replayed only the delta beyond their
	// process's newest node, Covered included.
	Hits int64
	// Covered counts the hits that replayed nothing: one node of the scanned
	// view had scanned the rest of the view exactly, so its state was the
	// graph's and only the operation's own invocation was applied.
	Covered int64
	// Misses counts operations that replayed from a lower floor — an earlier
	// node of their process or the truncation root — because some extracted
	// node did not cover their process's newest.
	Misses int64
	// RootReplays counts the misses that ended at the truncation root: none
	// of the nodes the process keeps above the root was covered. Each costs a
	// replay of every live node, so a share of Misses that grows says
	// stragglers lag further behind than the kept nodes reach.
	RootReplays int64
	// Refused counts the kept nodes misses extracted from and had refused,
	// each an extraction paid for nothing. The node that refuses a kept node
	// refuses every older one above its view of the process too, so a miss
	// steps past those without extracting.
	Refused int64
}

// Object is an implementation of a simple type from a snapshot object.
// Methods take the calling process id; at most one goroutine may drive a
// given pid at a time.
type Object struct {
	t  Type
	sp spec.Spec
	n  int
	// root is the strongly linearizable snapshot of internal/core that
	// Theorem 3 requires. Its View is the scan as the snapshot stores it —
	// shared, never written: the construction only reads a view, and keeps
	// it as its node's preceding vector, which it never writes through
	// either.
	root    *core.Snapshot[*node]
	caching bool
	local   []plocal
	// trunc is the truncation root: the floor under every replay. Only a
	// collector pass advances it, so without GC it stays the initial anchor —
	// nothing linearized, the initial state, version 0.
	trunc atomic.Pointer[anchor]
	gc    *gcInfo // nil until SetGC enables truncation
	// coverFails counts extractions refused because a reachable node does
	// not cover the floor they must start from, or breaks the chain rules.
	coverFails atomic.Int64
}

// New constructs the object over the strongly linearizable snapshot of
// internal/core, yielding a lock-free strongly linearizable implementation
// (Theorem 3).
func New(alloc memory.Allocator, t Type, n int) *Object {
	if n < 1 {
		panic(fmt.Sprintf("universal: n = %d, need at least 1 process", n))
	}
	o := &Object{
		t:       t,
		sp:      t.Spec(),
		n:       n,
		root:    core.New[*node](alloc, n, nil),
		caching: true,
		local:   make([]plocal, n),
	}
	none := make([]int, n)
	for p := range o.local {
		o.local[p].n = n
		none[p] = -1
	}
	o.trunc.Store(&anchor{prefix: none, state: o.sp.Initial()})
	return o
}

// SetCaching enables or disables the replay cache (enabled by default).
// Disabling leaves the truncation root as the only replay floor — without
// GC the full O(history) extract-and-replay path; it exists for differential
// tests and growth measurements. It must not be called concurrently with
// Execute. A process keeps its last nodes either way, so a re-enabled cache
// resumes from each process's latest operation.
func (o *Object) SetCaching(on bool) { o.caching = on }

// CacheStats returns the replay-cache hit/miss counters, summed over all
// processes.
func (o *Object) CacheStats() CacheStats {
	var st CacheStats
	for p := range o.local {
		st.Hits += o.local[p].hits.Load()
		st.Covered += o.local[p].covered.Load()
		st.Misses += o.local[p].misses.Load()
		st.RootReplays += o.local[p].rootReplays.Load()
		st.Refused += o.local[p].refused.Load()
	}
	return st
}

// Execute performs the invocation as process p (Algorithm 5, execute):
// it computes the response the history demands, publishes the operation's
// node, and returns the response. With the replay cache warm it replays
// nothing when one scanned node covers the rest of the view exactly, and
// otherwise extracts, sorts, and replays only the nodes beyond the nearest
// floor the scanned graph covers — process p's newest node, as a rule — and
// no floor is ever below the truncation root, whose state stands in for the
// truncated prefix.
func (o *Object) Execute(p int, invoke string) (string, error) {
	o.begin(p)
	root := o.trunc.Load()
	view := o.root.View(p) // line 81

	state, err := o.replay(p, root, view)
	if err != nil {
		return "", err
	}
	next, resp, err := o.sp.Apply(state, p, invoke)
	if err != nil {
		return "", fmt.Errorf("universal: %s: %w", invoke, err)
	}

	e := &node{
		invocation: invoke,
		pid:        p,
		index:      top(view[p]) + 1, // the root is linearizable: p's scan holds p's last node
		preceding:  view,             // lines 88-90 (a stored view is immutable: see Object.root)
		version:    root.version,
		state:      stateData(next),
		stateLen:   len(next),
	}
	o.root.Update(p, e) // line 91
	o.publish(&o.local[p], e)
	return resp, nil
}

// begin enters process p into the collector's protocol before its first
// load of the truncation root (gc.go): from then on no pass leaves p out.
func (o *Object) begin(p int) {
	if l := &o.local[p]; !l.begun.Load() {
		l.begun.Store(true)
	}
}

// replay returns the state after the graph view reaches (Algorithm 5, lines
// 82-87 short of the operation's own invocation): it extracts the nodes past
// p's floor (line 82, restricted past the floor), sorts them (line 83: the
// topological sort of lingraph(G)) and replays them onto the floor's state.
// It counts the floor in p's CacheStats.
func (o *Object) replay(p int, root *anchor, view []*node) (string, error) {
	l := &o.local[p]
	f := o.floor(p, root, view, nil)
	l.count(f)
	if f.prefix == nil {
		// Every reachable node covers the truncation root (the truncation
		// invariant; trivially so for the initial one): only a graph that is
		// not the construction's can get here.
		o.coverFails.Add(1)
		return "", fmt.Errorf("universal: precedence graph breaks the per-process chains or does not cover truncation root v%d", root.version)
	}
	state, _, err := o.apply(f.state, l.linearize(o.t), nil)
	l.release()
	return state, err
}

// apply replays order onto state, the state of the floor the nodes lie past,
// up to the first node outside the prefix upto (nil holds every node), and
// returns how many it applied.
func (o *Object) apply(state string, order []*node, upto []int) (string, int, error) {
	for i, nd := range order {
		if upto != nil && !anchored(upto, nd) {
			return state, i, nil
		}
		next, _, err := o.sp.Apply(state, nd.pid, nd.invocation)
		if err != nil {
			return state, i, fmt.Errorf("universal: replaying %s: %w", nd.invocation, err)
		}
		state = next
	}
	return state, len(order), nil
}

// covered returns the state after the graph view reaches when a node of view
// scanned the rest of view exactly — view[q] whose preceding[r] is view[r],
// the same node or both ⊥, for every r ≠ q — and still holds its state. The
// graph is then that node's prefix: its own view, which is already a
// linearized graph, plus the node itself. That node covers its view, so by
// the covering lemma the state after the graph is the one its executor
// reached. Only a node above root is a candidate, and no other node's view is
// read: a node at or below the truncation root this operation loaded may be a
// boundary node whose view the collector severs, the same rule extraction
// keeps. At most one node can qualify: two that each scanned the other would
// make a cycle.
func covered(root *anchor, view []*node) (string, bool) {
	for q, e := range view {
		if e == nil || e.index <= root.prefix[q] || len(e.preceding) != len(view) {
			continue
		}
		exact := true
		for r, nd := range view {
			if r != q && e.preceding[r] != nd {
				exact = false
				break
			}
		}
		if exact {
			return e.reachedState()
		}
	}
	return "", false
}

// start is a floor: the prefix an extraction starts past, nil when the graph
// covers no candidate, and that prefix's state — with which candidate it was
// and how many of p's kept nodes above it the graph refused.
type start struct {
	prefix  []int
	state   string
	covered bool // the node covering the scan exactly: nothing lies past it
	kept    bool // one of p's kept nodes
	refused int
}

// floor is the one rule choosing where process p starts from the graph view
// reaches, for its operations and for the collector passes it runs alike
// (package doc): the first candidate whose prefix the graph covers and lies at
// or below ceil (nil bounds nothing). The candidates are, with the cache on, a
// node covering the scan exactly, then p's own nodes from view[p] down its
// chain — ending at the first that has dropped its state or lies at or below
// root, the truncation root the caller loaded, whose view is never read: the
// collector may sever it — and then root itself. A node whose prefix is not at
// or above root is skipped, never extracted from and never an error: the
// root's state subsumes it. Extraction is the covering check: a candidate is
// refused when some extracted node does not cover it, and the next one down is
// tried — unless that node's view of p lies below it too. The refusing node is
// then extracted for every older candidate above its view of p and refuses
// each of them, so the walk steps past them without extracting. p's scratch
// is left holding the nodes past the floor: none past a covering node.
func (o *Object) floor(p int, root *anchor, view []*node, ceil []int) start {
	l := &o.local[p]
	var f start
	if o.caching {
		l.at = grow(l.at, o.n)
		if state, ok := covered(root, view); ok {
			for q, nd := range view {
				l.at[q] = top(nd)
			}
			if ceil == nil || atOrAbove(ceil, l.at) {
				return start{prefix: l.at, state: state, covered: true}
			}
		}
		below := top(view[p]) // candidates above it are known to be refused
		for e := view[p]; e != nil && e.index > root.prefix[p]; e = e.preceding[p] {
			if e.index > below {
				continue
			}
			state, ok := e.reachedState()
			if !ok {
				break
			}
			prefixOf(l.at, e)
			if !atOrAbove(l.at, root.prefix) || ceil != nil && !atOrAbove(ceil, l.at) {
				continue
			}
			_, refuser, ok := l.extract(l.at, view)
			if ok {
				return start{prefix: l.at, state: state, kept: true, refused: f.refused}
			}
			f.refused++
			if refuser != nil {
				below = top(refuser.preceding[p])
			}
		}
	}
	if _, _, ok := l.extract(root.prefix, view); ok {
		f.prefix, f.state = root.prefix, root.state
	}
	return f
}

// count adds an operation's floor to process l's cache outcomes.
func (l *plocal) count(f start) {
	switch {
	case f.covered:
		bump(&l.hits)
		bump(&l.covered)
	case f.refused == 0:
		if f.kept {
			bump(&l.hits)
		}
	default:
		bump(&l.misses)
		if !f.kept {
			bump(&l.rootReplays)
		}
		l.refused.Store(l.refused.Load() + int64(f.refused))
	}
}

// atOrAbove reports whether prefix a includes the cut pointwise.
func atOrAbove(a, cut []int) bool {
	for q, c := range cut {
		if a[q] < c {
			return false
		}
	}
	return true
}

// prefixOf writes node e's prefix — its scanned view plus itself — into at.
func prefixOf(at []int, e *node) {
	for q, nd := range e.preceding {
		at[q] = top(nd)
	}
	at[e.pid] = e.index
}

// publish makes node e the newest of process l's kept nodes — it evicts the
// oldest, whose state it drops — and runs the amortized collector over e's
// scan every window operations.
func (o *Object) publish(l *plocal, e *node) {
	slot := e.index % len(l.mine)
	if old := l.mine[slot]; old != nil {
		atomic.StorePointer(&old.state, nil)
	}
	l.mine[slot] = e
	g := o.gc
	if g == nil {
		return
	}
	if l.ops++; l.ops < g.window {
		return
	}
	l.ops = 0
	if g.mu.TryLock() {
		o.collect(e.pid, e.preceding, e.version)
		g.mu.Unlock()
	}
}

// top is the operation index a view component stands for: -1 for ⊥.
func top(nd *node) int {
	if nd == nil {
		return -1
	}
	return nd.index
}

// anchored reports whether nd is inside the prefix. A prefix is per-process
// index-closed: process q's nodes 0..prefix[q] and nothing else are reachable
// at or below it (each process's nodes form a preceding chain, and scans of
// q's component are monotone).
func anchored(prefix []int, nd *node) bool {
	return prefix != nil && nd.index <= prefix[nd.pid]
}

// covers reports whether a scanned view includes every node of the prefix:
// for each process q with an operation in it, the view holds q's node with at
// least that index.
func covers(view []*node, prefix []int) bool {
	for q, idx := range prefix {
		if idx < 0 {
			continue
		}
		if q >= len(view) || view[q] == nil || view[q].index < idx {
			return false
		}
	}
	return true
}

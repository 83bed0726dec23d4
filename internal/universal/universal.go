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
// # The anchor record and the covering lemma
//
// Everything this implementation adds to the paper's algorithm — the replay
// cache below and the truncation of gc.go — rests on one record and one lemma.
// Each operation of process p is an anchor: the per-process operation-index
// prefix {(q, i) : i <= prefix[q]} it just linearized (its scanned view plus
// its own node), the sequential state reached by replaying that prefix, and
// the version of the truncation root it executed against. The operation's node
// is that anchor in p's own hands — its preceding view and its index are the
// prefix, and it carries the state while it is one of p's last anchorRing+1
// nodes — so p's replay floors are its own nodes, kept in a fixed array. p
// publishes an immutable copy of one anchor, as a record, into a single-writer
// register outside the simulated shared memory — on its first operation, on
// every operation that runs a collector pass, and never more than min(Window,
// publishEvery) operations apart — and collector passes read that copy, as a
// low watermark and as a base whose state they may adopt. The truncation root
// is a record of the same type; the initial one — nothing linearized, the
// initial state, version 0 — exists from construction.
//
// A published record may be up to publishEvery-1 operations older than its
// process's latest, and that is sound: every rule that reads another process's
// record — the freshness gate, the pointwise-minimum cut, base adoption and
// the trim's quiescence test (gc.go) — needs only some record that process
// once published, never its latest. An older record is a lower prefix and an
// older root version, so the cut it yields is lower and the trim it allows
// later: more conservative, never wrong.
//
// A process that has never begun has no record, and the rules leave it out
// rather than wait for one. It begins by publishing the initial truncation
// root as its record, once, before its first load of the truncation root and
// its first scan, and collector passes read the records after their scans:
// with sequentially consistent atomics, a pass that misses the record ran its
// scan before the process's first, so by snapshot monotonicity every node the
// process will ever append covers the pass's cut, which never exceeds that
// scan, and its first root load follows every truncation before the pass. A
// pass that sees the initial record neither cuts nor trims (gc.go). Reading
// GCStats begins nobody: it reads a scan's indexes and no node's view.
//
// A node covers a prefix when its scanned view includes every node of the
// prefix. Covering lemma: in a precedence graph whose nodes outside a prefix
// all cover it, the prefix is an exact prefix of the graph's linearization.
// A covering node's view reaches every prefix node through the per-process
// chains, so precedence orders it after the whole prefix, and lingraph's
// dominance edges skip pairs precedence already orders, so no edge can invert
// that. Replacing the prefix by the state it replays to therefore changes no
// response and reorders nothing. The lemma speaks of a prefix, not of the
// newest one: any record whose prefix the graph in hand covers is a sound
// place to start, and the nearest is merely the cheapest. The prefix may be
// the whole graph: when one scanned node's own view is the rest of the scan,
// the graph is that node's prefix, and the state its node carries is the
// graph's. The replay cache applies the lemma to the graph one scan reaches;
// truncation applies it to every graph any later scan can reach, which is
// precisely prefix preservation.
//
// # Replay cache
//
// Executed naively, steps 2-4 cost O(history). Process p instead starts from
// the nearest floor the scanned graph covers. The first candidate is the whole
// graph: a node of the view whose own view is the rest of the scan, pointer for
// pointer, and which still carries its state — the common case when operations
// do not overlap, since the newest operation scanned all the others. Then p
// takes that state, applies its own invocation and replays nothing
// (CacheStats.Covered). Only a node above the truncation root the operation
// loaded is a candidate, and only its own view is read, never the view of a
// node at or below the root, which the collector may sever. A node that has
// left its process's last anchorRing+1 has dropped its state, so an operation
// that scanned it falls to the list below. The other candidates are one list:
// p's own nodes newest to oldest — view[p], p's last node, and down its chain
// while a node still holds its state and lies above the truncation root the
// operation loaded before its scan — and last that root, which every reachable
// node covers (gc.go; without GC the root stays the empty prefix and that last
// candidate is the full extraction). From a candidate p extracts only the nodes
// beyond its prefix and replays them onto its state, provided every extracted
// node covers the prefix — the lemma's condition on the graph p scanned, so
// node orders and responses are byte-identical to an uncached run (the
// differential tests check this). Normally p's newest node is covered and the
// cost is O(Δ·n) for the Δ operations since p's previous one. A non-covering
// node (a genuinely concurrent straggler that might linearize inside the
// prefix) refuses the candidate, and the next one down is tried — the first at
// or below the straggler's view of p, since the straggler refuses every kept
// node above that view too, and nothing is extracted to learn it. Views only
// fall down a chain, so the straggler named is the refusing chain's lowest
// extracted node, whose view of p is that chain's lowest. A straggler
// that overlapped one of p's recent operations scanned after the operation
// before it, so it covers that operation's node and the miss costs one refused
// extraction and the few operations since, not the live graph. Only a straggler
// older than every kept node above the root sends p to the root
// (CacheStats.RootReplays). The walk stops at the first node at or below the
// root — that node may be a boundary node whose view the collector severs, and
// the quiescence rule of gc.go counts on no floor lying lower. What the list retains is bounded: an array of
// anchorRing+1 node pointers per process, one n-int buffer its candidates'
// prefixes are written to, and the kept nodes' state strings — plus the (at
// most two) blocks its published copies are carved from (publishEvery).
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
	pid        int
	index      int     // per-process operation index: (pid,index) is unique
	preceding  []*node // view[i] at this operation's scan; nil = ⊥
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

// anchor is the shared record of the package doc: a linearized index prefix,
// the sequential state it replays to, and a truncation-root version — a
// process's published record or a truncation root, immutable either way. As a
// process's record, version is the root the operation executed against; as a
// truncation root, it numbers the roots.
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

// publishEvery bounds the operations between two publications of a process's
// record when the collector's window is longer: a publication is the only
// memory an anchor costs beyond its node, and only a collector pass, once a
// window, reads the record. Published copies are carved publishEvery at a time
// out of one block of records and one of prefixes, so even at a window of one,
// where every operation publishes, a copy costs an eighth of an allocation. A
// block stays reachable while the published record or the collector's last
// reading of it lies in it: at most two per process, with their records' state
// strings.
const publishEvery = 16

// plocal is everything process p keeps between its operations: its last
// nodes, its published record and the scratch its extractions and
// linearizations run in. It is written only by the goroutine driving that pid
// — rec is the single-writer register collector passes load, and the counters
// are atomic so CacheStats may read them concurrently — it is
// indexed by pid, and it is never pooled and never shared: exclusive pid
// ownership is the model's own invariant, so the rest needs no synchronising.
// The trailing pad keeps one process's entry off the cache lines of the next.
type plocal struct {
	// ops counts the operations since the process's last collector pass.
	ops int
	// mine holds the process's last anchorRing+1 nodes, node i in slot i %
	// len(mine): its anchors, each holding its state while it is here. at is
	// the prefix of the one floor is trying.
	mine [anchorRing + 1]*node
	at   []int
	// rec is the published copy of one of its anchors: nil before the
	// process begins, the initial truncation root (Object.zero) from then
	// until its first operation publishes. pubs and pubPrefixes are what is
	// left of the blocks copies are carved from.
	rec         atomic.Pointer[anchor]
	pubs        []anchor
	pubPrefixes []int
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
	// collector pass advances it, so without GC it stays zero, the initial
	// record — nothing linearized, the initial state, version 0.
	trunc atomic.Pointer[anchor]
	zero  *anchor
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
	o.zero = &anchor{prefix: none, state: o.sp.Initial()}
	o.trunc.Store(o.zero)
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

	state, err := o.reached(p, root, view)
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
		state:      stateData(next),
		stateLen:   len(next),
	}
	o.root.Update(p, e) // line 91
	o.publish(&o.local[p], e, next, root.version)
	return resp, nil
}

// begin enters process p into the collector's protocol before its first
// load of the truncation root (gc.go) by publishing the initial record: from
// then on no pass cuts or trims past a record of p's.
func (o *Object) begin(p int) {
	if l := &o.local[p]; l.rec.Load() == nil {
		l.rec.Store(o.zero)
	}
}

// reached returns the state after the graph view reaches (Algorithm 5, lines
// 82-87 short of the operation's own invocation). With the cache on, a view
// node that covers the rest of the view exactly carries that state itself;
// otherwise it is replayed.
func (o *Object) reached(p int, root *anchor, view []*node) (string, error) {
	if o.caching {
		if state, ok := covered(root, view); ok {
			l := &o.local[p]
			bump(&l.hits)
			bump(&l.covered)
			return state, nil
		}
	}
	return o.replay(p, root, view)
}

// replay extracts the nodes past the nearest floor the graph covers (line
// 82, restricted past the floor), sorts them (line 83: the topological sort
// of lingraph(G)) and replays them onto the floor's state.
func (o *Object) replay(p int, root *anchor, view []*node) (string, error) {
	state, ok := o.floor(p, root, view)
	if !ok {
		// Every reachable node covers the truncation root (the truncation
		// invariant; trivially so for the initial one): only a graph that is
		// not the construction's can get here.
		o.coverFails.Add(1)
		return "", fmt.Errorf("universal: precedence graph breaks the per-process chains or does not cover truncation root v%d", root.version)
	}
	l := &o.local[p]
	var err error
	for _, nd := range l.linearize(o.t) {
		state, _, err = o.sp.Apply(state, nd.pid, nd.invocation)
		if err != nil {
			err = fmt.Errorf("universal: replaying %s: %w", nd.invocation, err)
			break
		}
	}
	l.release()
	return state, err
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

// floor extracts view past process p's nearest usable floor and returns that
// floor's state, false when the graph covers none. The candidates (package
// doc) are, with the cache on, p's own nodes from view[p] down its chain —
// ending at the first that has dropped its state or lies at or below root, the
// truncation root this Execute loaded, whose view is never read: the collector
// may sever it — and then root itself. A node whose prefix is not at or above
// root is skipped, never extracted from and never an error: the root's state
// subsumes it. Extraction is the covering check: a candidate is refused when
// some extracted node does not cover it, and the next one down is tried —
// unless that node's view of p lies below it too. The refusing node is then
// extracted for every older candidate above its view of p and refuses each of
// them, so the walk steps past them without extracting.
func (o *Object) floor(p int, root *anchor, view []*node) (string, bool) {
	l := &o.local[p]
	refused := false
	if o.caching {
		l.at = grow(l.at, o.n)
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
			if !atOrAbove(l.at, root.prefix) {
				continue
			}
			_, refuser, ok := l.extract(l.at, view)
			if ok {
				if refused {
					bump(&l.misses)
				} else {
					bump(&l.hits)
				}
				return state, true
			}
			refused = true
			bump(&l.refused)
			if refuser != nil {
				below = top(refuser.preceding[p])
			}
		}
	}
	if refused {
		bump(&l.misses)
		bump(&l.rootReplays)
	}
	if _, _, ok := l.extract(root.prefix, view); !ok {
		return "", false
	}
	return root.state, true
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

// publish makes node e, reaching state against root version, the newest of
// process l's kept nodes — it evicts the oldest, whose state it drops —
// publishes a copy of its anchor when one is due (package doc), and runs the
// amortized collector every window operations.
func (o *Object) publish(l *plocal, e *node, state string, version int64) {
	slot := e.index % len(l.mine)
	if old := l.mine[slot]; old != nil {
		atomic.StorePointer(&old.state, nil)
	}
	l.mine[slot] = e

	g, period, collect := o.gc, publishEvery, false
	if g != nil {
		period = min(period, g.window)
		if l.ops++; l.ops >= g.window {
			l.ops = 0
			collect = true
		}
	}
	if rec := l.rec.Load(); collect || rec == o.zero || e.index-rec.prefix[e.pid] >= period {
		if len(l.pubs) == 0 {
			l.pubs = make([]anchor, publishEvery)
			l.pubPrefixes = make([]int, publishEvery*o.n)
		}
		c := &l.pubs[0]
		*c = anchor{prefix: l.pubPrefixes[:o.n:o.n], state: state, version: version}
		prefixOf(c.prefix, e)
		l.pubs, l.pubPrefixes = l.pubs[1:], l.pubPrefixes[o.n:]
		l.rec.Store(c)
	}
	if collect && g.mu.TryLock() {
		o.collect(e.preceding)
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

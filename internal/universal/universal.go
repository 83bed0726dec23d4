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
// After each operation, process p publishes an anchor: the per-process
// operation-index prefix {(q, i) : i <= prefix[q]} it just linearized (its
// scanned view plus its own node), the sequential state reached by replaying
// that prefix, and the version of the truncation root it executed against.
// The record is immutable, written once per operation by its owner into a
// single-writer register outside the simulated shared memory, and read by the
// owner's later operations (as a replay floor) and by collector passes (as a
// low watermark, and as a base whose state they may adopt). The truncation
// root is a record of the same type; the initial one — nothing linearized, the
// initial state, version 0 — exists from construction.
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
// place to start, and the nearest is merely the cheapest. The replay cache
// applies the lemma to the graph one scan reaches; truncation applies it to
// every graph any later scan can reach, which is precisely prefix
// preservation.
//
// # Replay cache
//
// Executed naively, steps 2-4 cost O(history). Process p instead starts from
// the nearest floor the scanned graph covers. The candidates are one list:
// p's own anchors newest to oldest — its latest and the anchorRing before it
// — and last the truncation root, which every reachable node covers (gc.go;
// without GC the root stays the empty prefix and that last candidate is the
// full extraction). From a candidate p extracts only the nodes beyond the
// prefix and replays them onto the anchored state, provided every extracted
// node covers the prefix — the lemma's condition on the graph p scanned, so
// node orders and responses are byte-identical to an uncached run (the
// differential tests check this). Normally the latest anchor is covered and
// the cost is O(Δ·n) for the Δ operations since p's previous one. A
// non-covering node (a genuinely concurrent straggler that might linearize
// inside the prefix) refuses the candidate, and the next one down is tried: a
// straggler that overlapped one of p's recent operations scanned after the
// operation before it, so it covers that operation's anchor and the miss costs
// the few operations since, not the live graph. Only a straggler older than
// every kept anchor sends p to the root (CacheStats.RootReplays). An anchor is
// a candidate only at or above the truncation root the operation loaded before
// its scan — the history under the root may already be trimmed, and the
// quiescence rule of gc.go counts on no floor lying lower. What the list
// retains is bounded: at most anchorRing records beyond the published one per
// process, their prefixes and state strings, and the (at most two) slabs they
// and it were carved from.
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

// anchor is the one record of the package doc: a linearized index prefix, the
// sequential state it replays to, and a truncation-root version. It is
// immutable once published. As a process's record, version is the root the
// operation executed against; as a truncation root, it numbers the roots.
type anchor struct {
	// prefix[q] is the highest operation index of process q in the prefix,
	// -1 for none.
	prefix  []int
	state   string
	version int64
}

// anchorSlab is the number of records a process allocates at a time: a record
// and its prefix are carved out of two slabs, so publishing costs an eighth
// of an allocation instead of two. A slab stays reachable as long as any
// record in it is the published one or kept behind it (anchorRing), and with
// it the states of the records carved before that one — at most the slab
// itself.
const anchorSlab = 16

// anchorRing is the number of records a process keeps from before its latest
// one, as lower replay floors for the operation a straggler makes miss. They
// and the latest are consecutive carvings, so they lie in at most two slabs:
// keeping them retains one slab of prefixes and state strings per process
// beyond the published record's own, whatever the history length.
const anchorRing = 8

// plocal is everything process p keeps between its operations: its operation
// count, its published anchor and the scratch its extractions and
// linearizations run in. It is written only by the goroutine driving that pid
// — rec is the single-writer register collector passes load, and the counters
// are atomic so CacheStats may read them concurrently — it is indexed by pid,
// and it is never pooled and never shared: exclusive pid ownership is the
// model's own invariant, so the rest needs no synchronising. The trailing pad
// keeps one process's entry off the cache lines of the next.
type plocal struct {
	// index counts the operations the process has executed; ops counts them
	// since its last collector pass.
	index, ops int
	// rec is the anchor of the process's latest operation, nil before its
	// first; earlier holds the anchors it replaced, newest first, for the
	// owner alone; recs and prefixes are what is left of the current slabs.
	rec      atomic.Pointer[anchor]
	earlier  [anchorRing]*anchor
	recs     []anchor
	prefixes []int
	// hits, misses and rootReplays count this process's cache outcomes.
	hits        atomic.Int64
	misses      atomic.Int64
	rootReplays atomic.Int64

	scratch
	_ [128]byte
}

// CacheStats counts replay-cache outcomes across all processes.
type CacheStats struct {
	// Hits counts operations that replayed only the delta beyond their
	// process's anchor.
	Hits int64
	// Misses counts operations that replayed from a lower floor — an earlier
	// anchor of their process or the truncation root — because some extracted
	// node did not cover the latest anchor.
	Misses int64
	// RootReplays counts the misses that ended at the truncation root: no
	// anchor the process still keeps was covered. Each costs a replay of every
	// live node, so a share of Misses that grows says stragglers lag further
	// behind than the kept anchors reach.
	RootReplays int64
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
	// trunc is the truncation root: the floor under every replay. Only a
	// collector pass advances it, so without GC it stays the initial record.
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
// Execute. Anchors are published either way, so a re-enabled cache resumes
// from each process's latest operation.
func (o *Object) SetCaching(on bool) { o.caching = on }

// CacheStats returns the replay-cache hit/miss counters, summed over all
// processes.
func (o *Object) CacheStats() CacheStats {
	var st CacheStats
	for p := range o.local {
		st.Hits += o.local[p].hits.Load()
		st.Misses += o.local[p].misses.Load()
		st.RootReplays += o.local[p].rootReplays.Load()
	}
	return st
}

// Execute performs the invocation as process p (Algorithm 5, execute):
// it computes the response the history demands, publishes the operation's
// node, and returns the response. It extracts, sorts, and replays only the
// nodes beyond the nearest floor the scanned graph covers — with the replay
// cache warm, process p's latest anchor — and no floor is ever below the
// truncation root, whose state stands in for the truncated prefix.
func (o *Object) Execute(p int, invoke string) (string, error) {
	root := o.trunc.Load()
	view := o.root.View(p) // line 81

	l := &o.local[p]
	from := o.floor(l, root, view) // line 82, restricted past the floor
	if from == nil {
		// Every reachable node covers the truncation root (the truncation
		// invariant; trivially so for the initial one): only a graph that is
		// not the construction's can get here.
		o.coverFails.Add(1)
		return "", fmt.Errorf("universal: precedence graph breaks the per-process chains or does not cover truncation root v%d", root.version)
	}

	// Line 83: topological sort of lingraph(G); lines 84-87: compute the
	// response valid after H. H is only the suffix past the floor's prefix,
	// replayed onto its state.
	state := from.state
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
	o.publish(l, view, e, next, root.version)
	return resp, nil
}

// floor extracts view past process l's nearest usable floor and returns that
// floor, nil when the graph covers none. The candidates are one list: with the
// cache on, l's own anchors newest to oldest — each usable only at or above
// root, the truncation root this Execute loaded: the root never passes a
// published record, so an anchor below it is not the protocol's, and it is
// skipped, never extracted from and never an error, because the root's state
// subsumes it — and then root itself. Extraction is the covering check: a
// candidate is refused when some extracted node does not cover it and may
// linearize inside its prefix, and the next one down is tried.
func (o *Object) floor(l *plocal, root *anchor, view []*node) *anchor {
	refused := false
	if o.caching {
		a := l.rec.Load()
		for i := 0; a != nil; i++ {
			if atOrAbove(a.prefix, root.prefix) {
				if _, ok := l.extract(a.prefix, view); ok {
					if refused {
						l.misses.Add(1)
					} else {
						l.hits.Add(1)
					}
					return a
				}
				refused = true
			}
			if i == anchorRing {
				break
			}
			a = l.earlier[i]
		}
	}
	if refused {
		l.misses.Add(1)
		l.rootReplays.Add(1)
	}
	if _, ok := l.extract(root.prefix, view); !ok {
		return nil
	}
	return root
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

// publish writes process l's anchor for the operation that just completed —
// node e over view, reaching state, executed against root version — carving
// the record out of the slabs, and runs the amortized collector every window
// operations.
func (o *Object) publish(l *plocal, view []*node, e *node, state string, version int64) {
	if len(l.recs) == 0 {
		l.recs = make([]anchor, anchorSlab)
		l.prefixes = make([]int, anchorSlab*o.n)
	}
	a := &l.recs[0]
	a.prefix, a.state, a.version = l.prefixes[:o.n:o.n], state, version
	l.recs, l.prefixes = l.recs[1:], l.prefixes[o.n:]
	for q, nd := range view {
		a.prefix[q] = top(nd)
	}
	a.prefix[e.pid] = e.index
	copy(l.earlier[1:], l.earlier[:])
	l.earlier[0] = l.rec.Load()
	l.rec.Store(a)

	if g := o.gc; g != nil {
		if l.ops++; l.ops >= g.window {
			l.ops = 0
			if g.mu.TryLock() {
				o.collect(view)
				g.mu.Unlock()
			}
		}
	}
}

// HistorySize returns the number of operations currently reachable in the
// shared precedence graph, as observed by process p (for growth
// measurements; one root scan). With GC enabled it reports the live nodes
// past the truncation root — the truncated prefix survives only as the
// root's state.
func (o *Object) HistorySize(p int) int {
	live, _ := o.liveNodes(p)
	return live
}

// liveNodes counts the operations past the truncation root (all of them
// without GC) as process p, from one root scan, with the root it counted
// against. An extraction the graph refuses still yields the count, and is
// surfaced through the coverage-failure counter rather than under-reported.
func (o *Object) liveNodes(p int) (int, *anchor) {
	root := o.trunc.Load()
	view := o.root.View(p)
	l := &o.local[p]
	live, ok := l.extract(root.prefix, view)
	if !ok {
		o.coverFails.Add(1)
	}
	l.release()
	return live, root
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

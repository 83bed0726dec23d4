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
// After each operation, process p records an anchor: the per-process
// operation-index prefix {(q, i) : i <= prefix[q]} it just linearized (its
// scanned view plus its own node), the sequential state reached by replaying
// that prefix, and the version of the truncation root it executed against.
// The owner keeps its anchors to itself, rewritten in place, as the replay
// floors of its later operations. It publishes an immutable copy of one into a
// single-writer register outside the simulated shared memory — on its first
// operation, on every operation that runs a collector pass, and never more
// than min(Window, publishEvery) operations apart — and collector passes read
// that copy, as a low watermark and as a base whose state they may adopt. The
// truncation root is a record of the same type; the initial one — nothing
// linearized, the initial state, version 0 — exists from construction.
//
// A published record may be up to publishEvery-1 operations older than its
// process's latest, and that is sound: every rule that reads another process's
// record — the freshness gate, the pointwise-minimum cut, base adoption and
// the trim's quiescence test (gc.go) — needs only some record that process
// once published, never its latest. An older record is a lower prefix and an
// older root version, so the cut it yields is lower and the trim it allows
// later: more conservative, never wrong.
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
// p's own private anchors newest to oldest — its latest and the anchorRing
// before it — and last the truncation root, which every reachable node covers
// (gc.go; without GC the root stays the empty prefix and that last candidate
// is the full extraction). From a candidate p extracts only the nodes beyond
// the prefix and replays them onto the anchored state, provided every extracted
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
// retains is bounded: a fixed ring of anchorRing+1 records per process, their
// prefix buffers allocated once and rewritten in place, and their state
// strings — plus the (at most two) blocks its published copies are carved
// from (publishEvery).
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
	pid        int
	index      int     // per-process operation index: (pid,index) is unique
	preceding  []*node // view[i] at this operation's scan; nil = ⊥
}

// anchor is the one record of the package doc: a linearized index prefix, the
// sequential state it replays to, and a truncation-root version. A published
// record and a truncation root are immutable; a process's private anchors are
// rewritten in place. As a process's record, version is the root the
// operation executed against; as a truncation root, it numbers the roots.
type anchor struct {
	// prefix[q] is the highest operation index of process q in the prefix,
	// -1 for none.
	prefix  []int
	state   string
	version int64
}

// anchorRing is the number of anchors a process keeps from before its latest
// one, as lower replay floors for the operation a straggler makes miss.
const anchorRing = 8

// publishEvery bounds the operations between two publications of a process's
// record when the collector's window is longer: a publication is the only
// memory an anchor costs, and only a collector pass, once a window, reads the
// record. Published copies are carved publishEvery at a time out of one block
// of records and one of prefixes, so even at a window of one, where every
// operation publishes, a copy costs an eighth of an allocation. A block stays
// reachable while the published record or the collector's last reading of it
// lies in it: at most two per process, with their records' state strings.
const publishEvery = 16

// plocal is everything process p keeps between its operations: its operation
// count, its anchors, its published record and the scratch its extractions
// and linearizations run in. It is written only by the goroutine driving that
// pid — rec is the single-writer register collector passes load, and the
// counters are atomic so CacheStats may read them concurrently — it is
// indexed by pid, and it is never pooled and never shared: exclusive pid
// ownership is the model's own invariant, so the rest needs no synchronising.
// The trailing pad keeps one process's entry off the cache lines of the next.
type plocal struct {
	// index counts the operations the process has executed; ops counts them
	// since its last collector pass.
	index, ops int
	// ring holds the owner's latest anchor, in slot head, and the anchorRing
	// before it; kept counts the slots filled. The slots' prefixes share one
	// buffer, allocated on the first operation and rewritten in place.
	ring       [anchorRing + 1]anchor
	head, kept int
	// rec is the published copy of one of the ring's anchors, nil before the
	// first operation; unpublished counts the operations since it. pubs and
	// pubPrefixes are what is left of the blocks copies are carved from.
	rec         atomic.Pointer[anchor]
	unpublished int
	pubs        []anchor
	pubPrefixes []int
	// hits, misses and rootReplays count this process's cache outcomes.
	hits        atomic.Int64
	misses      atomic.Int64
	rootReplays atomic.Int64

	scratch
	_ [128]byte
}

// own returns the process's i-th newest anchor, 0 the latest, for i < kept.
func (l *plocal) own(i int) *anchor {
	return &l.ring[(l.head-i+len(l.ring))%len(l.ring)]
}

// bump adds one to a counter only this process writes.
func bump(c *atomic.Int64) { c.Store(c.Load() + 1) }

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
// Execute. Anchors are recorded either way, so a re-enabled cache resumes
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
		pid:        p,
		index:      l.index,
		preceding:  view, // lines 88-90 (a stored view is immutable: see Object.root)
	}
	l.index++
	o.root.Update(p, e) // line 91
	o.publish(l, view, e, next, root.version)
	return resp, nil
}

// floor extracts view past process l's nearest usable floor and returns that
// floor, nil when the graph covers none. The candidates are one list: with the
// cache on, l's own anchors newest to oldest — each usable only at or above
// root, the truncation root this Execute loaded: the root never passes l's
// published record, but an anchor older than that record may lie below it,
// over history that may be trimmed, so it is skipped, never extracted from
// and never an error, because the root's state subsumes it — and then root
// itself. Extraction is the covering check: a candidate is refused when some
// extracted node does not cover it and may linearize inside its prefix, and
// the next one down is tried.
func (o *Object) floor(l *plocal, root *anchor, view []*node) *anchor {
	refused := false
	if o.caching {
		for i := range l.kept {
			a := l.own(i)
			if !atOrAbove(a.prefix, root.prefix) {
				continue
			}
			if _, ok := l.extract(a.prefix, view); ok {
				if refused {
					bump(&l.misses)
				} else {
					bump(&l.hits)
				}
				return a
			}
			refused = true
		}
	}
	if refused {
		bump(&l.misses)
		bump(&l.rootReplays)
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

// publish records process l's anchor for the operation that just completed —
// node e over view, reaching state, executed against root version — in the
// oldest slot of its ring, publishes a copy when one is due (package doc),
// and runs the amortized collector every window operations.
func (o *Object) publish(l *plocal, view []*node, e *node, state string, version int64) {
	if l.kept == 0 {
		buf := make([]int, len(l.ring)*o.n)
		for i := range l.ring {
			l.ring[i].prefix = buf[i*o.n : (i+1)*o.n : (i+1)*o.n]
		}
	}
	l.head = (l.head + 1) % len(l.ring)
	l.kept = min(l.kept+1, len(l.ring))
	a := &l.ring[l.head]
	for q, nd := range view {
		a.prefix[q] = top(nd)
	}
	a.prefix[e.pid] = e.index
	a.state, a.version = state, version

	g, period, collect := o.gc, publishEvery, false
	if g != nil {
		period = min(period, g.window)
		if l.ops++; l.ops >= g.window {
			l.ops = 0
			collect = true
		}
	}
	if l.unpublished++; l.unpublished >= period || collect || l.rec.Load() == nil {
		if len(l.pubs) == 0 {
			l.pubs = make([]anchor, publishEvery)
			l.pubPrefixes = make([]int, publishEvery*o.n)
		}
		c := &l.pubs[0]
		*c = anchor{prefix: l.pubPrefixes[:o.n:o.n], state: a.state, version: a.version}
		copy(c.prefix, a.prefix)
		l.pubs, l.pubPrefixes = l.pubs[1:], l.pubPrefixes[o.n:]
		l.unpublished = 0
		l.rec.Store(c)
	}
	if collect && g.mu.TryLock() {
		o.collect(view)
		g.mu.Unlock()
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

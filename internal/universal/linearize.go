// linearize.go is the local half of Execute and of the collector: Algorithm
// 6's extraction and Algorithm 5's lingraph between its two topological
// sorts. None of it takes a shared step, so what it costs is decided here and
// not by the paper — and it is kept linear in the nodes it touches:
//
//   - Extraction past an index-closed floor walks the n per-process chains
//     view[q] → preceding[q] → … down to floor[q]+1. That is the whole
//     reachable set: a process's own component of its scan is its previous
//     node, and scans of one component are monotone, so nothing reachable
//     from the view lies above it. The walk is checked (pid, own index
//     falling by exactly one, every view between the floor and the scanned
//     view), so a graph that breaks those rules is refused, not shortened.
//   - A node's id is its canonical (pid, index) position in the extraction;
//     successor lists, in-degrees and the ready set are slices over ids, and
//     the smallest ready id is the canonical-smallest ready node.
//   - Dominance (Definition 34) is a function of the invocation description
//     and the process id, so one call asks the type once about each pair of
//     the classes (pid, invocation) its nodes fall into, and keeps nothing
//     for the next; the pair loop of lingraph visits only pairs whose classes
//     dominate one way, in the algorithm's (i, j) order. A pair that
//     precedence already orders adds nothing to the order either way round —
//     the dominated-after-dominating edge is refused because it closes a
//     cycle, the other is implied — and "u precedes v" is one comparison,
//     v's view of u's process against u. Only a concurrent pair searches the
//     graph. When no two classes present dominate, L = G and the first
//     topological order is the answer.
//
// The topological sort takes the smallest ready node first, so its output is
// a function of the order relation alone, not of which implied edges are
// spelled out; that is why the result is node for node the one the pairwise
// map-based reference (reference_test.go) computes.
package universal

import (
	"math/bits"
	"slices"
)

// classKey is what Type.Overwrites may depend on.
type classKey struct {
	pid int
	inv string
}

// scratch is the working memory of one extraction and linearization. Each
// process owns one, which its operations and the collector passes it runs
// share; every slice is reused from call to call, so the steady state
// allocates nothing.
type scratch struct {
	n int

	// Filled by extract.
	nodes []*node // the delta in canonical (pid, index) order; a node's id is its position
	npid  []int32 // npid[id] = nodes[id].pid
	base  []int32 // ids base[q] .. base[q+1]-1 are process q's chain, by ascending index
	// prel[id*n+q] is the index of nodes[id].preceding[q] relative to the
	// floor: 0 is at the floor (or ⊥ over no floor), r > 0 is node base[q]+r-1.
	prel []int32

	// The precedence graph G in compressed rows, and the sorts over it.
	indeg  []int32
	succAt []int32
	succ   []int32
	fill   []int32
	deg    []int32
	ready  []int32 // descending, so the smallest id pops off the end
	order  []int32
	out    []*node

	// Dominance: the classes of the call's nodes, which release forgets, and
	// per class two bit rows over positions in the first topological order —
	// the nodes it dominates, the nodes dominating it.
	ncls    []int32 // per node: its class's index in present
	present []classKey
	clsAt   []int32 // positions of the nodes of present[l]: clsPos[clsAt[l]:clsAt[l+1]]
	clsPos  []int32
	rowOf   []int32 // per present class: offset of its two rows in rows, -1 for none
	rows    []uint64
	words   int // length of one row

	// Dominance edges (few: only concurrent pairs get one) as per-node lists.
	dhead, dnext, dto []int32
	din               []int32
	seen              []uint32 // reaches: seen[v] == stamp marks v visited
	stamp             uint32
	stack             []int32
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// extract is Algorithm 6 restricted past floor (all -1 extracts everything):
// it lays out, in canonical order, the nodes reachable from view whose
// operations are not in the prefix {(q, i) : i <= floor[q]}. ok is false when
// some extracted node does not cover the floor — it may linearize inside the
// prefix, so the caller must start from a lower floor; the lowest such node
// of its chain is returned as refuser — or when the graph is not the chains
// the construction builds.
// live is the number of operations past the floor either way; on failure
// nothing else is left behind.
func (s *scratch) extract(floor []int, view []*node) (live int, refuser *node, ok bool) {
	n := s.n
	s.base = grow(s.base, n+1)
	for q, nd := range view {
		s.base[q] = int32(live)
		if nd != nil && nd.index > floor[q] {
			live += nd.index - floor[q]
		}
	}
	s.base[n] = int32(live)
	s.nodes = grow(s.nodes, live)
	s.npid = grow(s.npid, live)
	s.prel = grow(s.prel, live*n)
	if refuser, ok = s.walk(floor, view); !ok {
		s.release()
	}
	return live, refuser, ok
}

// walk fills in the layout extract sized, one chain at a time from the view
// down, and reports whether every node passed the checks, and if not, a node
// whose view misses part of the floor, nil for a broken chain. The node it
// reports is the refusing chain's lowest extracted one: views only fall down a
// chain, so that node refuses too, and its view of every process is the
// chain's lowest — the furthest a floor's walk may skip.
func (s *scratch) walk(floor []int, view []*node) (*node, bool) {
	n := s.n
	for q, nd := range view {
		lo := int(s.base[q])
		refused := false
		for id := int(s.base[q+1]) - 1; id >= lo; id-- {
			if nd == nil || nd.pid != q || len(nd.preceding) != n {
				return nil, false
			}
			s.nodes[id], s.npid[id] = nd, int32(q)
			row := s.prel[id*n : (id+1)*n]
			for r, prev := range nd.preceding {
				rel := -1 - floor[r]
				if prev != nil {
					rel = prev.index - floor[r]
				}
				// Below 0 the view misses part of the prefix; above the
				// chain's length it is ahead of the scan it is reachable from.
				if rel > int(s.base[r+1]-s.base[r]) {
					return nil, false
				}
				refused = refused || rel < 0
				row[r] = int32(rel)
			}
			if int(row[q]) != id-lo { // own component: the previous own node
				return nil, false
			}
			nd = nd.preceding[q]
		}
		if refused {
			return s.nodes[lo], false
		}
	}
	return nil, true
}

// release drops the node pointers and the invocation strings of the classes
// so an idle scratch pins no history.
func (s *scratch) release() {
	clear(s.nodes)
	clear(s.out)
	clear(s.present)
	s.nodes, s.out, s.present = s.nodes[:0], s.out[:0], s.present[:0]
	if cap(s.rows) > 1<<16 { // the one buffer that can be quadratic in the delta
		s.rows = nil
	}
}

// linearize returns the extracted nodes in the order of Algorithm 5, line 83:
// the topological sort of lingraph(G). The result is valid until release.
func (s *scratch) linearize(t Type) []*node {
	switch len(s.nodes) {
	case 0:
		return nil
	case 1:
		s.out = append(s.out[:0], s.nodes[0])
		return s.out
	}
	s.buildGraph()
	s.sort(false) // line 68
	if s.addDominance(t) {
		s.sort(true) // line 83
	}
	s.out = grow(s.out, len(s.order))
	for i, v := range s.order {
		s.out[i] = s.nodes[v]
	}
	return s.out
}

// buildGraph lays out G's edges (lines 117-118) — from each view entry past
// the floor to the node holding the view — as successor rows and in-degrees.
func (s *scratch) buildGraph() {
	k, n := len(s.nodes), s.n
	s.indeg = grow(s.indeg, k)
	s.succAt = grow(s.succAt, k+1)
	clear(s.succAt)
	edges := int32(0)
	for v := 0; v < k; v++ {
		d := int32(0)
		for q, r := range s.prel[v*n : (v+1)*n] {
			if r > 0 {
				s.succAt[s.base[q]+r]++ // out-degree of base[q]+r-1, one slot up for the running sum
				d++
			}
		}
		s.indeg[v] = d
		edges += d
	}
	for u := 0; u < k; u++ {
		s.succAt[u+1] += s.succAt[u]
	}
	s.succ = grow(s.succ, int(edges))
	s.fill = grow(s.fill, k)
	copy(s.fill, s.succAt)
	for v := 0; v < k; v++ {
		for q, r := range s.prel[v*n : (v+1)*n] {
			if r > 0 {
				u := s.base[q] + r - 1
				s.succ[s.fill[u]] = int32(v)
				s.fill[u]++
			}
		}
	}
}

// sort leaves in order the deterministic minimal topological order of G, or
// of G plus the dominance edges: among ready nodes the smallest id — the
// canonical-smallest (pid, index) — goes first.
func (s *scratch) sort(dominance bool) {
	k := len(s.nodes)
	s.deg = grow(s.deg, k)
	copy(s.deg, s.indeg)
	if dominance {
		for v, d := range s.din[:k] {
			s.deg[v] += d
		}
	}
	ready := s.ready[:0]
	for v := k - 1; v >= 0; v-- {
		if s.deg[v] == 0 {
			ready = append(ready, int32(v))
		}
	}
	order := s.order[:0]
	for len(ready) > 0 {
		u := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		order = append(order, u)
		for _, v := range s.succ[s.succAt[u]:s.succAt[u+1]] {
			if s.deg[v]--; s.deg[v] == 0 {
				ready = insertDescending(ready, v)
			}
		}
		if !dominance {
			continue
		}
		for e := s.dhead[u]; e >= 0; e = s.dnext[e] {
			v := s.dto[e]
			if s.deg[v]--; s.deg[v] == 0 {
				ready = insertDescending(ready, v)
			}
		}
	}
	s.ready, s.order = ready, order
}

// insertDescending keeps ready sorted. It holds at most one node per process
// (a process's nodes are a chain), so the shift is over at most n entries.
func insertDescending(ready []int32, v int32) []int32 {
	ready = append(ready, v)
	for i := len(ready) - 1; i > 0 && ready[i-1] < ready[i]; i-- {
		ready[i-1], ready[i] = ready[i], ready[i-1]
	}
	return ready
}

// precedes reports whether u precedes v in G (u != v): v's view of u's
// process is at or past u.
func (s *scratch) precedes(u, v int32) bool {
	q := s.npid[u]
	r := s.prel[int(v)*s.n+int(q)]
	return r > 0 && s.base[q]+r-1 >= u
}

// addDominance is lingraph's pair loop (lines 70-79) over s.order, the first
// topological order: it adds the dominance edges and reports whether there
// are any.
func (s *scratch) addDominance(t Type) bool {
	k := len(s.nodes)

	// Class of every node. A process's nodes are contiguous, and runs of one
	// invocation are the common case, so present is searched once per run.
	s.ncls = grow(s.ncls, k)
	present := s.present[:0]
	prev, l := classKey{pid: -1}, int32(0)
	for v, nd := range s.nodes {
		if key := (classKey{nd.pid, nd.invocation}); key != prev {
			l = int32(slices.Index(present, key))
			if l < 0 {
				l = int32(len(present))
				present = append(present, key)
			}
			prev = key
		}
		s.ncls[v] = l
	}
	s.present = present

	// Per class pair that dominates one way, mark in each class's rows where
	// the other's nodes stand. Everything past the class numbering is set up
	// only once such a pair turns up.
	related := false
	for la := 1; la < len(present); la++ {
		a := present[la]
		for lb := 0; lb < la; lb++ {
			b := present[lb]
			ab := t.Overwrites(a.inv, a.pid, b.inv, b.pid)
			ba := t.Overwrites(b.inv, b.pid, a.inv, a.pid)
			aDom, bDom := dominates(ab, ba, a.pid, b.pid), dominates(ba, ab, b.pid, a.pid)
			if !aDom && !bDom {
				continue
			}
			if !related {
				related = true
				s.startDominance()
			}
			if aDom {
				s.mark(int32(la), int32(lb))
			} else {
				s.mark(int32(lb), int32(la))
			}
		}
	}
	if !related {
		return false
	}

	words := s.words
	edges := 0
	for i, u := range s.order {
		off := s.rowOf[s.ncls[u]]
		if off < 0 {
			continue
		}
		dominated := s.rows[off : int(off)+words]
		dominating := s.rows[int(off)+words : int(off)+2*words]
		for w := i >> 6; w < words; w++ {
			both := dominated[w] | dominating[w]
			if w == i>>6 {
				both &^= 1<<(uint(i&63)+1) - 1 // only j > i
			}
			for ; both != 0; both &= both - 1 {
				b := bits.TrailingZeros64(both)
				v := s.order[w<<6|b]
				if s.precedes(u, v) {
					continue
				}
				// Edge from the dominated to the dominating node, unless the
				// dominating one already comes first (lines 72 and 76).
				hi, lo := v, u
				if dominated[w]&(1<<b) != 0 {
					hi, lo = u, v
				}
				if !s.reaches(hi, lo) {
					s.dnext = append(s.dnext, s.dhead[lo])
					s.dto = append(s.dto, hi)
					s.dhead[lo] = int32(edges)
					s.din[hi]++
					edges++
				}
			}
		}
	}
	return edges > 0
}

// startDominance sets up what the pair loop needs: where each class's nodes
// stand in the first topological order, empty rows and empty edge lists.
func (s *scratch) startDominance() {
	k, classes := len(s.nodes), len(s.present)
	s.clsAt = grow(s.clsAt, classes+1)
	clear(s.clsAt)
	for _, l := range s.ncls[:k] {
		s.clsAt[l+1]++
	}
	for l := 0; l < classes; l++ {
		s.clsAt[l+1] += s.clsAt[l]
	}
	s.clsPos = grow(s.clsPos, k)
	s.fill = grow(s.fill, classes)
	copy(s.fill, s.clsAt)
	for j, v := range s.order {
		l := s.ncls[v]
		s.clsPos[s.fill[l]] = int32(j)
		s.fill[l]++
	}
	s.rowOf = grow(s.rowOf, classes)
	for l := range s.rowOf {
		s.rowOf[l] = -1
	}
	s.rows, s.words = s.rows[:0], (k+63)/64

	s.dhead = grow(s.dhead, k)
	for v := range s.dhead {
		s.dhead[v] = -1
	}
	s.dnext, s.dto = s.dnext[:0], s.dto[:0]
	s.din = grow(s.din, k)
	clear(s.din)
	s.seen = grow(s.seen, k)
	clear(s.seen)
	s.stamp = 0
}

// row returns the offset of present class l's two rows, adding them if new.
func (s *scratch) row(l int32) int {
	if s.rowOf[l] < 0 {
		s.rowOf[l] = int32(len(s.rows))
		s.rows = append(s.rows, make([]uint64, 2*s.words)...)
	}
	return int(s.rowOf[l])
}

// mark records that present class a dominates present class b.
func (s *scratch) mark(a, b int32) {
	ra, rb := s.row(a), s.row(b)+s.words
	for _, j := range s.clsPos[s.clsAt[b]:s.clsAt[b+1]] {
		s.rows[ra+int(j>>6)] |= 1 << (j & 63)
	}
	for _, j := range s.clsPos[s.clsAt[a]:s.clsAt[a+1]] {
		s.rows[rb+int(j>>6)] |= 1 << (j & 63)
	}
}

// reaches reports whether to is reachable from from in L as built so far: a
// depth-first search over precedence and dominance edges, cut short wherever
// precedence alone already answers.
func (s *scratch) reaches(from, to int32) bool {
	s.stamp++
	s.seen[from] = s.stamp
	stack := append(s.stack[:0], from)
	found := false
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if u == to || s.precedes(u, to) {
			found = true
			break
		}
		for _, v := range s.succ[s.succAt[u]:s.succAt[u+1]] {
			if s.seen[v] != s.stamp {
				s.seen[v] = s.stamp
				stack = append(stack, v)
			}
		}
		for e := s.dhead[u]; e >= 0; e = s.dnext[e] {
			if v := s.dto[e]; s.seen[v] != s.stamp {
				s.seen[v] = s.stamp
				stack = append(stack, v)
			}
		}
	}
	s.stack = stack[:0]
	return found
}

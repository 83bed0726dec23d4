package universal

import "sort"

// This file keeps the map-based, pairwise implementation of Algorithms 5 and
// 6 that Execute and the collector ran before linearize.go replaced it. It is
// the reference the differential and fuzz tests compare the integer-indexed
// implementation against, node for node; nothing outside tests reaches it.

func (nd *node) less(other *node) bool {
	if nd.pid != other.pid {
		return nd.pid < other.pid
	}
	return nd.index < other.index
}

// graph is a precedence/linearization graph over operation nodes.
// Successors are kept in deterministic order so every process derives the
// same topological sorts from the same view.
type graph struct {
	nodes []*node           // canonical order: (pid, index)
	succ  map[*node][]*node // u -> nodes that must come after u
	edges map[[2]*node]bool // membership for dedup and reachability
}

func newGraph(nodes []*node) *graph {
	return &graph{
		nodes: nodes,
		succ:  make(map[*node][]*node, len(nodes)),
		edges: make(map[[2]*node]bool),
	}
}

func (g *graph) addEdge(u, v *node) {
	key := [2]*node{u, v}
	if g.edges[key] {
		return
	}
	g.edges[key] = true
	g.succ[u] = append(g.succ[u], v)
}

// reaches reports whether v is reachable from u by a path of length >= 1.
func (g *graph) reaches(u, v *node) bool {
	seen := make(map[*node]bool, len(g.nodes))
	stack := append([]*node(nil), g.succ[u]...)
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur == v {
			return true
		}
		if seen[cur] {
			continue
		}
		seen[cur] = true
		stack = append(stack, g.succ[cur]...)
	}
	return false
}

// topoSort returns the deterministic minimal topological order: among ready
// nodes, the canonical-smallest (pid, index) goes first.
func (g *graph) topoSort() []*node {
	indeg := make(map[*node]int, len(g.nodes))
	for _, u := range g.nodes {
		for _, v := range g.succ[u] {
			indeg[v]++
		}
	}
	// ready is kept sorted; nodes start in canonical order.
	var ready []*node
	for _, u := range g.nodes {
		if indeg[u] == 0 {
			ready = append(ready, u)
		}
	}
	out := make([]*node, 0, len(g.nodes))
	for len(ready) > 0 {
		u := ready[0]
		ready = ready[1:]
		out = append(out, u)
		changed := false
		for _, v := range g.succ[u] {
			indeg[v]--
			if indeg[v] == 0 {
				ready = append(ready, v)
				changed = true
			}
		}
		if changed {
			sort.Slice(ready, func(i, j int) bool { return ready[i].less(ready[j]) })
		}
	}
	return out
}

// deltaNodes implements Algorithm 6 restricted past an anchor: extract, in
// canonical order, the nodes reachable from a root view whose operations are
// not already in the anchored prefix (a nil anchor extracts everything —
// the original algorithm). It reports ok=false when some extracted node does
// not cover the anchor. On failure the nodes extracted so far are still
// returned (unsorted).
func deltaNodes(anchor []int, view []*node) (nodes []*node, ok bool) {
	visited := make(map[*node]bool)
	var queue []*node
	push := func(nd *node) {
		if nd != nil && !visited[nd] && !anchored(anchor, nd) {
			visited[nd] = true
			queue = append(queue, nd)
		}
	}
	for _, nd := range view { // lines 108-114
		push(nd)
	}
	for len(queue) > 0 { // lines 115-124
		nd := queue[0]
		queue = queue[1:]
		nodes = append(nodes, nd)
		if anchor != nil && !covers(nd.preceding, anchor) {
			return nodes, false
		}
		for _, prev := range nd.preceding {
			push(prev)
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].less(nodes[j]) })
	return nodes, true
}

// deltaGraph builds the precedence graph over extracted nodes (lines
// 117-118), keeping only edges between nodes past the anchor.
func deltaGraph(anchor []int, nodes []*node) *graph {
	g := newGraph(nodes)
	for _, nd := range nodes {
		for _, prev := range nd.preceding {
			if prev != nil && !anchored(anchor, prev) {
				g.addEdge(prev, nd)
			}
		}
	}
	return g
}

// precgraph implements Algorithm 6: extract the precedence graph reachable
// from a root view by following preceding pointers.
func precgraph(view []*node) *graph {
	nodes, _ := deltaNodes(nil, view)
	return deltaGraph(nil, nodes)
}

// refLinearize implements Algorithm 5's lingraph (lines 68-80) followed by
// the final topological sort (line 83), asking the type about every pair.
func refLinearize(t Type, g *graph) []*node {
	ordered := g.topoSort() // line 68

	l := newGraph(g.nodes) // line 69: L <- G
	for _, u := range g.nodes {
		for _, v := range g.succ[u] {
			l.addEdge(u, v)
		}
	}

	for i := 0; i < len(ordered); i++ { // lines 70-79
		for j := i + 1; j < len(ordered); j++ {
			oi, oj := ordered[i], ordered[j]
			if Dominates(t, oi.invocation, oi.pid, oj.invocation, oj.pid) {
				// oi dominates oj: edge from dominated oj to dominating oi.
				if !l.edges[[2]*node{oj, oi}] && !l.reaches(oi, oj) {
					l.addEdge(oj, oi)
				}
			} else if Dominates(t, oj.invocation, oj.pid, oi.invocation, oi.pid) {
				if !l.edges[[2]*node{oi, oj}] && !l.reaches(oj, oi) {
					l.addEdge(oi, oj)
				}
			}
		}
	}
	return l.topoSort() // line 83
}

// Package verify provides an independent minimum-spanning-forest verifier:
// given the input graph and a claimed MSF, it checks the three defining
// properties without running any MST algorithm —
//
//  1. forest: the claimed edges are input edges and contain no cycle,
//  2. spanning: they connect exactly the input's connected components,
//  3. cycle property: no non-forest edge is lighter than the heaviest
//     forest edge on the path between its endpoints (with the unique
//     weight order this certifies minimality, not just 2-optimality).
//
// Property 3 uses binary-lifting LCA with path-maximum edges, O(m log n)
// overall — the classic King-style verification bound is near-linear, but
// log-factor verification is plenty at simulator scales. The verifier backs
// the test suites, giving every algorithm in the repository an oracle that
// shares no code with any of them (cmd/mstverify cross-checks against the
// Kruskal job instead, through bench.Verify).
package verify

import (
	"fmt"

	"kamsta/internal/graph"
	"kamsta/internal/unionfind"
)

// MSF checks that claimed is the minimum spanning forest of the undirected
// input edge list (one copy per logical edge; directed symmetric lists
// should be reduced with seqmst.UndirectedFromDirected first). It returns
// "" when the claim is a valid unique MSF, or a diagnostic string.
func MSF(input, claimed []graph.Edge) string {
	// Index input edges by weight class; the claimed forest must be a
	// sub-multiset.
	inSet := map[uint64]graph.Edge{}
	for _, e := range input {
		if prev, dup := inSet[e.TB]; dup && graph.LessWeight(e, prev) {
			inSet[e.TB] = e // keep the lightest parallel copy for reference
		} else if !dup {
			inSet[e.TB] = e
		}
	}
	for _, e := range claimed {
		if _, ok := inSet[e.TB]; !ok {
			return fmt.Sprintf("claimed edge %v is not an input edge", e)
		}
	}

	// Dense-remap the touched vertices.
	ids := map[graph.VID]int32{}
	touch := func(v graph.VID) int32 {
		if i, ok := ids[v]; ok {
			return i
		}
		i := int32(len(ids))
		ids[v] = i
		return i
	}
	for _, e := range input {
		touch(e.U)
		touch(e.V)
	}
	n := len(ids)

	// 1. Forest.
	uf := unionfind.New(n)
	for _, e := range claimed {
		if e.U == e.V {
			return fmt.Sprintf("claimed edge %v is a self-loop", e)
		}
		if !uf.Union(int(ids[e.U]), int(ids[e.V])) {
			return fmt.Sprintf("claimed edge %v closes a cycle", e)
		}
	}

	// 2. Spanning: input components == claimed components.
	full := unionfind.New(n)
	for _, e := range input {
		full.Union(int(ids[e.U]), int(ids[e.V]))
	}
	if full.Count() != uf.Count() {
		return fmt.Sprintf("claimed forest has %d components, input has %d", uf.Count(), full.Count())
	}
	for _, e := range input {
		if !uf.Same(int(ids[e.U]), int(ids[e.V])) {
			return fmt.Sprintf("input edge %v spans two claimed components", e)
		}
	}

	// 3. Cycle property via path maxima on the claimed forest.
	pm := newPathMax(n, claimed, ids)
	for _, e := range input {
		if e.U == e.V {
			continue
		}
		if _, isTree := pm.treeTB[e.TB]; isTree {
			continue
		}
		heaviest, ok := pm.maxOnPath(ids[e.U], ids[e.V])
		if !ok {
			return fmt.Sprintf("internal: no tree path for %v", e)
		}
		// Under the unique weight order, a strictly lighter non-tree edge
		// disproves minimality.
		if graph.LessWeight(e, heaviest) {
			return fmt.Sprintf("non-tree edge %v is lighter than tree edge %v on its cycle", e, heaviest)
		}
	}
	return ""
}

// pathMax answers maximum-weight-edge queries on forest paths with binary
// lifting.
type pathMax struct {
	up     [][]int32      // up[k][v]: 2^k-th ancestor
	mx     [][]graph.Edge // mx[k][v]: heaviest edge on that ancestor path
	depth  []int32
	comp   []int32
	treeTB map[uint64]struct{}
	levels int
}

func newPathMax(n int, tree []graph.Edge, ids map[graph.VID]int32) *pathMax {
	adj := make([][]struct {
		to int32
		e  graph.Edge
	}, n)
	treeTB := make(map[uint64]struct{}, len(tree))
	for _, e := range tree {
		u, v := ids[e.U], ids[e.V]
		adj[u] = append(adj[u], struct {
			to int32
			e  graph.Edge
		}{v, e})
		adj[v] = append(adj[v], struct {
			to int32
			e  graph.Edge
		}{u, e})
		treeTB[e.TB] = struct{}{}
	}
	levels := 1
	for v := 1; v < n; v <<= 1 {
		levels++
	}
	pm := &pathMax{
		depth:  make([]int32, n),
		comp:   make([]int32, n),
		treeTB: treeTB,
		levels: levels,
	}
	parent := make([]int32, n)
	parentEdge := make([]graph.Edge, n)
	for i := range pm.comp {
		pm.comp[i] = -1
	}
	// Iterative BFS per component.
	queue := make([]int32, 0, n)
	for root := 0; root < n; root++ {
		if pm.comp[root] >= 0 {
			continue
		}
		pm.comp[root] = int32(root)
		parent[root] = int32(root)
		queue = append(queue[:0], int32(root))
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, a := range adj[v] {
				if pm.comp[a.to] >= 0 {
					continue
				}
				pm.comp[a.to] = int32(root)
				pm.depth[a.to] = pm.depth[v] + 1
				parent[a.to] = v
				parentEdge[a.to] = a.e
				queue = append(queue, a.to)
			}
		}
	}
	pm.up = make([][]int32, levels)
	pm.mx = make([][]graph.Edge, levels)
	pm.up[0] = parent
	pm.mx[0] = parentEdge
	for k := 1; k < levels; k++ {
		pm.up[k] = make([]int32, n)
		pm.mx[k] = make([]graph.Edge, n)
		for v := 0; v < n; v++ {
			mid := pm.up[k-1][v]
			pm.up[k][v] = pm.up[k-1][mid]
			// Entries are only queried when the full 2^k ancestor path
			// exists, in which case both halves are valid; zero-value
			// edges from truncated paths near a root never win a max.
			a, b := pm.mx[k-1][v], pm.mx[k-1][mid]
			if graph.LessWeight(a, b) {
				pm.mx[k][v] = b
			} else {
				pm.mx[k][v] = a
			}
		}
	}
	return pm
}

// maxOnPath returns the heaviest tree edge on the u–v forest path.
func (pm *pathMax) maxOnPath(u, v int32) (graph.Edge, bool) {
	if pm.comp[u] != pm.comp[v] || u == v {
		return graph.Edge{}, false
	}
	var best graph.Edge
	has := false
	bump := func(e graph.Edge) {
		if !has || graph.LessWeight(best, e) {
			best, has = e, true
		}
	}
	if pm.depth[u] < pm.depth[v] {
		u, v = v, u
	}
	// Lift u to v's depth.
	diff := pm.depth[u] - pm.depth[v]
	for k := 0; diff > 0; k++ {
		if diff&1 == 1 {
			bump(pm.mx[k][u])
			u = pm.up[k][u]
		}
		diff >>= 1
	}
	if u == v {
		return best, has
	}
	for k := pm.levels - 1; k >= 0; k-- {
		if pm.up[k][u] != pm.up[k][v] {
			bump(pm.mx[k][u])
			bump(pm.mx[k][v])
			u, v = pm.up[k][u], pm.up[k][v]
		}
	}
	bump(pm.mx[0][u])
	bump(pm.mx[0][v])
	return best, has
}

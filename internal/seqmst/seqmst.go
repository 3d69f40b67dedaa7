// Package seqmst implements sequential Kruskal: the ground truth of every
// correctness test in the repository and the sequential baseline of the
// benchmark harness. Its own independent witness is internal/verify's
// path-maximum check, which shares no code with it.
//
// Kruskal uses the unique global weight order (graph.LessWeight), so the
// minimum spanning forest is unique and any algorithm can be compared with
// it by edge set, not just total weight.
package seqmst

import (
	"slices"

	"kamsta/internal/graph"
	"kamsta/internal/radix"
	"kamsta/internal/unionfind"
)

// Result is a minimum spanning forest: its edges (sorted canonically), its
// total weight, and the number of connected components of the input
// (isolated vertices not counted — only vertices incident to input edges).
type Result struct {
	Edges       []graph.Edge
	TotalWeight uint64
	Components  int
}

// sortCanonical puts MSF edges into a deterministic order for comparison.
func sortCanonical(edges []graph.Edge) {
	slices.SortFunc(edges, func(a, b graph.Edge) int {
		if a.TB != b.TB {
			if a.TB < b.TB {
				return -1
			}
			return 1
		}
		return graph.CmpWeight(a, b)
	})
}

func finish(n int, picked []graph.Edge, uf *unionfind.UF, touched []bool) Result {
	total := uint64(0)
	for _, e := range picked {
		total += uint64(e.W)
	}
	sortCanonical(picked)
	comps := 0
	seen := map[int]bool{}
	for v := 1; v <= n; v++ {
		if !touched[v] {
			continue
		}
		r := uf.Find(v)
		if !seen[r] {
			seen[r] = true
			comps++
		}
	}
	return Result{Edges: picked, TotalWeight: total, Components: comps}
}

// markTouched flags every vertex incident to an edge.
func markTouched(n int, edges []graph.Edge) []bool {
	touched := make([]bool, n+1)
	for _, e := range edges {
		touched[e.U] = true
		touched[e.V] = true
	}
	return touched
}

// UndirectedFromDirected keeps one canonical copy (U < V) of every logical
// edge from a symmetric directed edge list, dropping self-loops.
func UndirectedFromDirected(directed []graph.Edge) []graph.Edge {
	out := make([]graph.Edge, 0, len(directed)/2)
	for _, e := range directed {
		if e.U < e.V {
			out = append(out, e)
		}
	}
	return out
}

// Kruskal computes the MSF of the undirected edges over vertices 1..n by
// sorting all edges and growing a forest with union-find.
func Kruskal(n int, edges []graph.Edge) Result {
	sorted := make([]graph.Edge, len(edges))
	copy(sorted, edges)
	radix.Sort(sorted, graph.KeyWeight, graph.LessWeight)
	uf := unionfind.New(n + 1)
	var picked []graph.Edge
	for _, e := range sorted {
		if e.U == e.V {
			continue
		}
		if uf.Union(int(e.U), int(e.V)) {
			picked = append(picked, e)
		}
	}
	return finish(n, picked, uf, markTouched(n, edges))
}

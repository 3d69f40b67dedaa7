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

// Result is a minimum spanning forest: its edges (sorted canonically) and
// its total weight.
type Result struct {
	Edges       []graph.Edge
	TotalWeight uint64
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
// sorting all edges and growing a forest with union-find. It leaves edges
// as it was: callers reuse their input after it.
func Kruskal(n int, edges []graph.Edge) Result {
	m := len(edges)
	sorted := make([]graph.Edge, m)
	radix.SortInto(sorted, edges, graph.KeyWeight, graph.LessWeight, make([]radix.KV, m), make([]radix.KV, m))
	uf := unionfind.New(n + 1)
	var picked []graph.Edge
	var total uint64
	for _, e := range sorted {
		if uf.Union(int(e.U), int(e.V)) { // false on a self-loop
			picked = append(picked, e)
			total += uint64(e.W)
		}
	}
	sortCanonical(picked)
	return Result{Edges: picked, TotalWeight: total}
}

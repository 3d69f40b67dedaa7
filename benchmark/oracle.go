package main

import (
	"fmt"
	"sort"

	"kamsta"
)

// The benchmark's own correctness oracle. It shares no code with the program
// under test: a plain union-find, a sort-based Kruskal for inputs the
// benchmark generated itself (serve-small), and a forest check for the edge
// lists the program returns.

// maxOracleLabel bounds the vertex labels the slice-indexed union-find
// accepts; every workload's labels are far below it.
const maxOracleLabel = 1 << 28

type unionFind []int32

func newUnionFind(n int) unionFind {
	uf := make(unionFind, n)
	for i := range uf {
		uf[i] = int32(i)
	}
	return uf
}

func (uf unionFind) find(x int32) int32 {
	for uf[x] != x {
		uf[x] = uf[uf[x]]
		x = uf[x]
	}
	return x
}

// union joins the sets of a and b and reports whether they were distinct.
func (uf unionFind) union(a, b int32) bool {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return false
	}
	uf[ra] = rb
	return true
}

func maxLabel(edges []kamsta.InputEdge) (uint64, error) {
	m := uint64(0)
	for _, e := range edges {
		m = max(m, e.U, e.V)
	}
	if m >= maxOracleLabel {
		return 0, fmt.Errorf("oracle: vertex label %d is beyond the checker's range", m)
	}
	return m, nil
}

// forestWeight checks that edges contain no cycle (self-loops included) and
// returns their summed weight.
func forestWeight(edges []kamsta.InputEdge) (uint64, error) {
	top, err := maxLabel(edges)
	if err != nil {
		return 0, err
	}
	uf := newUnionFind(int(top) + 1)
	weight := uint64(0)
	for _, e := range edges {
		if !uf.union(int32(e.U), int32(e.V)) {
			return 0, fmt.Errorf("oracle: edge (%d,%d) closes a cycle", e.U, e.V)
		}
		weight += uint64(e.W)
	}
	return weight, nil
}

// reference is what a correct answer must match.
type reference struct {
	weight uint64
	edges  int
}

// kruskal computes the minimum spanning forest's weight and edge count.
func kruskal(edges []kamsta.InputEdge) (reference, error) {
	top, err := maxLabel(edges)
	if err != nil {
		return reference{}, err
	}
	sorted := append([]kamsta.InputEdge(nil), edges...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].W < sorted[j].W })
	uf := newUnionFind(int(top) + 1)
	var ref reference
	for _, e := range sorted {
		if e.U != e.V && uf.union(int32(e.U), int32(e.V)) {
			ref.weight += uint64(e.W)
			ref.edges++
		}
	}
	return ref, nil
}

// checkReport verifies one compute job's answer: the totals equal the
// reference, and the listed edges are a forest that adds up to those totals.
// A forest with the reference's edge count spans the same components, so
// equal weight makes it a minimum spanning forest.
func checkReport(rep *kamsta.Report, ref reference) error {
	if rep.TotalWeight != ref.weight || rep.NumEdges != ref.edges {
		return fmt.Errorf("weight %d over %d edges, reference %d over %d",
			rep.TotalWeight, rep.NumEdges, ref.weight, ref.edges)
	}
	if len(rep.MSTEdges) != rep.NumEdges {
		return fmt.Errorf("%d edges listed, %d reported", len(rep.MSTEdges), rep.NumEdges)
	}
	listed, err := forestWeight(rep.MSTEdges)
	if err != nil {
		return err
	}
	if listed != rep.TotalWeight {
		return fmt.Errorf("listed edges weigh %d, reported %d", listed, rep.TotalWeight)
	}
	return nil
}

package graph

import (
	"sort"
	"testing"

	"kamsta/internal/comm"
	"kamsta/internal/rng"
)

// TestOwnerOfReverse checks the exact-copy reverse lookup used by the
// label exchange, including parallel edges between the same endpoints.
func TestOwnerOfReverse(t *testing.T) {
	// Build edges with two parallel weight classes between 1 and 2... a
	// multigraph needs distinct TBs, which MakeTB cannot give for one
	// pair; emulate parallels with distinct weights instead (distinct
	// LessLex positions).
	mk := func(u, v VID, w Weight, id uint32) Edge {
		e := NewEdge(u, v, w)
		e.ID = id
		return e
	}
	all := []Edge{
		mk(1, 2, 3, 0), mk(1, 2, 9, 1), mk(1, 3, 5, 2),
		mk(2, 1, 3, 3), mk(2, 1, 9, 4),
		mk(3, 1, 5, 5),
	}
	chunks := [][]Edge{all[:2], all[2:4], all[4:]}
	w := comm.NewWorld(3)
	w.Run(func(c *comm.Comm) {
		l := BuildLayout(c, chunks[c.Rank()])
		if c.Rank() != 0 {
			return
		}
		cases := []struct {
			edge Edge
			want int
		}{
			{all[0], 1}, // reverse of (1,2,3) is (2,1,3) on PE 1
			{all[1], 2}, // reverse of (1,2,9) is (2,1,9) on PE 2
			{all[3], 0}, // reverse of (2,1,3) is (1,2,3) on PE 0
			{all[2], 2}, // reverse of (1,3,5) is (3,1,5) on PE 2
		}
		for _, tc := range cases {
			if got := l.OwnerOfReverse(tc.edge); got != tc.want {
				t.Errorf("OwnerOfReverse(%v)=%d want %d", tc.edge, got, tc.want)
			}
		}
	})
}

// TestLayoutSinglePE pins the trivial world.
func TestLayoutSinglePE(t *testing.T) {
	edges := []Edge{NewEdge(1, 2, 1), NewEdge(2, 1, 1)}
	w := comm.NewWorld(1)
	w.Run(func(c *comm.Comm) {
		l := BuildLayout(c, edges)
		if l.HomePE(1) != 0 || l.HomePE(2) != 0 {
			t.Error("single PE owns everything")
		}
		if l.IsShared(1) || l.IsShared(2) {
			t.Error("nothing is shared on one PE")
		}
		if GlobalVertexCount(c, l, edges) != 2 {
			t.Error("vertex count wrong")
		}
	})
}

// TestHighDegreeVertexSpansManyPEs: a star center split across 4 PEs must
// report the full shared span — the case the paper's 1D edge partition is
// designed to load-balance.
func TestHighDegreeVertexSpansManyPEs(t *testing.T) {
	var all []Edge
	center := VID(1)
	for leaf := VID(2); leaf <= 17; leaf++ {
		all = append(all, NewEdge(center, leaf, RandomWeight(1, center, leaf)))
	}
	// center's 16 edges split over 4 PEs; leaf back-edges on a 5th.
	var back []Edge
	for leaf := VID(2); leaf <= 17; leaf++ {
		back = append(back, NewEdge(leaf, center, RandomWeight(1, center, leaf)))
	}
	chunks := [][]Edge{all[:4], all[4:8], all[8:12], all[12:], back}
	w := comm.NewWorld(5)
	w.Run(func(c *comm.Comm) {
		l := BuildLayout(c, chunks[c.Rank()])
		if c.Rank() != 0 {
			return
		}
		first, last := l.SharedSpan(center)
		if first != 0 || last != 3 {
			t.Errorf("star center span [%d,%d], want [0,3]", first, last)
		}
		if !l.IsShared(center) {
			t.Error("star center must be shared")
		}
		for _, r := range []int{0, 1, 2, 3} {
			if !l.IsSharedOn(center, r) {
				t.Errorf("center should be shared on PE %d", r)
			}
		}
		if l.IsSharedOn(center, 4) {
			t.Error("PE 4 holds only back edges; center is not its source")
		}
	})
}

// TestLocalRangeMatchesSharedSpan: for random sorted distributions — empty
// PEs, a vertex spanning three or more PEs, a vertex that is both first and
// last source of a PE — the range test local preprocessing uses agrees with
// SharedSpan(v) == (rank, rank) for every vertex that occurs, on every PE.
func TestLocalRangeMatchesSharedSpan(t *testing.T) {
	r := rng.New(11)
	sawWide, sawFirstLast, sawEmpty := false, false, false
	for trial := 0; trial < 200; trial++ {
		n := 6 + r.Intn(30)
		edges := makeGlobalEdges(n, n+r.Intn(n*(n-1)/2-n), uint64(trial))
		p := 2 + r.Intn(9)
		// Random cut points, repeats allowed: equal cuts are empty PEs and
		// close cuts fall inside one vertex's run.
		cuts := make([]int, p+1)
		cuts[p] = len(edges)
		for i := 1; i < p; i++ {
			cuts[i] = r.Intn(len(edges) + 1)
		}
		sort.Ints(cuts)
		all := make([]entry, p)
		for i := range all {
			if chunk := edges[cuts[i]:cuts[i+1]]; len(chunk) > 0 {
				all[i] = entry{First: chunk[0], Last: chunk[len(chunk)-1], Count: len(chunk)}
				sawFirstLast = sawFirstLast || (chunk[0].U == chunk[len(chunk)-1].U && len(chunk) > 1)
			} else {
				sawEmpty = true
			}
		}
		l := assembleLayout(all)
		for i := 0; i < len(edges); i++ {
			v := edges[i].U
			if i > 0 && edges[i-1].U == v {
				continue
			}
			first, last := l.SharedSpan(v)
			sawWide = sawWide || last-first >= 2
			for rank := 0; rank < p; rank++ {
				lo, hi := l.LocalRange(rank)
				want := first == last && first == rank
				if got := lo <= v && v < hi; got != want {
					t.Fatalf("trial %d: vertex %d on PE %d: range [%d,%d) says %v, SharedSpan (%d,%d) says %v (cuts %v)",
						trial, v, rank, lo, hi, got, first, last, want, cuts)
				}
			}
		}
	}
	if !sawWide || !sawFirstLast || !sawEmpty {
		t.Fatalf("shapes not covered: span≥3 %v, first=last %v, empty PE %v", sawWide, sawFirstLast, sawEmpty)
	}
}

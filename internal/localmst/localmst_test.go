package localmst

import (
	"slices"
	"testing"

	"kamsta/internal/comm"
	"kamsta/internal/dsort"
	"kamsta/internal/gen"
	"kamsta/internal/graph"
	"kamsta/internal/rng"
	"kamsta/internal/seqmst"
	"kamsta/internal/unionfind"
)

func allLocal(graph.VID) bool { return true }

// randomEdges builds a random undirected edge list (single copies) on
// vertices 1..n with distinct weights via tie-breaking.
func randomEdges(n, m int, seed uint64) []graph.Edge {
	r := rng.New(seed)
	seen := map[uint64]bool{}
	var edges []graph.Edge
	for i := 2; i <= n; i++ { // spanning-ish backbone
		u := graph.VID(r.Intn(i-1) + 1)
		v := graph.VID(i)
		tb := graph.MakeTB(u, v)
		if !seen[tb] {
			seen[tb] = true
			edges = append(edges, graph.NewEdge(u, v, graph.RandomWeight(seed, u, v)))
		}
	}
	for len(edges) < m {
		u := graph.VID(r.Intn(n) + 1)
		v := graph.VID(r.Intn(n) + 1)
		if u == v || seen[graph.MakeTB(u, v)] {
			continue
		}
		seen[graph.MakeTB(u, v)] = true
		edges = append(edges, graph.NewEdge(u, v, graph.RandomWeight(seed, u, v)))
	}
	for i := range edges {
		edges[i].ID = uint32(i)
	}
	return edges
}

func totalWeight(edges []graph.Edge) uint64 {
	t := uint64(0)
	for _, e := range edges {
		t += uint64(e.W)
	}
	return t
}

// TestMSFMatchesKruskalAllLocal: a full MSF with and without the filtered
// split equals Kruskal's; the last instance is above filterAbove, where the
// split must run and save work.
func TestMSFMatchesKruskalAllLocal(t *testing.T) {
	for seed := uint64(0); seed <= 10; seed++ {
		n := 60 + int(seed)*10
		if seed == 10 {
			n = 1500
		}
		edges := randomEdges(n, n*4, seed)
		want := seqmst.Kruskal(n, edges)
		unfiltered := 0
		for _, filter := range []bool{false, true} {
			got := Run(edges, allLocal, Config{Filter: filter})
			if !filter {
				unfiltered = got.Work
			} else if len(edges) > filterAbove && got.Work >= unfiltered {
				t.Fatalf("seed=%d: %d edges: filtered work %d, unfiltered %d: the split did not run", seed, len(edges), got.Work, unfiltered)
			}
			if w := totalWeight(got.MSTEdges); w != want.TotalWeight {
				t.Fatalf("seed=%d filter=%v: weight %d want %d", seed, filter, w, want.TotalWeight)
			}
			if len(got.MSTEdges) != len(want.Edges) {
				t.Fatalf("seed=%d: %d MST edges want %d", seed, len(got.MSTEdges), len(want.Edges))
			}
			if len(got.Remaining) != 0 {
				t.Fatalf("seed=%d: %d edges remain after full MSF", seed, len(got.Remaining))
			}
		}
	}
}

// TestMSFEdgeSetMatchesKruskal: MSF picks Kruskal's edges under
// graph.LessWeight, and of each its least copy under the labels it was
// emitted with. The tie-heavy inputs reach every level of that order.
func TestMSFEdgeSetMatchesKruskal(t *testing.T) {
	var rgg []graph.Edge
	comm.NewWorld(1).Run(func(c *comm.Comm) {
		rgg, _ = gen.Build(c, gen.Spec{Family: gen.RGG2D, N: 1 << 11, M: 1 << 13, Seed: 5}, dsort.Options{})
	})
	inputs := map[string][]graph.Edge{
		"random":   randomEdges(100, 400, 5),
		"rgg-ties": tieHeavy(rgg),
		"gnm-ties": tieHeavy(randomEdges(1500, 6000, 12)),
	}
	for name, edges := range inputs {
		n := graph.VID(0)
		copies := map[uint64][]graph.Edge{}
		for _, e := range edges {
			n = max(n, e.U, e.V)
			copies[e.TB] = append(copies[e.TB], e)
		}
		want := seqmst.Kruskal(int(n), edges)
		got := MSF(edges, nil)
		wantTB := map[uint64]bool{}
		for _, e := range want.Edges {
			wantTB[e.TB] = true
		}
		if len(got.MSTEdges) != len(want.Edges) {
			t.Fatalf("%s: %d edges want %d", name, len(got.MSTEdges), len(want.Edges))
		}
		for _, e := range got.MSTEdges {
			if !wantTB[e.TB] {
				t.Fatalf("%s: MSF picked non-MST edge %v", name, e)
			}
			// Every copy of e's edge is still active when e wins: the same
			// direction carries e's labels, the other direction them swapped.
			orig := edges[e.ID]
			for _, c := range copies[e.TB] {
				if c.U == orig.U {
					c.U, c.V = e.U, e.V
				} else {
					c.U, c.V = e.V, e.U
				}
				if graph.LessWeight(c, e) {
					t.Fatalf("%s: MSF emitted copy %d of edge %v (labels %d→%d), copy %d is lighter",
						name, e.ID, orig, e.U, e.V, c.ID)
				}
			}
		}
	}
}

func TestDisconnected(t *testing.T) {
	edges := []graph.Edge{
		graph.NewEdge(1, 2, 3),
		graph.NewEdge(3, 4, 5),
	}
	got := MSF(edges, nil)
	if len(got.MSTEdges) != 2 || totalWeight(got.MSTEdges) != 8 {
		t.Fatalf("disconnected MSF wrong: %+v", got.MSTEdges)
	}
}

func TestEmptyInput(t *testing.T) {
	got := Run(nil, allLocal, Config{})
	if len(got.MSTEdges) != 0 || len(got.Remaining) != 0 || len(got.Verts) != 0 {
		t.Fatalf("empty input gave %+v", got)
	}
}

func TestLabelsFormComponents(t *testing.T) {
	n := 80
	edges := randomEdges(n, 200, 9)
	got := MSF(edges, nil)
	// Labels must assign every vertex of a connected component the same
	// root, matching union-find over the MST edges.
	uf := unionfind.New(n + 1)
	for _, e := range edges {
		uf.Union(int(e.U), int(e.V))
	}
	rootOf := map[int]graph.VID{}
	for i, v := range got.Verts {
		lbl := got.Roots[i]
		r := uf.Find(int(v))
		if prev, seen := rootOf[r]; seen && prev != lbl {
			t.Fatalf("component of %d has two labels: %d and %d", v, prev, lbl)
		}
		rootOf[r] = lbl
	}
	if !slices.IsSorted(got.Verts) {
		t.Fatal("Verts not ascending")
	}
}

// cutScenario builds a graph where vertex sets {1,2} are local and 3 is
// not; the lightest edge of 2 is the cut edge (2,3,w=1), so 2 must freeze
// even though the local edge (1,2,5) exists.
func TestFreezeOnLighterCutEdge(t *testing.T) {
	isLocal := func(v graph.VID) bool { return v <= 2 }
	edges := []graph.Edge{
		graph.NewEdge(1, 2, 5),
		graph.NewEdge(2, 3, 1), // cut edge, lighter
		graph.NewEdge(1, 3, 9), // cut edge
	}
	got := Run(edges, isLocal, Config{})
	// Vertex 2's lightest edge is a cut edge → freeze. Vertex 1's lightest
	// edge is the local (1,2,5)... which IS its lightest (5 < 9), so 1
	// contracts into 2's component. The local edge (1,2,5) is a real MST
	// edge here (1's lightest incident edge overall).
	if len(got.MSTEdges) != 1 || got.MSTEdges[0].TB != graph.MakeTB(1, 2) {
		t.Fatalf("expected exactly the local edge (1,2) as MST edge, got %+v", got.MSTEdges)
	}
	// After contraction the two cut edges become parallel (both connect
	// component {1,2} to vertex 3); only the lighter survives. Dropping the
	// heavier is sound by the cycle property.
	if len(got.Remaining) != 1 || got.Remaining[0].W != 1 {
		t.Fatalf("expected the light cut edge to survive alone, got %+v", got.Remaining)
	}
}

func TestFreezeWhenCutIsLightest(t *testing.T) {
	// 1's lightest is the cut edge → nothing contracts at all.
	isLocal := func(v graph.VID) bool { return v <= 2 }
	edges := []graph.Edge{
		graph.NewEdge(1, 2, 5),
		graph.NewEdge(1, 3, 1),
		graph.NewEdge(2, 4, 2),
	}
	got := Run(edges, isLocal, Config{})
	if len(got.MSTEdges) != 0 {
		t.Fatalf("no local contraction expected, got %+v", got.MSTEdges)
	}
	if len(got.Remaining) != 3 {
		t.Fatalf("all edges must survive, got %d", len(got.Remaining))
	}
}

func TestPreprocessingEdgesAreGlobalMSTEdges(t *testing.T) {
	// Property (§IV-A): every edge contracted by preprocessing must be in
	// the unique global MST, no matter which vertex subset is local.
	for seed := uint64(0); seed < 10; seed++ {
		n := 60
		edges := randomEdges(n, 250, seed)
		want := seqmst.Kruskal(n, edges)
		wantTB := map[uint64]bool{}
		for _, e := range want.Edges {
			wantTB[e.TB] = true
		}
		// Vertices 1..n/2 are "local".
		isLocal := func(v graph.VID) bool { return int(v) <= n/2 }
		got := Run(edges, isLocal, Config{})
		for _, e := range got.MSTEdges {
			if !wantTB[e.TB] {
				t.Fatalf("seed=%d: preprocessing contracted non-MST edge %v", seed, e)
			}
		}
		// Completing the remaining graph must yield the rest of the MST.
		rest := seqmst.Kruskal(n, got.Remaining)
		if rest.TotalWeight+totalWeight(got.MSTEdges) != want.TotalWeight {
			t.Fatalf("seed=%d: preprocessing + completion %d != MST %d",
				seed, rest.TotalWeight+totalWeight(got.MSTEdges), want.TotalWeight)
		}
	}
}

func TestRemainingIsSortedAndDeduped(t *testing.T) {
	edges := randomEdges(50, 300, 3)
	isLocal := func(v graph.VID) bool { return v%3 != 0 }
	got := Run(edges, isLocal, Config{})
	if !graph.IsSorted(got.Remaining) {
		t.Fatal("remaining edges not sorted")
	}
	for i := 1; i < len(got.Remaining); i++ {
		a, b := got.Remaining[i-1], got.Remaining[i]
		if a.U == b.U && a.V == b.V {
			t.Fatalf("parallel edge survived: %v %v", a, b)
		}
	}
}

// TestHashAndSortDedupAgree checks Run's hash-table parallel-edge removal
// against the sort-based one, spelled here: relabel every input edge through
// the returned roots, drop self-loops, sort, keep the lightest per pair. The
// larger instance is above filterAbove, where the filtered split must run.
func TestHashAndSortDedupAgree(t *testing.T) {
	isLocal := func(v graph.VID) bool { return v%2 == 0 }
	for _, edges := range [][]graph.Edge{randomEdges(70, 400, 8), randomEdges(1200, 6000, 8)} {
		unfiltered := 0
		for _, filter := range []bool{false, true} {
			got := Run(edges, isLocal, Config{Filter: filter})
			if !filter {
				unfiltered = got.Work
			} else if len(edges) > filterAbove && got.Work == unfiltered {
				t.Fatalf("%d edges: filtered and unfiltered work both %d: the split did not run", len(edges), unfiltered)
			}
			root := map[graph.VID]graph.VID{}
			for i, v := range got.Verts {
				root[v] = got.Roots[i]
			}
			relabel := func(v graph.VID) graph.VID {
				if r, ok := root[v]; ok {
					return r
				}
				return v
			}
			var want []graph.Edge
			for _, e := range edges {
				if e.U, e.V = relabel(e.U), relabel(e.V); e.U != e.V {
					want = append(want, e)
				}
			}
			slices.SortFunc(want, func(a, b graph.Edge) int {
				if graph.LessLex(a, b) {
					return -1
				}
				return 1
			})
			want = slices.CompactFunc(want, func(a, b graph.Edge) bool { return a.U == b.U && a.V == b.V })
			if !slices.Equal(got.Remaining, want) {
				t.Fatalf("%d edges, filter=%v: Remaining has %d edges, the sort-based reduction %d (or they differ)",
					len(edges), filter, len(got.Remaining), len(want))
			}
		}
	}
}

func TestParallelEdgesKeepLightest(t *testing.T) {
	// Local contraction proceeds through multiple rounds: {1,2} and {3,4}
	// contract, then merge via (1,3,8) — all three are global MST edges.
	// The two cut edges to the non-local vertex 5 become parallel and only
	// the lighter survives (cycle property).
	isLocal := func(v graph.VID) bool { return v <= 4 }
	edges := []graph.Edge{
		graph.NewEdge(1, 2, 1),
		graph.NewEdge(3, 4, 2),
		graph.NewEdge(1, 3, 8),
		graph.NewEdge(2, 4, 9),
		graph.NewEdge(2, 5, 20),
		graph.NewEdge(4, 5, 21),
	}
	got := Run(edges, isLocal, Config{})
	if w := totalWeight(got.MSTEdges); w != 1+2+8 {
		t.Fatalf("contracted weight %d want 11 (edges %+v)", w, got.MSTEdges)
	}
	if len(got.Remaining) != 1 || got.Remaining[0].W != 20 {
		t.Fatalf("surviving cut edge wrong: %+v", got.Remaining)
	}
}

func TestRoundsLogarithmic(t *testing.T) {
	// A path of 1024 vertices halves components per round: ≤ ~12 rounds.
	var edges []graph.Edge
	for i := 1; i < 1024; i++ {
		edges = append(edges, graph.NewEdge(graph.VID(i), graph.VID(i+1), graph.RandomWeight(7, graph.VID(i), graph.VID(i+1))))
	}
	got := MSF(edges, nil)
	if len(got.MSTEdges) != 1023 {
		t.Fatalf("path MSF has %d edges", len(got.MSTEdges))
	}
	if got.Rounds > 14 {
		t.Fatalf("path contraction took %d rounds; expected logarithmic", got.Rounds)
	}
}

// tieHeavy makes an input whose weight ties reach every tie-break of the
// record order (W, TB, V, ID): three distinct weights, both directed copies
// of every edge (equal TB, different V) and a repeated copy of every
// seventh edge under a new ID (equal TB and V).
func tieHeavy(edges []graph.Edge) []graph.Edge {
	var out []graph.Edge
	for i, e := range edges {
		e.W = e.W%3 + 1
		e.TB = graph.MakeTB(e.U, e.V)
		r := e
		r.U, r.V = e.V, e.U
		out = append(out, e, r)
		if i%7 == 0 {
			out = append(out, e)
		}
	}
	for i := range out {
		out[i].ID = uint32(i)
	}
	return out
}

func BenchmarkMSF1Thread(b *testing.B) {
	edges := randomEdges(20000, 100000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MSF(edges, nil)
	}
}

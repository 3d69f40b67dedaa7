package seqmst

import (
	"slices"
	"testing"
	"testing/quick"

	"kamsta/internal/graph"
	"kamsta/internal/rng"
	"kamsta/internal/unionfind"
	"kamsta/internal/verify"
)

func newUFForTest(n int) *unionfind.UF { return unionfind.New(n + 1) }

// path 1-2-3-4 with increasing weights plus a heavy chord.
func pathWithChord() (int, []graph.Edge) {
	return 4, []graph.Edge{
		graph.NewEdge(1, 2, 1),
		graph.NewEdge(2, 3, 2),
		graph.NewEdge(3, 4, 3),
		graph.NewEdge(1, 4, 10),
	}
}

func triangle() (int, []graph.Edge) {
	return 3, []graph.Edge{
		graph.NewEdge(1, 2, 1),
		graph.NewEdge(2, 3, 2),
		graph.NewEdge(1, 3, 3),
	}
}

func TestKnownSmallGraphs(t *testing.T) {
	type fixture struct {
		name  string
		n     int
		edges []graph.Edge
		want  uint64
		count int
	}
	n1, e1 := pathWithChord()
	n2, e2 := triangle()
	fixtures := []fixture{
		{"pathWithChord", n1, e1, 6, 3},
		{"triangle", n2, e2, 3, 2},
	}
	for _, fx := range fixtures {
		r := Kruskal(fx.n, fx.edges)
		if r.TotalWeight != fx.want {
			t.Errorf("%s: weight %d want %d", fx.name, r.TotalWeight, fx.want)
		}
		if len(r.Edges) != fx.count {
			t.Errorf("%s: %d edges want %d", fx.name, len(r.Edges), fx.count)
		}
		if msg := verify.MSF(fx.edges, r.Edges); msg != "" {
			t.Errorf("%s: %s", fx.name, msg)
		}
	}
}

func TestSingleEdge(t *testing.T) {
	edges := []graph.Edge{graph.NewEdge(1, 2, 5)}
	if r := Kruskal(2, edges); r.TotalWeight != 5 || len(r.Edges) != 1 {
		t.Errorf("%+v", r)
	}
}

func TestEmptyGraph(t *testing.T) {
	if r := Kruskal(5, nil); r.TotalWeight != 0 || len(r.Edges) != 0 {
		t.Errorf("empty graph: %+v", r)
	}
}

func TestSelfLoopsIgnored(t *testing.T) {
	edges := []graph.Edge{
		{U: 1, V: 1, W: 1, TB: graph.MakeTB(1, 1)},
		graph.NewEdge(1, 2, 7),
	}
	if r := Kruskal(2, edges); r.TotalWeight != 7 || len(r.Edges) != 1 {
		t.Errorf("with self-loop: %+v", r)
	}
}

func TestDisconnectedComponents(t *testing.T) {
	edges := []graph.Edge{
		graph.NewEdge(1, 2, 1),
		graph.NewEdge(3, 4, 2),
		graph.NewEdge(5, 6, 3),
		graph.NewEdge(5, 7, 4),
	}
	// Seven vertices in three components: a forest of 7 - 3 edges.
	r := Kruskal(7, edges)
	if r.TotalWeight != 10 || len(r.Edges) != 4 {
		t.Errorf("%+v", r)
	}
}

func TestParallelEdgesKeepLightest(t *testing.T) {
	// Two logical edges between 1-2 (a true multigraph needs distinct TB
	// which MakeTB can't give for the same pair, so emulate by weight only).
	edges := []graph.Edge{
		graph.NewEdge(1, 2, 9),
		graph.NewEdge(1, 2, 2),
	}
	if r := Kruskal(2, edges); r.TotalWeight != 2 {
		t.Errorf("picked weight %d want 2", r.TotalWeight)
	}
}

// randomGraph builds a connected-ish random graph with distinct tie-break
// keys; returns n and the undirected edge list.
func randomGraph(n, extra int, seed uint64) []graph.Edge {
	r := rng.New(seed)
	var edges []graph.Edge
	seen := map[uint64]bool{}
	// random spanning path first so most vertices are connected
	perm := r.Perm(n)
	for i := 1; i < n; i++ {
		u, v := graph.VID(perm[i-1]+1), graph.VID(perm[i]+1)
		tb := graph.MakeTB(u, v)
		if !seen[tb] {
			seen[tb] = true
			edges = append(edges, graph.NewEdge(u, v, graph.RandomWeight(seed, u, v)))
		}
	}
	for k := 0; k < extra; k++ {
		u := graph.VID(r.Intn(n) + 1)
		v := graph.VID(r.Intn(n) + 1)
		if u == v {
			continue
		}
		tb := graph.MakeTB(u, v)
		if seen[tb] {
			continue
		}
		seen[tb] = true
		edges = append(edges, graph.NewEdge(u, v, graph.RandomWeight(seed, u, v)))
	}
	for i := range edges {
		edges[i].ID = uint32(i)
	}
	return edges
}

// TestKruskalVerifiedOnRandomGraphs holds the oracle to its independent
// witness: verify.MSF checks forest, spanning and cycle property without
// running an MST algorithm. Kruskal must leave its input as it was: the
// load generator, the Kruskal job body and the benchmark reuse theirs.
func TestKruskalVerifiedOnRandomGraphs(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		n := 50 + int(seed)*13
		edges := randomGraph(n, n*3, seed)
		input := slices.Clone(edges)
		if msg := verify.MSF(edges, Kruskal(n, edges).Edges); msg != "" {
			t.Fatalf("seed %d: %s", seed, msg)
		}
		if !slices.Equal(edges, input) {
			t.Fatalf("seed %d: Kruskal wrote its input", seed)
		}
	}
}

func TestTreeInputKeepsAllEdges(t *testing.T) {
	f := func(seedRaw uint16) bool {
		seed := uint64(seedRaw)
		n := 30
		r := rng.New(seed)
		var edges []graph.Edge
		// random tree: connect i to a random earlier vertex
		for i := 2; i <= n; i++ {
			u := graph.VID(r.Intn(i-1) + 1)
			edges = append(edges, graph.NewEdge(u, graph.VID(i), graph.RandomWeight(seed, u, graph.VID(i))))
		}
		res := Kruskal(n, edges)
		if len(res.Edges) != n-1 {
			t.Logf("dropped tree edges: %d of %d", len(res.Edges), n-1)
		}
		return len(res.Edges) == n-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestMSTWeightLowerBoundProperty(t *testing.T) {
	// Property: replacing any MST edge by any non-MST edge crossing the cut
	// cannot reduce the weight — here tested as: MST weight <= weight of
	// every spanning structure found by a greedy heuristic on shuffled edges.
	edges := randomGraph(40, 100, 5)
	n := 40
	mst := Kruskal(n, edges)
	r := rng.New(123)
	for trial := 0; trial < 10; trial++ {
		shuffled := make([]graph.Edge, len(edges))
		for i, j := range r.Perm(len(edges)) {
			shuffled[i] = edges[j]
		}
		uf := newUFForTest(n)
		var total uint64
		cnt := 0
		for _, e := range shuffled {
			if uf.Union(int(e.U), int(e.V)) {
				total += uint64(e.W)
				cnt++
			}
		}
		if cnt != len(mst.Edges) {
			t.Fatalf("greedy forest has %d edges, MST %d", cnt, len(mst.Edges))
		}
		if total < mst.TotalWeight {
			t.Fatalf("greedy forest lighter (%d) than MST (%d)", total, mst.TotalWeight)
		}
	}
}

func TestUndirectedFromDirected(t *testing.T) {
	dir := []graph.Edge{
		graph.NewEdge(1, 2, 5), graph.NewEdge(2, 1, 5),
		graph.NewEdge(3, 2, 6), graph.NewEdge(2, 3, 6),
	}
	und := UndirectedFromDirected(dir)
	if len(und) != 2 {
		t.Fatalf("got %d undirected edges want 2", len(und))
	}
	for _, e := range und {
		if e.U >= e.V {
			t.Fatalf("non-canonical edge %v", e)
		}
	}
}

func BenchmarkKruskal(b *testing.B) {
	n := 5000
	edges := randomGraph(n, 50000, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Kruskal(n, edges)
	}
}

package kamsta_test

import (
	"context"
	"testing"
	"testing/quick"

	"kamsta"
	"kamsta/internal/graph"
	"kamsta/internal/rng"
	"kamsta/internal/seqmst"
	"kamsta/internal/verify"
)

// randomUserGraph builds an arbitrary connected-ish multigraph from
// quick-check randomness: a spine plus random chords, arbitrary weights
// (including many ties, which the unique weight order must break).
func randomUserGraph(seed uint64, n int, chords int) []kamsta.InputEdge {
	r := rng.New(seed)
	var edges []kamsta.InputEdge
	for i := 2; i <= n; i++ {
		u := uint64(r.Intn(i-1) + 1)
		edges = append(edges, kamsta.InputEdge{U: u, V: uint64(i), W: uint32(r.Intn(7) + 1)})
	}
	for k := 0; k < chords; k++ {
		u := uint64(r.Intn(n) + 1)
		v := uint64(r.Intn(n) + 1)
		if u == v {
			continue
		}
		edges = append(edges, kamsta.InputEdge{U: u, V: v, W: uint32(r.Intn(7) + 1)})
	}
	return edges
}

// newMachine builds a p-PE Machine, closed when the test ends.
func newMachine(t *testing.T, p int) *kamsta.Machine {
	m, err := kamsta.NewMachine(kamsta.MachineConfig{PEs: p})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// sharedMachines hands out one Machine per PE count, built on first use, so
// a property's many cases reuse parked worlds.
func sharedMachines(t *testing.T) func(p int) *kamsta.Machine {
	byPEs := map[int]*kamsta.Machine{}
	return func(p int) *kamsta.Machine {
		if byPEs[p] == nil {
			byPEs[p] = newMachine(t, p)
		}
		return byPEs[p]
	}
}

// msf computes the MSF of a user edge list on m.
func msf(m *kamsta.Machine, edges []kamsta.InputEdge, opts ...kamsta.RunOption) (*kamsta.Report, error) {
	return m.Compute(context.Background(), kamsta.FromEdges(edges), opts...)
}

// TestPropertyDistributedMatchesSequential drives the full distributed
// pipeline with arbitrary small graphs and checks weight and edge count
// against Kruskal plus the independent verifier. Weights are drawn from a
// tiny range on purpose: tie-breaking bugs only show up under heavy ties.
func TestPropertyDistributedMatchesSequential(t *testing.T) {
	machine := sharedMachines(t)
	f := func(seedRaw uint16, pRaw, algRaw uint8) bool {
		seed := uint64(seedRaw) + 1
		p := int(pRaw)%7 + 1
		algs := []kamsta.Algorithm{kamsta.AlgBoruvka, kamsta.AlgFilterBoruvka, kamsta.AlgMNDMST, kamsta.AlgSparseMatrix}
		alg := algs[int(algRaw)%len(algs)]
		edges := randomUserGraph(seed, 40, 80)

		want, err := msf(machine(p), edges, kamsta.WithAlgorithm(kamsta.AlgKruskal))
		if err != nil {
			t.Logf("oracle error: %v", err)
			return false
		}
		got, err := msf(machine(p), edges, kamsta.WithAlgorithm(alg))
		if err != nil {
			t.Logf("%s error: %v", alg, err)
			return false
		}
		if got.TotalWeight != want.TotalWeight || got.NumEdges != want.NumEdges {
			t.Logf("seed=%d p=%d alg=%s: got (%d,%d) want (%d,%d)",
				seed, p, alg, got.TotalWeight, got.NumEdges, want.TotalWeight, want.NumEdges)
			return false
		}
		// Independent verification of the distributed result. Parallel
		// input edges between the same pair collapse to the lightest in
		// the distributed pipeline; verify against the collapsed input.
		seenPair := map[uint64]graph.Edge{}
		for _, e := range edges {
			ge := graph.NewEdge(e.U, e.V, e.W)
			if prev, ok := seenPair[ge.TB]; !ok || graph.LessWeight(ge, prev) {
				seenPair[ge.TB] = ge
			}
		}
		input := make([]graph.Edge, 0, len(seenPair))
		for _, ge := range seenPair {
			input = append(input, ge)
		}
		claimed := make([]graph.Edge, 0, len(got.MSTEdges))
		for _, e := range got.MSTEdges {
			claimed = append(claimed, graph.NewEdge(e.U, e.V, e.W))
		}
		if msg := verify.MSF(input, claimed); msg != "" {
			t.Logf("seed=%d p=%d alg=%s: verifier: %s", seed, p, alg, msg)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertySpecFamiliesAllWorldSizes sweeps arbitrary (family, p, seed)
// combinations from quick-check randomness.
func TestPropertySpecFamiliesAllWorldSizes(t *testing.T) {
	fams := []struct {
		fam interface{ String() string }
		mk  func(seed uint64) kamsta.GraphSpec
	}{
		{kamsta.Grid2D, func(s uint64) kamsta.GraphSpec {
			return kamsta.GraphSpec{Family: kamsta.Grid2D, N: 100, Seed: s}
		}},
		{kamsta.GNM, func(s uint64) kamsta.GraphSpec {
			return kamsta.GraphSpec{Family: kamsta.GNM, N: 90, M: 350, Seed: s}
		}},
		{kamsta.RMAT, func(s uint64) kamsta.GraphSpec {
			return kamsta.GraphSpec{Family: kamsta.RMAT, N: 64, M: 300, Seed: s}
		}},
	}
	machine := sharedMachines(t)
	f := func(seedRaw uint16, famRaw, pRaw uint8) bool {
		seed := uint64(seedRaw) + 1
		fam := fams[int(famRaw)%len(fams)]
		p := int(pRaw)%6 + 1
		spec := fam.mk(seed)
		want, err := machine(2).Compute(context.Background(), kamsta.FromSpec(spec), kamsta.WithAlgorithm(kamsta.AlgKruskal))
		if err != nil {
			return false
		}
		got, err := machine(p).Compute(context.Background(), kamsta.FromSpec(spec), kamsta.WithAlgorithm(kamsta.AlgFilterBoruvka))
		if err != nil {
			return false
		}
		return got.TotalWeight == want.TotalWeight && got.NumEdges == want.NumEdges
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPropertyMSTWeightMonotoneUnderEdgeAddition: adding an edge never
// increases the MSF weight (a classic invariant), exercised through the
// distributed pipeline.
func TestPropertyMSTWeightMonotoneUnderEdgeAddition(t *testing.T) {
	m := newMachine(t, 3)
	f := func(seedRaw uint16) bool {
		seed := uint64(seedRaw) + 1
		edges := randomUserGraph(seed, 30, 25)
		base, err := msf(m, edges)
		if err != nil {
			return false
		}
		r := rng.New(seed ^ 0xADD)
		u := uint64(r.Intn(30) + 1)
		v := uint64(r.Intn(30) + 1)
		if u == v {
			return true
		}
		more := append(edges, kamsta.InputEdge{U: u, V: v, W: uint32(r.Intn(7) + 1)})
		bigger, err := msf(m, more)
		if err != nil {
			return false
		}
		return bigger.TotalWeight <= base.TotalWeight
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPropertyParallelEdgesKeepLightest: duplicating every edge with a
// heavier copy never changes the MSF.
func TestPropertyParallelEdgesKeepLightest(t *testing.T) {
	m := newMachine(t, 4)
	f := func(seedRaw uint16) bool {
		seed := uint64(seedRaw) + 1
		edges := randomUserGraph(seed, 25, 20)
		base, err := msf(m, edges)
		if err != nil {
			return false
		}
		doubled := append([]kamsta.InputEdge{}, edges...)
		for _, e := range edges {
			doubled = append(doubled, kamsta.InputEdge{U: e.U, V: e.V, W: e.W + 100})
		}
		same, err := msf(m, doubled)
		if err != nil {
			return false
		}
		return same.TotalWeight == base.TotalWeight && same.NumEdges == base.NumEdges
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Guard against accidental drift in the oracle helper itself.
func TestRandomUserGraphShape(t *testing.T) {
	edges := randomUserGraph(7, 40, 80)
	if len(edges) < 39 {
		t.Fatalf("spine missing: %d edges", len(edges))
	}
	res := seqmst.Kruskal(40, toGraphEdges(edges))
	if len(res.Edges) != 39 {
		t.Fatalf("spine should make the graph connected: %d MSF edges", len(res.Edges))
	}
}

func toGraphEdges(in []kamsta.InputEdge) []graph.Edge {
	out := make([]graph.Edge, 0, len(in))
	for _, e := range in {
		out = append(out, graph.NewEdge(e.U, e.V, e.W))
	}
	return out
}

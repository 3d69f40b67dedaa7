package baselines

import (
	"testing"

	"kamsta/internal/comm"
	"kamsta/internal/dsort"
	"kamsta/internal/gen"
	"kamsta/internal/graph"
	"kamsta/internal/seqmst"
	"kamsta/internal/sizeof"
)

type algFunc func(*comm.Comm, []graph.Edge, *graph.Layout) Result

func runBaseline(t *testing.T, p, threads int, spec gen.Spec, alg algFunc) (Result, [][]graph.Edge, []graph.Edge) {
	t.Helper()
	w := comm.NewWorld(p, comm.WithThreads(threads))
	results := make([]Result, p)
	shares := make([][]graph.Edge, p)
	inputs := make([][]graph.Edge, p)
	w.Run(func(c *comm.Comm) {
		edges, layout := gen.Build(c, spec, dsort.Options{})
		inputs[c.Rank()] = edges
		r := alg(c, edges, layout)
		results[c.Rank()] = r
		shares[c.Rank()] = r.MSTEdges
	})
	var all []graph.Edge
	for _, in := range inputs {
		all = append(all, in...)
	}
	for r := 1; r < p; r++ {
		if results[r].TotalWeight != results[0].TotalWeight {
			t.Fatalf("ranks disagree: %d vs %d", results[r].TotalWeight, results[0].TotalWeight)
		}
	}
	return results[0], shares, all
}

func oracle(all []graph.Edge) seqmst.Result {
	und := seqmst.UndirectedFromDirected(all)
	maxV := graph.VID(0)
	for _, e := range und {
		if e.V > maxV {
			maxV = e.V
		}
		if e.U > maxV {
			maxV = e.U
		}
	}
	return seqmst.Kruskal(int(maxV), und)
}

func check(t *testing.T, label string, res Result, shares [][]graph.Edge, all []graph.Edge) {
	t.Helper()
	want := oracle(all)
	if res.TotalWeight != want.TotalWeight {
		t.Fatalf("%s: weight %d want %d", label, res.TotalWeight, want.TotalWeight)
	}
	if res.NumEdges != len(want.Edges) {
		t.Fatalf("%s: %d edges want %d", label, res.NumEdges, len(want.Edges))
	}
	wantTB := map[uint64]bool{}
	for _, e := range want.Edges {
		wantTB[e.TB] = true
	}
	seen := map[uint64]bool{}
	for rank, sh := range shares {
		for _, e := range sh {
			if !wantTB[e.TB] {
				t.Fatalf("%s: rank %d emitted non-MST edge %v", label, rank, e)
			}
			if seen[e.TB] {
				t.Fatalf("%s: duplicate MST edge %v", label, e)
			}
			seen[e.TB] = true
		}
	}
	if len(seen) != len(want.Edges) {
		t.Fatalf("%s: %d distinct edges collected want %d", label, len(seen), len(want.Edges))
	}
}

func specs() []gen.Spec {
	return []gen.Spec{
		{Family: gen.Grid2D, N: 120, Seed: 1},
		{Family: gen.GNM, N: 130, M: 500, Seed: 3},
		{Family: gen.RMAT, N: 128, M: 500, Seed: 4},
		{Family: gen.RHG, N: 150, M: 600, Seed: 5},
	}
}

func TestSparseMatrixMatchesKruskal(t *testing.T) {
	for _, spec := range specs() {
		for _, p := range []int{1, 2, 4, 7, 9} {
			res, shares, all := runBaseline(t, p, 1, spec, SparseMatrix)
			check(t, spec.Label(), res, shares, all)
		}
	}
}

func TestMNDMSTMatchesKruskal(t *testing.T) {
	for _, spec := range specs() {
		for _, p := range []int{1, 2, 4, 7, 8} {
			res, shares, all := runBaseline(t, p, 1, spec, MNDMST)
			check(t, spec.Label(), res, shares, all)
		}
	}
}

// TestMNDMSTThreads: 6000 directed edges per PE, so the local phases' loops
// really fan out on the 8-thread pool the world built.
func TestMNDMSTThreads(t *testing.T) {
	spec := gen.Spec{Family: gen.RGG2D, N: 2000, M: 12000, Seed: 11}
	a, _, _ := runBaseline(t, 4, 1, spec, MNDMST)
	b, shares, all := runBaseline(t, 4, 8, spec, MNDMST)
	check(t, spec.Label(), b, shares, all)
	if a.TotalWeight != b.TotalWeight || a.Rounds != b.Rounds {
		t.Fatalf("thread counts disagree: weight %d vs %d, rounds %d vs %d", a.TotalWeight, b.TotalWeight, a.Rounds, b.Rounds)
	}
}

func TestSparseMatrixDisconnected(t *testing.T) {
	spec := gen.Spec{Family: gen.GNM, N: 300, M: 200, Seed: 13} // m < n: forest
	res, shares, all := runBaseline(t, 4, 1, spec, SparseMatrix)
	check(t, spec.Label(), res, shares, all)
}

func TestMNDMSTDisconnected(t *testing.T) {
	spec := gen.Spec{Family: gen.GNM, N: 300, M: 200, Seed: 13}
	res, shares, all := runBaseline(t, 4, 1, spec, MNDMST)
	check(t, spec.Label(), res, shares, all)
}

func TestBaselinesEmptyGraph(t *testing.T) {
	w := comm.NewWorld(3)
	w.Run(func(c *comm.Comm) {
		edges, layout := gen.Finish(c, nil, dsort.Options{})
		if r := SparseMatrix(c, edges, layout); r.NumEdges != 0 {
			t.Errorf("sparseMatrix on empty graph: %+v", r)
		}
		if r := MNDMST(c, edges, layout); r.NumEdges != 0 {
			t.Errorf("MND-MST on empty graph: %+v", r)
		}
	})
}

func TestSparseMatrixRoundsLogarithmic(t *testing.T) {
	spec := gen.Spec{Family: gen.GNM, N: 512, M: 2000, Seed: 17}
	res, _, _ := runBaseline(t, 4, 1, spec, SparseMatrix)
	if res.Rounds > 12 {
		t.Fatalf("AS hooking took %d rounds on n=512; expected logarithmic", res.Rounds)
	}
}

// TestCandModeledBytes: sparseMatrix's allgathered candidate charges its
// edge at the declared 40 bytes, 56 in all as before the record was packed.
func TestCandModeledBytes(t *testing.T) {
	if got := sizeof.Of[cand](); got != 56 {
		t.Errorf("sizeof.Of[cand] = %d, want 56", got)
	}
}

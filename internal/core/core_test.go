package core

import (
	"fmt"
	"slices"
	"testing"

	"kamsta/internal/comm"
	"kamsta/internal/dsort"
	"kamsta/internal/gen"
	"kamsta/internal/graph"
	"kamsta/internal/seqmst"
	"kamsta/internal/verify"
)

// runDistributed builds the spec's graph on a p-PE world with t threads and
// runs alg on it, returning the global result, the per-rank MST shares, and
// the full input edge list for oracle comparison.
func runDistributed(t *testing.T, p, threads int, spec gen.Spec, opt Options,
	alg func(*comm.Comm, []graph.Edge, *graph.Layout, Options) Result) (Result, [][]graph.Edge, []graph.Edge) {
	t.Helper()
	w := comm.NewWorld(p, comm.WithThreads(threads))
	results := make([]Result, p)
	shares := make([][]graph.Edge, p)
	inputs := make([][]graph.Edge, p)
	w.Run(func(c *comm.Comm) {
		edges, layout := gen.Build(c, spec, dsort.Options{})
		inputs[c.Rank()] = edges
		r := alg(c, edges, layout, opt)
		results[c.Rank()] = r
		shares[c.Rank()] = r.MSTEdges
	})
	var all []graph.Edge
	for _, in := range inputs {
		all = append(all, in...)
	}
	for r := 1; r < p; r++ {
		if results[r].TotalWeight != results[0].TotalWeight || results[r].NumEdges != results[0].NumEdges {
			t.Fatalf("ranks disagree on the result: rank %d (%d,%d) vs rank 0 (%d,%d)",
				r, results[r].TotalWeight, results[r].NumEdges, results[0].TotalWeight, results[0].NumEdges)
		}
	}
	return results[0], shares, all
}

// oracle computes the reference MSF with sequential Kruskal.
func oracle(all []graph.Edge) seqmst.Result {
	und := seqmst.UndirectedFromDirected(all)
	maxV := graph.VID(0)
	for _, e := range und {
		if e.U > maxV {
			maxV = e.U
		}
		if e.V > maxV {
			maxV = e.V
		}
	}
	return seqmst.Kruskal(int(maxV), und)
}

// checkAgainstOracle verifies weight, count and edge-set identity (weights
// are globally distinct, so the MSF is unique).
func checkAgainstOracle(t *testing.T, label string, res Result, shares [][]graph.Edge, all []graph.Edge) {
	t.Helper()
	want := oracle(all)
	if res.TotalWeight != want.TotalWeight {
		t.Fatalf("%s: weight %d want %d", label, res.TotalWeight, want.TotalWeight)
	}
	if res.NumEdges != len(want.Edges) {
		t.Fatalf("%s: %d MSF edges want %d", label, res.NumEdges, len(want.Edges))
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
				t.Fatalf("%s: MST edge %v emitted twice", label, e)
			}
			seen[e.TB] = true
		}
	}
	if len(seen) != len(want.Edges) {
		t.Fatalf("%s: %d distinct MSF edges collected, want %d", label, len(seen), len(want.Edges))
	}
	// Defense in depth: the independent verifier (forest + spanning +
	// cycle property) must also accept the distributed result.
	var claimed []graph.Edge
	for _, sh := range shares {
		claimed = append(claimed, sh...)
	}
	und := seqmst.UndirectedFromDirected(all)
	if msg := verify.MSF(und, claimed); msg != "" {
		t.Fatalf("%s: verifier rejected the distributed MSF: %s", label, msg)
	}
}

func testSpecs() []gen.Spec {
	return []gen.Spec{
		{Family: gen.Grid2D, N: 120, Seed: 1},
		{Family: gen.RGG2D, N: 150, M: 700, Seed: 2},
		{Family: gen.GNM, N: 130, M: 500, Seed: 3},
		{Family: gen.RMAT, N: 128, M: 500, Seed: 4},
		{Family: gen.RHG, N: 150, M: 600, Seed: 5},
	}
}

// filterSpecs are testSpecs grown until Filter-Borůvka's recursion
// partitions at minEdgesPerPE on 2 to 7 PEs after local preprocessing: 10^4
// directed edges, far more than sparseDegree per vertex, and more for the
// RGG, whose edges preprocessing mostly contracts, and the RMAT, whose
// duplicates merge. The grid, at degree 4, never partitions.
func filterSpecs() []gen.Spec {
	return []gen.Spec{
		{Family: gen.Grid2D, N: 120, Seed: 1},
		{Family: gen.RGG2D, N: 300, M: 10000, Seed: 2},
		{Family: gen.GNM, N: 500, M: 5000, Seed: 3},
		{Family: gen.RMAT, N: 512, M: 8000, Seed: 4},
		{Family: gen.RHG, N: 600, M: 5000, Seed: 5},
	}
}

func TestBoruvkaMatchesKruskalAcrossFamilies(t *testing.T) {
	for _, spec := range testSpecs() {
		for _, p := range []int{1, 2, 4, 7} {
			opt := Options{BaseCaseCap: 16}
			res, shares, all := runDistributed(t, p, 1, spec, opt, Boruvka)
			checkAgainstOracle(t, spec.Label(), res, shares, all)
		}
	}
}

func TestFilterBoruvkaMatchesKruskalAcrossFamilies(t *testing.T) {
	for _, spec := range filterSpecs() {
		for _, p := range []int{1, 2, 4, 7} {
			opt := Options{BaseCaseCap: 16}
			res, shares, all := runDistributed(t, p, 1, spec, opt, FilterBoruvka)
			checkAgainstOracle(t, spec.Label(), res, shares, all)
			checkRecursed(t, spec, p, res)
		}
	}
}

// checkRecursed fails unless Filter-Borůvka partitioned a filterSpecs
// instance that local preprocessing left distributed (p > 1) and that is not
// the grid.
func checkRecursed(t *testing.T, spec gen.Spec, p int, res Result) {
	t.Helper()
	if p > 1 && spec.Family != gen.Grid2D && res.BaseCalls < 2 {
		t.Fatalf("%s p=%d: %d base calls: the recursion did not partition", spec.Label(), p, res.BaseCalls)
	}
}

func TestBoruvkaOptionMatrix(t *testing.T) {
	spec := gen.Spec{Family: gen.GNM, N: 200, M: 900, Seed: 7}
	for _, nopre := range []bool{false, true} {
		for _, threads := range []int{1, 4} {
			opt := Options{NoLocalPreprocessing: nopre, BaseCaseCap: 16}
			res, shares, all := runDistributed(t, 4, threads, spec, opt, Boruvka)
			checkAgainstOracle(t, spec.Label(), res, shares, all)
		}
	}
}

// TestPreprocessingDeclinesAtTheBaseCase pins the decline rule on both
// sides. At a base-case threshold equal to the input's label span local
// preprocessing leaves no trace: no phase, and the opt-out's traffic, phases
// and clock to the bit. One below it, the phase runs.
func TestPreprocessingDeclinesAtTheBaseCase(t *testing.T) {
	spec := gen.Spec{Family: gen.RGG2D, N: 600, M: 3000, Seed: 12}
	algs := map[string]func(*comm.Comm, []graph.Edge, *graph.Layout, Options) Result{
		"boruvka": Boruvka, "filterBoruvka": FilterBoruvka,
	}
	for name, alg := range algs {
		_, all := runAlg(t, 4, 1, spec, 1, Options{NoLocalPreprocessing: true}, alg)
		lo, hi := all[0].U, all[0].U
		for _, e := range all {
			lo, hi = min(lo, e.U), max(hi, e.U)
		}
		span := int(hi - lo + 1)
		for _, cap := range []int{span, span - 1} {
			label := fmt.Sprintf("%s span=%d cap=%d", name, span, cap)
			got, _ := runAlg(t, 4, 1, spec, 1, Options{BaseCaseCap: cap}, alg)
			want, _ := runAlg(t, 4, 1, spec, 1, Options{NoLocalPreprocessing: true, BaseCaseCap: cap}, alg)
			checkAgainstOracle(t, label, got.res, got.shares, all)
			_, ran := got.phases[PhasePreprocess]
			if ran != (cap < span) {
				t.Errorf("%s: preprocessing phase recorded: %v", label, ran)
			}
			if cap < span {
				continue
			}
			if got.clock != want.clock || got.stats != want.stats || len(got.phases) != len(want.phases) {
				t.Errorf("%s: declined job %v %+v, opt-out %v %+v", label, got.clock, got.stats, want.clock, want.stats)
			}
			for ph, wp := range want.phases {
				if gp := got.phases[ph]; gp.Modeled != wp.Modeled || gp.Stats != wp.Stats {
					t.Errorf("%s: phase %s declined %v %+v, opt-out %v %+v", label, ph, gp.Modeled, gp.Stats, wp.Modeled, wp.Stats)
				}
			}
		}
	}
}

func TestBoruvkaGridHighLocality(t *testing.T) {
	// Grid graphs exercise the preprocessing path heavily: most edges are
	// local, so nearly everything contracts before the distributed rounds.
	spec := gen.Spec{Family: gen.Grid2D, N: 400, Seed: 11}
	opt := Options{BaseCaseCap: 16}
	res, shares, all := runDistributed(t, 4, 2, spec, opt, Boruvka)
	checkAgainstOracle(t, spec.Label(), res, shares, all)
}

func TestBoruvkaLargeBaseCaseShortCircuit(t *testing.T) {
	// With a huge base-case threshold the whole computation happens in the
	// replicated base case — exercising it as a standalone algorithm.
	spec := gen.Spec{Family: gen.GNM, N: 150, M: 600, Seed: 13}
	opt := Options{BaseCaseCap: 1 << 20}
	res, shares, all := runDistributed(t, 4, 1, spec, opt, Boruvka)
	if res.Rounds != 0 {
		t.Fatalf("expected no distributed rounds, got %d", res.Rounds)
	}
	checkAgainstOracle(t, spec.Label(), res, shares, all)
}

func TestBoruvkaTinyBaseCaseManyRounds(t *testing.T) {
	// A tiny threshold forces many distributed rounds.
	spec := gen.Spec{Family: gen.GNM, N: 300, M: 1200, Seed: 17}
	opt := Options{BaseCaseCap: 1, NoLocalPreprocessing: true}
	res, shares, all := runDistributed(t, 4, 1, spec, opt, Boruvka)
	if res.Rounds == 0 {
		t.Fatal("expected several distributed rounds")
	}
	checkAgainstOracle(t, spec.Label(), res, shares, all)
}

func TestDisconnectedMSF(t *testing.T) {
	// A graph of several grid components (disconnect by building a small
	// grid: the generator yields one component, so use GNM sparse enough to
	// be disconnected).
	spec := gen.Spec{Family: gen.GNM, N: 400, M: 300, Seed: 19} // m < n → many components
	opt := Options{BaseCaseCap: 16}
	for _, alg := range []func(*comm.Comm, []graph.Edge, *graph.Layout, Options) Result{Boruvka, FilterBoruvka} {
		res, shares, all := runDistributed(t, 4, 1, spec, opt, alg)
		checkAgainstOracle(t, spec.Label(), res, shares, all)
	}
}

func TestSingleEdgeGraph(t *testing.T) {
	// Smallest nontrivial input: one undirected edge on a 3-PE world.
	w := comm.NewWorld(3)
	weights := make([]uint64, 3)
	w.Run(func(c *comm.Comm) {
		var raw []graph.Edge
		if c.Rank() == 0 {
			e := graph.NewEdge(1, 2, 5)
			raw = []graph.Edge{e, graph.Edge{U: 2, V: 1, W: 5, TB: e.TB}}
		}
		edges, layout := gen.Finish(c, raw, dsort.Options{})
		r := Boruvka(c, edges, layout, Options{})
		weights[c.Rank()] = r.TotalWeight
	})
	for rank, w := range weights {
		if w != 5 {
			t.Fatalf("rank %d: weight %d want 5", rank, w)
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	w := comm.NewWorld(3)
	w.Run(func(c *comm.Comm) {
		edges, layout := gen.Finish(c, nil, dsort.Options{})
		r := Boruvka(c, edges, layout, Options{})
		if r.TotalWeight != 0 || r.NumEdges != 0 {
			t.Errorf("empty graph gave %+v", r)
		}
		rf := FilterBoruvka(c, edges, layout, Options{})
		if rf.TotalWeight != 0 || rf.NumEdges != 0 {
			t.Errorf("empty graph (filter) gave %+v", rf)
		}
	})
}

func TestDeterministicAcrossRuns(t *testing.T) {
	spec := gen.Spec{Family: gen.RMAT, N: 256, M: 1000, Seed: 23}
	opt := Options{BaseCaseCap: 16}
	a, sharesA, _ := runDistributed(t, 4, 2, spec, opt, Boruvka)
	b, sharesB, _ := runDistributed(t, 4, 2, spec, opt, Boruvka)
	if a.TotalWeight != b.TotalWeight || a.NumEdges != b.NumEdges {
		t.Fatal("nondeterministic global result")
	}
	for r := range sharesA {
		if len(sharesA[r]) != len(sharesB[r]) {
			t.Fatalf("rank %d: nondeterministic share size", r)
		}
		for i := range sharesA[r] {
			if sharesA[r][i] != sharesB[r][i] {
				t.Fatalf("rank %d: nondeterministic edge %d", r, i)
			}
		}
	}
}

func TestResultIndependentOfWorldSize(t *testing.T) {
	spec := gen.Spec{Family: gen.RGG2D, N: 200, M: 900, Seed: 29}
	opt := Options{BaseCaseCap: 16}
	ref, _, _ := runDistributed(t, 1, 1, spec, opt, Boruvka)
	for _, p := range []int{2, 3, 5, 8} {
		got, _, _ := runDistributed(t, p, 1, spec, opt, Boruvka)
		if got.TotalWeight != ref.TotalWeight || got.NumEdges != ref.NumEdges {
			t.Fatalf("p=%d: (%d,%d) differs from p=1 (%d,%d)",
				p, got.TotalWeight, got.NumEdges, ref.TotalWeight, ref.NumEdges)
		}
	}
}

func TestFilterAgreesWithPlainBoruvka(t *testing.T) {
	for _, spec := range filterSpecs() {
		opt := Options{BaseCaseCap: 16}
		b, _, _ := runDistributed(t, 4, 1, spec, opt, Boruvka)
		f, _, _ := runDistributed(t, 4, 1, spec, opt, FilterBoruvka)
		if b.TotalWeight != f.TotalWeight || b.NumEdges != f.NumEdges {
			t.Fatalf("%s: boruvka (%d,%d) vs filterBoruvka (%d,%d)",
				spec.Label(), b.TotalWeight, b.NumEdges, f.TotalWeight, f.NumEdges)
		}
		checkRecursed(t, spec, 4, f)
	}
}

func TestFilterRecursionActuallyPartitions(t *testing.T) {
	// On a dense graph of 2·minEdgesPerPE directed edges per PE the
	// recursion must perform several base calls.
	spec := gen.Spec{Family: gen.GNM, N: 300, M: 4000, Seed: 31}
	opt := Options{BaseCaseCap: 16, NoLocalPreprocessing: true}
	res, shares, all := runDistributed(t, 4, 1, spec, opt, FilterBoruvka)
	if res.BaseCalls < 2 {
		t.Fatalf("expected a real recursion, got %d base calls", res.BaseCalls)
	}
	checkAgainstOracle(t, spec.Label(), res, shares, all)
}

func TestFilterWorkLinearOnDenseGraph(t *testing.T) {
	// Theorem 1: Filter-Borůvka does O(m) work. Its edge-touch counter,
	// summed over the PEs, must stay under one constant times the m directed
	// input edges as the dense GNM grows denser, and the recursion must
	// really partition each instance.
	const bound = 4
	for _, m := range []uint64{6000, 12000, 24000, 48000} {
		spec := gen.Spec{Family: gen.GNM, N: 600, M: m, Seed: 37}
		var dirM, sum, calls int
		comm.NewWorld(4).Run(func(c *comm.Comm) {
			edges, layout := gen.Build(c, spec, dsort.Options{})
			r := FilterBoruvka(c, edges, layout, Options{BaseCaseCap: 1, NoLocalPreprocessing: true})
			add := func(a, b int) int { return a + b }
			n, touched := comm.Allreduce(c, len(edges), add), comm.Allreduce(c, r.EdgesTouched, add)
			if c.Rank() == 0 {
				dirM, sum, calls = n, touched, r.BaseCalls
			}
		})
		t.Logf("m=%d: %d directed edges, %d touched (%.2f per edge), %d base calls", m, dirM, sum, float64(sum)/float64(dirM), calls)
		if calls < 2 {
			t.Fatalf("m=%d: %d base calls: the recursion did not partition", m, calls)
		}
		if sum >= bound*dirM {
			t.Fatalf("m=%d: %d edge-units touched for %d directed edges, want under %d per edge", m, sum, dirM, bound)
		}
	}
}

func TestPhaseTimesRecorded(t *testing.T) {
	spec := gen.Spec{Family: gen.GNM, N: 200, M: 800, Seed: 41}
	w := comm.NewWorld(4)
	w.Run(func(c *comm.Comm) {
		edges, layout := gen.Build(c, spec, dsort.Options{})
		Boruvka(c, edges, layout, Options{BaseCaseCap: 16, NoLocalPreprocessing: true})
	})
	ph := w.Phases()
	for _, name := range []string{PhaseMinEdges, PhaseContract, PhaseLabels, PhaseRedistribute, PhaseBaseCase} {
		if ph[name].Modeled <= 0 {
			t.Fatalf("phase %q not recorded: %+v", name, ph)
		}
	}
}

// TestForestSlotReusedAcrossJobs: Result.MSTEdges lives in the world's slot
// kMST until the next job on that world. A warm job's share reuses the
// slot's memory instead of allocating, and equals what the same job gave
// before — also after a job of the other algorithm on another instance
// has rewritten the slot in between. A caller that keeps a share across
// jobs must clone it, as this test does.
func TestForestSlotReusedAcrossJobs(t *testing.T) {
	const p = 4
	w := comm.NewWorld(p)
	run := func(spec gen.Spec, alg func(*comm.Comm, []graph.Edge, *graph.Layout, Options) Result) [][]graph.Edge {
		shares := make([][]graph.Edge, p)
		w.Run(func(c *comm.Comm) {
			edges, layout := gen.Build(c, spec, dsort.Options{})
			shares[c.Rank()] = alg(c, edges, layout, Options{BaseCaseCap: 2}).MSTEdges
		})
		return shares
	}
	rgg := gen.Spec{Family: gen.RGG2D, N: 600, M: 3000, Seed: 8}
	dense := gen.Spec{Family: gen.GNM, N: 300, M: 6000, Seed: 9}
	for _, tc := range []struct {
		name       string
		spec       gen.Spec
		alg, other func(*comm.Comm, []graph.Edge, *graph.Layout, Options) Result
	}{
		{"Boruvka", rgg, Boruvka, FilterBoruvka},
		{"FilterBoruvka", dense, FilterBoruvka, Boruvka},
	} {
		first := run(tc.spec, tc.alg)
		kept := make([][]graph.Edge, p)
		for r := range first {
			kept[r] = slices.Clone(first[r])
		}
		again := run(tc.spec, tc.alg)
		for r := range again {
			if len(again[r]) > 0 && &again[r][0] != &first[r][0] {
				t.Errorf("%s rank %d: a warm job's share is new memory, not slot kMST", tc.name, r)
			}
		}
		run(dense, tc.other)
		for r, sh := range run(tc.spec, tc.alg) {
			if !slices.Equal(sh, kept[r]) {
				t.Errorf("%s rank %d: the share differs from the first job's", tc.name, r)
			}
		}
	}
}

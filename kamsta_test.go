package kamsta

import (
	"context"
	"math/rand/v2"
	"slices"
	"testing"

	"kamsta/internal/comm"
	"kamsta/internal/radix"
)

// mustCompute runs one job on m with a background context or fails the
// test.
func mustCompute(t *testing.T, m *Machine, src Source, opts ...RunOption) *Report {
	t.Helper()
	rep, err := m.Compute(context.Background(), src, opts...)
	if err != nil {
		t.Fatalf("%s: %v", src.Label(), err)
	}
	return rep
}

func TestComputeTinyGraph(t *testing.T) {
	edges := []InputEdge{
		{U: 1, V: 2, W: 4},
		{U: 2, V: 3, W: 1},
		{U: 1, V: 3, W: 7},
	}
	m := newTestMachine(t, MachineConfig{PEs: 3})
	for _, alg := range Algorithms() {
		rep, err := m.Compute(context.Background(), FromEdges(edges), WithAlgorithm(alg))
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if rep.TotalWeight != 5 || rep.NumEdges != 2 {
			t.Fatalf("%s: weight=%d edges=%d want 5/2", alg, rep.TotalWeight, rep.NumEdges)
		}
		if len(rep.MSTEdges) != 2 {
			t.Fatalf("%s: MSTEdges=%v", alg, rep.MSTEdges)
		}
		for _, e := range rep.MSTEdges {
			if e.U >= e.V {
				t.Fatalf("%s: non-canonical output edge %+v", alg, e)
			}
		}
	}
}

func TestAllAlgorithmsAgreeOnSpec(t *testing.T) {
	spec := GraphSpec{Family: GNM, N: 300, M: 1200, Seed: 7}
	var weights []uint64
	m := newTestMachine(t, MachineConfig{PEs: 4})
	for _, alg := range Algorithms() {
		rep, err := m.Compute(context.Background(), FromSpec(spec), WithAlgorithm(alg))
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		weights = append(weights, rep.TotalWeight)
	}
	for i := 1; i < len(weights); i++ {
		if weights[i] != weights[0] {
			t.Fatalf("algorithms disagree: %v (order %v)", weights, Algorithms())
		}
	}
}

// TestReportOrderingCanonical: every algorithm (distributed and the
// sequential reference) reports its forest strictly increasing under the
// one shared (U, V, W) comparator — no per-path sort rules.
func TestReportOrderingCanonical(t *testing.T) {
	spec := GraphSpec{Family: RGG2D, N: 500, M: 2500, Seed: 13}
	m := newTestMachine(t, MachineConfig{PEs: 4})
	for _, alg := range Algorithms() {
		rep, err := m.Compute(context.Background(), FromSpec(spec), WithAlgorithm(alg))
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		for i := 1; i < len(rep.MSTEdges); i++ {
			if !canonicalEdgeLess(rep.MSTEdges[i-1], rep.MSTEdges[i]) {
				t.Fatalf("%s: MSTEdges[%d..%d] not strictly canonical: %+v, %+v",
					alg, i-1, i, rep.MSTEdges[i-1], rep.MSTEdges[i])
			}
		}
	}
}

// randomCanonicalEdges draws n canonical (U < V) edges with labels below
// span, so a small span gives equal endpoint pairs and exact duplicates.
func randomCanonicalEdges(r *rand.Rand, n int, span uint64) []InputEdge {
	es := make([]InputEdge, n)
	for i := range es {
		u, v := 1+r.Uint64N(span-1), 1+r.Uint64N(span-1)
		for u == v {
			v = 1 + r.Uint64N(span-1)
		}
		es[i] = InputEdge{U: min(u, v), V: max(u, v), W: r.Uint32N(4)}
	}
	return es
}

// sortMSTEdges puts a forest into report order by radix sort with the
// Report's own key: the report tests' reference sort.
func sortMSTEdges(es []InputEdge) { radix.Sort(es, mstKey, canonicalEdgeLess) }

// TestSortMSTEdgesMatchesComparator: the radix sort puts a forest in the
// order the comparator sort gives, with weight breaking equal (U, V), exact
// duplicates, labels up to 2^32 − 1 and the smallest inputs.
func TestSortMSTEdgesMatchesComparator(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	top := InputEdge{U: 1<<32 - 2, V: 1<<32 - 1, W: 7}
	cases := [][]InputEdge{
		nil,
		{top},
		{top, {U: 1, V: 1<<32 - 1, W: 1}},
		{{U: 3, V: 4, W: 2}, {U: 3, V: 4, W: 1}},
		{{U: 3, V: 4, W: 2}, {U: 3, V: 4, W: 2}, {U: 1, V: 2, W: 9}, {U: 3, V: 4, W: 2}},
		{top, {U: 1<<32 - 2, V: 1<<32 - 1, W: 0}, {U: 1 << 31, V: 1<<32 - 1}, top},
	}
	for _, span := range []uint64{8, 1 << 12, 1 << 32} {
		cases = append(cases, randomCanonicalEdges(r, 5000, span))
	}
	for i, es := range cases {
		want := slices.Clone(es)
		slices.SortFunc(want, radix.CmpOf(canonicalEdgeLess))
		got := slices.Clone(es)
		sortMSTEdges(got)
		if !slices.Equal(got, want) {
			t.Errorf("case %d (%d edges): radix order differs from the comparator's", i, len(es))
		}
	}
}

func TestComputeValidation(t *testing.T) {
	m := newTestMachine(t, MachineConfig{})
	ctx := context.Background()
	if _, err := m.Compute(ctx, FromEdges([]InputEdge{{U: 0, V: 1, W: 1}})); err == nil {
		t.Fatal("label 0 should be rejected")
	}
	if _, err := m.Compute(ctx, FromEdges([]InputEdge{{U: 2, V: 2, W: 1}})); err == nil {
		t.Fatal("self-loop should be rejected")
	}
	if _, err := m.Compute(ctx, FromEdges([]InputEdge{{U: 1 << 33, V: 1, W: 1}})); err == nil {
		t.Fatal("huge label should be rejected")
	}
	if _, err := m.Compute(ctx, FromEdges(nil), WithAlgorithm("nope")); err == nil {
		t.Fatal("unknown algorithm should be rejected")
	}
}

func TestReportMetricsPopulated(t *testing.T) {
	spec := GraphSpec{Family: RGG2D, N: 400, M: 1600, Seed: 9}
	rep := mustCompute(t, newTestMachine(t, MachineConfig{PEs: 4, Threads: 2}), FromSpec(spec))
	if rep.ModeledSeconds <= 0 || rep.WallSeconds <= 0 {
		t.Fatalf("times not measured: %+v", rep)
	}
	if rep.EdgesPerSecond <= 0 {
		t.Fatal("throughput not computed")
	}
	if rep.InputVertices == 0 || rep.InputEdges == 0 {
		t.Fatal("input size not recorded")
	}
	if len(rep.Phases) == 0 {
		t.Fatal("phase breakdown missing")
	}
	if rep.Stats.Collectives == 0 {
		t.Fatal("traffic stats missing")
	}
}

func TestModeledTimeExcludesGeneration(t *testing.T) {
	// The same tiny algorithm workload on a huge vs small generation cost
	// should report similar modeled seconds. Compare a run against itself
	// with a second-generation spec: here we simply assert the modeled
	// time is far below the time a full re-sort of the input would cost,
	// which would dominate if generation leaked into the measurement.
	spec := GraphSpec{Family: Grid2D, N: 900, Seed: 3}
	rep := mustCompute(t, newTestMachine(t, MachineConfig{PEs: 4}), FromSpec(spec))
	if rep.ModeledSeconds <= 0 {
		t.Fatal("no modeled time")
	}
	// Phase times must roughly add up to the makespan (they cover the
	// whole algorithm; misc slack allowed).
	sum := 0.0
	for _, pt := range rep.Phases {
		sum += pt.Modeled
	}
	if sum > rep.ModeledSeconds*1.5+1e-6 {
		t.Fatalf("phases (%.3e) exceed makespan (%.3e)", sum, rep.ModeledSeconds)
	}
}

// TestSequentialMatchesDistributedOnUserEdges: the Kruskal reference and
// Filter-Borůvka report the same forest and the same instance on user edges
// with parallel copies (of equal and of different weights) and tied
// weights, in shared memory and over loopback TCP.
func TestSequentialMatchesDistributedOnUserEdges(t *testing.T) {
	var edges []InputEdge
	for i := uint64(1); i < 60; i++ {
		edges = append(edges, InputEdge{U: i, V: i + 1, W: uint32(i*7%13 + 1)})
		if i%3 == 0 {
			edges = append(edges, InputEdge{U: i, V: i + 2, W: uint32(i*5%17 + 1)})
		}
		if i%4 == 0 {
			edges = append(edges, InputEdge{U: i + 1, V: i, W: uint32(i*7%13 + 1)}, InputEdge{U: i, V: i + 1, W: 3})
		}
		if i%5 == 0 {
			edges = append(edges, InputEdge{U: i, V: i + 3, W: 2}, InputEdge{U: i + 3, V: i, W: 2})
		}
	}
	for name, m := range map[string]*Machine{
		"shm": newTestMachine(t, MachineConfig{PEs: 5}),
		"tcp": tcpMachine(t, 5, 2),
	} {
		seq := mustCompute(t, m, FromEdges(edges), WithAlgorithm(AlgKruskal))
		dist := mustCompute(t, m, FromEdges(edges), WithAlgorithm(AlgFilterBoruvka))
		if seq.TotalWeight != dist.TotalWeight || seq.NumEdges != dist.NumEdges ||
			seq.InputVertices != dist.InputVertices || seq.InputEdges != dist.InputEdges {
			t.Errorf("%s: sequential weight %d, %d edges, input %d/%d; distributed %d, %d edges, input %d/%d", name,
				seq.TotalWeight, seq.NumEdges, seq.InputVertices, seq.InputEdges,
				dist.TotalWeight, dist.NumEdges, dist.InputVertices, dist.InputEdges)
		}
		if !slices.Equal(seq.MSTEdges, dist.MSTEdges) {
			t.Errorf("%s: forests differ:\nsequential  %v\ndistributed %v", name, seq.MSTEdges, dist.MSTEdges)
		}
	}
}

func TestThreadsSpeedUpModeledTime(t *testing.T) {
	spec := GraphSpec{Family: RGG2D, N: 2000, M: 10000, Seed: 5}
	one := mustCompute(t, newTestMachine(t, MachineConfig{PEs: 2, Threads: 1}), FromSpec(spec))
	eight := mustCompute(t, newTestMachine(t, MachineConfig{PEs: 2, Threads: 8}), FromSpec(spec))
	if eight.ModeledSeconds >= one.ModeledSeconds {
		t.Fatalf("8 threads (%.3e) not faster than 1 (%.3e) on a local graph",
			eight.ModeledSeconds, one.ModeledSeconds)
	}
}

// TestThreadsDoNotChangeTheForest is the north star's "bit-identical across
// thread counts" for everything but the clock: 8000 directed edges per PE
// are far above par's 2·512 cut-off, so on 2 and 8 threads For and the two
// ForBlocks pack loops (RELABEL's, the partition's) really fan out on the
// pool the world built, and the forest, the algorithm structure and the
// traffic must not notice.
func TestThreadsDoNotChangeTheForest(t *testing.T) {
	for _, spec := range []GraphSpec{
		{Family: RGG2D, N: 4000, M: 16000, Seed: 5},
		{Family: GNM, N: 2000, M: 16000, Seed: 6},
	} {
		for _, alg := range DistributedAlgorithms() {
			var want *Report
			for _, threads := range []int{1, 2, 8} {
				got := mustCompute(t, newTestMachine(t, MachineConfig{PEs: 4, Threads: threads}),
					FromSpec(spec), WithAlgorithm(alg))
				if want == nil {
					want = got
					continue
				}
				if !slices.Equal(got.MSTEdges, want.MSTEdges) || got.TotalWeight != want.TotalWeight ||
					got.Rounds != want.Rounds || got.BaseCalls != want.BaseCalls || got.Stats != want.Stats {
					t.Errorf("%s %s: %d threads: weight %d rounds %d base calls %d stats %+v (%d edges); 1 thread: weight %d rounds %d base calls %d stats %+v (%d edges)",
						spec.Family, alg, threads, got.TotalWeight, got.Rounds, got.BaseCalls, got.Stats, len(got.MSTEdges),
						want.TotalWeight, want.Rounds, want.BaseCalls, want.Stats, len(want.MSTEdges))
				}
			}
		}
	}
}

func TestCustomCostModel(t *testing.T) {
	spec := GraphSpec{Family: GNM, N: 200, M: 800, Seed: 11}
	slow := comm.CostModel{Alpha: 1e-3, Beta: 1e-7, Compute: 1e-7}
	a := mustCompute(t, newTestMachine(t, MachineConfig{PEs: 4, Cost: slow}), FromSpec(spec))
	b := mustCompute(t, newTestMachine(t, MachineConfig{PEs: 4}), FromSpec(spec))
	if a.ModeledSeconds <= b.ModeledSeconds {
		t.Fatalf("slower machine model (%.3e) should cost more than default (%.3e)",
			a.ModeledSeconds, b.ModeledSeconds)
	}
	if a.TotalWeight != b.TotalWeight {
		t.Fatal("cost model must not change the result")
	}
}

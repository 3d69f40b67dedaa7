package core

import (
	"context"
	"slices"
	"testing"

	"kamsta/internal/arena"
	"kamsta/internal/comm"
	"kamsta/internal/dsort"
	"kamsta/internal/gen"
	"kamsta/internal/graph"
	"kamsta/internal/obs"
	"kamsta/internal/rng"
)

// Hot-path microbenchmarks for the per-round vertex bookkeeping. They run on
// a 1-PE world so the numbers isolate the local work (table upkeep, lookup,
// allocation) of one Borůvka round rather than the simulated wire. One
// warm-up call before the timer puts the arena in steady state — the regime
// every round after the first runs in.
var benchSpec = gen.Spec{Family: gen.GNM, N: 1 << 12, M: 1 << 15, Seed: 42}

func benchWorld(f func(c *comm.Comm, edges []graph.Edge, l *graph.Layout)) {
	w := comm.NewWorld(1)
	w.Run(func(c *comm.Comm) {
		edges, layout := gen.Build(c, benchSpec, dsort.Options{})
		f(c, edges, layout)
	})
}

// shuffleEdges returns a deterministically shuffled copy: the sorters'
// real inputs (raw generator output, freshly relabeled rounds) are
// unsorted, while gen.Build hands back sorted data — benchmarking that
// directly would only measure the already-sorted fast paths.
func shuffleEdges(edges []graph.Edge, seed uint64) []graph.Edge {
	out := make([]graph.Edge, len(edges))
	copy(out, edges)
	r := rng.New(seed)
	for i := len(out) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// BenchmarkDsortP1 isolates the local phase of the distributed sorter (the
// dominant allocator of every job before PR 5): one PE, the full benchSpec
// edge set, (U,V)-keyed radix local sort, arena-backed output. Steady-state
// allocs/op must be zero — asserted by TestDsortSteadyStateAllocsFloor.
func BenchmarkDsortP1(b *testing.B) {
	benchWorld(func(c *comm.Comm, edges []graph.Edge, l *graph.Layout) {
		in := shuffleEdges(edges, 99)
		ord := dsort.ByKey(graph.LessLex, graph.KeyLex)
		dsort.Sort(c, in, ord, dsort.Options{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dsort.Sort(c, in, ord, dsort.Options{})
		}
	})
}

// BenchmarkDsortSampleSortP8 runs the full distributed sample sort on 8 PEs
// (2^13 unsorted edges per PE): what remains in allocs/op is the
// collective-internal floor (wire frames, staged copies), not per-call
// vertex/edge buffers.
func BenchmarkDsortSampleSortP8(b *testing.B) {
	w := comm.NewWorld(8)
	w.Run(func(c *comm.Comm) {
		edges, _ := gen.Build(c, gen.Spec{Family: gen.GNM, N: 1 << 12, M: 1 << 15, Seed: 42}, dsort.Options{})
		local := shuffleEdges(edges[:min(len(edges), 1<<13)], uint64(c.Rank()))
		ord := dsort.ByKey(graph.LessLex, graph.KeyLex)
		dsort.Sort(c, local, ord, dsort.Options{})
		if c.Rank() == 0 {
			b.ReportAllocs()
			b.ResetTimer()
		}
		comm.Barrier(c)
		for i := 0; i < b.N; i++ {
			dsort.Sort(c, local, ord, dsort.Options{})
		}
	})
}

// gnmFilterSpec is the gnm-filter workload's instance: GNM, n = 2^14,
// m = 2^20, 2.1 M directed edges.
var gnmFilterSpec = gen.Spec{Family: gen.GNM, N: 1 << 14, M: 1 << 20, Seed: 42}

// BenchmarkGenFinishP16 finishes gnmFilterSpec's edges on 16 PEs: one
// sample sort, a dedup and two rebalances of 32-byte edges, the input path
// of file-backed instances. GNM is generated in order, so every PE takes
// every 16th edge of the whole sequence, shuffled: an unsorted input whose
// keys span the range, as generation in edge-index order gave. Each
// iteration finishes a fresh copy of that input (Finish filters its input
// in place); the copy is inside the timer.
func BenchmarkGenFinishP16(b *testing.B) {
	const p = 16
	generated := make([][]graph.Edge, p)
	comm.NewWorld(p).Run(func(c *comm.Comm) {
		generated[c.Rank()] = gen.Generate(c, gnmFilterSpec)
		comm.Barrier(c)
		var raw []graph.Edge
		k := 0
		for _, chunk := range generated {
			for _, e := range chunk {
				if k%p == c.Rank() {
					raw = append(raw, e)
				}
				k++
			}
		}
		raw = shuffleEdges(raw, uint64(c.Rank()))
		in := make([]graph.Edge, len(raw))
		copy(in, raw)
		gen.Finish(c, in, dsort.Options{})
		if c.Rank() == 0 {
			b.ReportAllocs()
			b.ResetTimer()
		}
		comm.Barrier(c)
		for i := 0; i < b.N; i++ {
			copy(in, raw)
			gen.Finish(c, in, dsort.Options{})
		}
	})
}

// BenchmarkBuildGNMP16 builds gnmFilterSpec on 16 PEs as the gnm-filter
// workload does: gen.Build generates each chunk in (U, V) order into
// Finish's slot, verifies the order, dedups, numbers, rebalances and builds
// the layout.
func BenchmarkBuildGNMP16(b *testing.B) {
	comm.NewWorld(16).Run(func(c *comm.Comm) {
		gen.Build(c, gnmFilterSpec, dsort.Options{})
		if c.Rank() == 0 {
			b.ReportAllocs()
			b.ResetTimer()
		}
		comm.Barrier(c)
		for i := 0; i < b.N; i++ {
			gen.Build(c, gnmFilterSpec, dsort.Options{})
		}
	})
}

// TestDsortSteadyStateAllocsFloor pins the tentpole's de-allocation claim:
// after warm-up, a 1-PE sort (no collectives, so no substrate floor)
// performs ZERO heap allocations per call — every buffer, including the
// returned chunk, lives in the world-owned arena.
func TestDsortSteadyStateAllocsFloor(t *testing.T) {
	w := comm.NewWorld(1)
	w.Run(func(c *comm.Comm) {
		edges, _ := gen.Build(c, benchSpec, dsort.Options{})
		ord := dsort.ByKey(graph.LessLex, graph.KeyLex)
		dsort.Sort(c, edges, ord, dsort.Options{}) // warm the arena
		allocs := testing.AllocsPerRun(5, func() {
			dsort.Sort(c, edges, ord, dsort.Options{})
		})
		if allocs != 0 {
			t.Errorf("steady-state p=1 dsort.Sort allocates %v times per call, want 0", allocs)
		}
	})
}

// TestDsortSteadyStateAllocsFloorObserved repeats the zero-alloc floor with
// the observability subsystem fully armed — metrics registry on the world,
// span tracing on the job. Observation must not add a single allocation to
// the steady-state hot path: instruments are resolved once into plain
// pointers at job start and spans land in a preallocated world-owned ring.
func TestDsortSteadyStateAllocsFloorObserved(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTrace()
	w := comm.NewWorld(1, comm.WithMetrics(reg))
	err := w.RunJobCfg(context.Background(), comm.JobConfig{Trace: tr}, func(c *comm.Comm) {
		edges, _ := gen.Build(c, benchSpec, dsort.Options{})
		ord := dsort.ByKey(graph.LessLex, graph.KeyLex)
		dsort.Sort(c, edges, ord, dsort.Options{}) // warm the arena
		allocs := testing.AllocsPerRun(5, func() {
			dsort.Sort(c, edges, ord, dsort.Options{})
		})
		if allocs != 0 {
			t.Errorf("steady-state observed p=1 dsort.Sort allocates %v times per call, want 0", allocs)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// BenchmarkLocalPreprocess runs LOCALPREPROCESSING (§IV-A) on the family it
// exists for: 2D-RGG on 4 PEs, 2^12 vertices and 2^16 directed edges per PE,
// the paper's options. After the warm-up call localmst's working set and
// Result live in the PE's arena and the label table and the relabelled edges
// stay in them; what still allocates per call is the MST append, radix.Sort's
// scratch and the collectives.
func BenchmarkLocalPreprocess(b *testing.B) {
	benchPreprocess(b, 4, gen.Spec{Family: gen.RGG2D, N: 1 << 14, M: 1 << 17, Seed: 42})
}

// BenchmarkLocalPreprocessP16 is the same at the rgg-boruvka workload's
// per-PE shape: 16 PEs, 2^17 vertices and 2^20 edges, about 123k directed
// edges per PE.
func BenchmarkLocalPreprocessP16(b *testing.B) {
	benchPreprocess(b, 16, gen.Spec{Family: gen.RGG2D, N: 1 << 17, M: 1 << 20, Seed: 42})
}

func benchPreprocess(b *testing.B, p int, spec gen.Spec) {
	w := comm.NewWorld(p)
	w.Run(func(c *comm.Comm) {
		edges, l := gen.Build(c, spec, dsort.Options{})
		opt := Options{}.withDefaults()
		var mst []graph.Edge
		localPreprocess(c, edges, l, opt, &mst, nil)
		if c.Rank() == 0 {
			b.ReportAllocs()
			b.ResetTimer()
		}
		comm.Barrier(c)
		for i := 0; i < b.N; i++ {
			mst = mst[:0]
			localPreprocess(c, edges, l, opt, &mst, nil)
		}
	})
}

func BenchmarkMinEdges(b *testing.B) {
	benchWorld(func(c *comm.Comm, edges []graph.Edge, l *graph.Layout) {
		minEdges(c, edges, l)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			minEdges(c, edges, l)
		}
	})
}

func BenchmarkContractComponents(b *testing.B) {
	benchWorld(func(c *comm.Comm, edges []graph.Edge, l *graph.Layout) {
		opt := Options{}.withDefaults()
		mins := minEdges(c, edges, l)
		var mst []graph.Edge
		contractComponents(c, edges, l, mins, opt, &mst)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mst = mst[:0]
			contractComponents(c, edges, l, mins, opt, &mst)
		}
	})
}

func BenchmarkRelabelFilter(b *testing.B) {
	benchWorld(func(c *comm.Comm, edges []graph.Edge, l *graph.Layout) {
		opt := Options{}.withDefaults()
		mins := minEdges(c, edges, l)
		var mst []graph.Edge
		labels := contractComponents(c, edges, l, mins, opt, &mst)
		tbl := relabelTable{lab: labels, ghost: exchangeLabels(c, edges, l, labels, opt), strict: l}
		out := arena.Grab[graph.Edge](c.Scratch(), kRelabelOut, len(edges))
		relabelPack(c, out, edges, &tbl)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			relabelPack(c, out, edges, &tbl)
		}
	})
}

// BenchmarkPartitionAtPivot and BenchmarkFilterSegment time FILTER's two
// local kernels on one PE of the gnm-filter workload (filterShape), at the
// state filterFixture leaves: the in-place split of the whole input, and the
// filter of its heavy half through a P holding the light half's
// contractions. At p = 1 the collectives inside are free, so the numbers are
// the bitmap, the rename table, the pack loops and the local sort.
func BenchmarkPartitionAtPivot(b *testing.B) {
	w := comm.NewWorld(1)
	w.Run(func(c *comm.Comm) {
		edges, _ := gen.Build(c, filterShape, dsort.Options{})
		_, owned, pivot, _ := filterFixture(c, edges, Options{})
		b.ReportAllocs()
		b.SetBytes(int64(len(owned)) * 40)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			partitionAtPivot(c, owned, owned, pivot)
		}
	})
}

func BenchmarkFilterSegment(b *testing.B) {
	w := comm.NewWorld(1)
	w.Run(func(c *comm.Comm) {
		edges, _ := gen.Build(c, filterShape, dsort.Options{})
		opt := Options{}
		P, _, _, heavy := filterFixture(c, edges, opt)
		filterSegment(c, heavy, P, opt)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			filterSegment(c, heavy, P, opt)
		}
	})
}

// BenchmarkFilterBoruvkaDenseGNM times a warm FilterBoruvka on denseGNM at
// p = 4, whole: preprocessing's check, the partition, the light half's
// solve, the filter and the MST's way home. Its B/op is what a job of the
// algorithm allocates; a copy of the input would show as 8 MB more.
func BenchmarkFilterBoruvkaDenseGNM(b *testing.B) {
	comm.NewWorld(4).Run(func(c *comm.Comm) {
		edges, layout := gen.Build(c, denseGNM, dsort.Options{})
		FilterBoruvka(c, edges, layout, Options{})
		comm.Barrier(c)
		if c.Rank() == 0 {
			b.ReportAllocs()
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			FilterBoruvka(c, edges, layout, Options{})
		}
	})
}

// BenchmarkResolveDenseGNM times FILTER's lookup through P on the dense-GNM
// instance (GNM n = 2^14, m = 2^20, 16 PEs): the first filter step's
// resolve of the heavy half's distinct endpoints, with P as the light
// half's solve left it, so every call flattens P first and then asks one
// hop.
func BenchmarkResolveDenseGNM(b *testing.B) {
	comm.NewWorld(16).Run(func(c *comm.Comm) {
		edges, _ := gen.Build(c, gen.Spec{Family: gen.GNM, N: 1 << 14, M: 1 << 20, Seed: 3}, dsort.Options{})
		opt := Options{BaseCaseCap: 128}.withDefaults()
		P, _, _, heavy := filterFixture(c, edges, opt)
		set := newLabelSet(c.Scratch(), kFilterVs, P.n, denseWindow(P.n, 2*len(heavy.edges)))
		for _, e := range heavy.edges {
			set.add(e.U)
			set.add(e.V)
		}
		vs := slices.Clone(set.sorted())
		recorded := slices.Clone(P.tbl)
		comm.Barrier(c)
		if c.Rank() == 0 {
			b.ReportAllocs()
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			copy(P.tbl, recorded)
			P.dirty = true
			P.resolve(c, vs, opt)
		}
	})
}

// boruvkaShape is the gnm-boruvka workload's instance: GNM, n = 2^15,
// m = 2^19 (1 M directed edges, 65 k per PE at p = 16), the input where
// EXCHANGELABELS and the base case do the most lookups per message.
var boruvkaShape = gen.Spec{Family: gen.GNM, N: 1 << 15, M: 1 << 19, Seed: 42}

// BenchmarkExchangeLabels times EXCHANGELABELS of the first Borůvka round of
// boruvkaShape on 16 PEs: the owner of every cut edge's reverse copy, the
// per-owner dedup, one all-to-all and the ghost table's index.
func BenchmarkExchangeLabels(b *testing.B) {
	comm.NewWorld(16).Run(func(c *comm.Comm) {
		edges, l := gen.Build(c, boruvkaShape, dsort.Options{})
		opt := Options{}.withDefaults()
		var mst []graph.Edge
		labels := contractComponents(c, edges, l, minEdges(c, edges, l), opt, &mst)
		exchangeLabels(c, edges, l, labels, opt)
		if c.Rank() == 0 {
			b.ReportAllocs()
			b.ResetTimer()
		}
		comm.Barrier(c)
		for i := 0; i < b.N; i++ {
			exchangeLabels(c, edges, l, labels, opt)
			comm.Barrier(c) // a call site builds its next frame one collective later
		}
	})
}

// BenchmarkBaseCase times the base case (§IV-D) of boruvkaShape on 16 PEs,
// entered where a Borůvka job enters it: after the distributed rounds have
// brought the vertex count under the threshold. Its remap reads one index
// per endpoint over the replicated vertex list.
func BenchmarkBaseCase(b *testing.B) {
	comm.NewWorld(16).Run(func(c *comm.Comm) {
		work, l := gen.Build(c, boruvkaShape, dsort.Options{})
		opt := Options{}.withDefaults()
		var mst []graph.Edge
		distributedRounds(c, &work, &l, opt, &mst, nil)
		baseCase(c, work, l, &mst, nil)
		if c.Rank() == 0 {
			b.ReportAllocs()
			b.ResetTimer()
		}
		comm.Barrier(c)
		for i := 0; i < b.N; i++ {
			mst = mst[:0]
			baseCase(c, work, l, &mst, nil)
		}
	})
}

// TestBaseCaseSteadyStateAllocs: a warm second base case on the same world
// allocates nothing of its own — its remap window, replicated vertex list,
// working edges and forest are arena slots. What is left is the floor of the
// collectives it runs, measured on the same world: one vertex gather and one
// AllreduceVec per round.
func TestBaseCaseSteadyStateAllocs(t *testing.T) {
	w := comm.NewWorld(1)
	var edges []graph.Edge
	var l *graph.Layout
	mst := make([]graph.Edge, 0, benchSpec.N)
	w.Run(func(c *comm.Comm) {
		edges, l = gen.Build(c, benchSpec, dsort.Options{})
		baseCase(c, edges, l, &mst, nil) // warm the arena
	})
	w.ResetMetrics()
	const runs = 10 // an average: a stray allocation of the runtime's does not count whole
	var allocs, gather, reduce float64
	w.Run(func(c *comm.Comm) {
		allocs = testing.AllocsPerRun(runs, func() {
			mst = mst[:0]
			baseCase(c, edges, l, &mst, nil)
		})
	})
	rounds := int(w.TotalStats().Collectives)/(runs+1) - 1 // AllocsPerRun adds one unmeasured call
	w.Run(func(c *comm.Comm) {
		verts, dst, vec, out := []graph.VID{1, 2, 3}, []graph.VID(nil), make([]cand, 8), make([]cand, 8)
		gather = testing.AllocsPerRun(runs, func() { dst = comm.AllgatherConcatInto(c, dst[:0], verts) })
		reduce = testing.AllocsPerRun(runs, func() { comm.AllreduceVec(c, out, vec, func(a, _ cand) cand { return a }) })
	})
	floor := gather + float64(rounds)*reduce
	t.Logf("%v allocations in a warm base case of %d rounds; collective floor %v", allocs, rounds, floor)
	if allocs > floor {
		t.Errorf("a warm base case allocates %v times, the collectives it runs %v", allocs, floor)
	}
}

package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"kamsta/internal/arena"
	"kamsta/internal/comm"
	"kamsta/internal/dsort"
	"kamsta/internal/gen"
	"kamsta/internal/graph"
	"kamsta/internal/rng"
)

// filterRun is everything of one job an outside observer can tell apart: the
// forest, the algorithm's structure, the traffic (per phase too) and the
// modeled clock.
type filterRun struct {
	res    Result
	shares [][]graph.Edge
	stats  comm.Stats
	clock  float64
	phases map[string]comm.PhaseTime

	windows int // index window slots rank 0 grabbed (not observable from outside)
}

// runFilter runs Filter-Borůvka on a fresh p-PE world over spec with every
// label v moved to 1+(v-1)·spread — monotone, so the input format and the
// (W, TB) order hold.
func runFilter(t *testing.T, p, threads int, spec gen.Spec, spread uint64, opt Options) (filterRun, []graph.Edge) {
	t.Helper()
	return runAlg(t, p, threads, spec, spread, opt, FilterBoruvka)
}

// runAlg is runFilter for either algorithm.
func runAlg(t *testing.T, p, threads int, spec gen.Spec, spread uint64, opt Options,
	alg func(*comm.Comm, []graph.Edge, *graph.Layout, Options) Result) (filterRun, []graph.Edge) {
	t.Helper()
	w := comm.NewWorld(p, comm.WithThreads(threads))
	out := filterRun{shares: make([][]graph.Edge, p)}
	inputs := make([][]graph.Edge, p)
	w.Run(func(c *comm.Comm) {
		edges, layout := gen.Build(c, spec, dsort.Options{})
		if spread > 1 {
			for i := range edges {
				edges[i].U = 1 + (edges[i].U-1)*spread
				edges[i].V = 1 + (edges[i].V-1)*spread
				edges[i].TB = graph.MakeTB(edges[i].U, edges[i].V)
			}
			layout = graph.BuildLayout(c, edges)
		}
		inputs[c.Rank()] = edges
		r := alg(c, edges, layout, opt)
		out.shares[c.Rank()] = r.MSTEdges
		if c.Rank() == 0 {
			r.MSTEdges = nil
			out.res = r
			for _, k := range []arena.Key{kDirect, kGhostWin, kBaseWin, kResWin, kFilterWin} {
				if cap(arena.GrabAppend[int32](c.Scratch(), k)) > 0 {
					out.windows++
				}
			}
		}
	})
	out.stats, out.clock, out.phases = w.TotalStats(), w.MaxClock(), w.Phases()
	return out, slices.Concat(inputs...)
}

// pathSpec is large enough that at 16 PEs a segment still spans two pool
// blocks, and dense enough that the recursion partitions, filters and merges
// back.
var (
	pathSpec = gen.Spec{Family: gen.GNM, N: 2000, M: 24000, Seed: 6}
	pathOpt  = Options{NoLocalPreprocessing: true, BaseCaseCap: 16} // no preprocessing: at p = 1 it would solve everything
)

// TestFilterPathsIndistinguishable drives one instance through FILTER's
// dense path (bitmap, direct windows) and through its sparse fallback (sort,
// binary search) and holds everything observable equal — forest, rounds,
// base calls, messages, bytes, supersteps and the modeled clock to the bit —
// at every thread count. The kernels may differ; what they send may not.
func TestFilterPathsIndistinguishable(t *testing.T) {
	defer func() { forceSparseLabels = false }()
	for _, p := range []int{1, 3, 16} {
		var want filterRun
		for _, sparse := range []bool{false, true} {
			for _, threads := range []int{1, 2, 8} {
				forceSparseLabels = sparse
				got, all := runFilter(t, p, threads, pathSpec, 1, pathOpt)
				label := fmt.Sprintf("p=%d threads=%d sparse=%v", p, threads, sparse)
				if want.shares == nil {
					want = got
					checkAgainstOracle(t, label, got.res, got.shares, all)
					if got.res.BaseCalls < 2 {
						t.Fatalf("%s: %d base calls: the recursion did not filter", label, got.res.BaseCalls)
					}
					continue
				}
				for r := range got.shares {
					if !slices.Equal(got.shares[r], want.shares[r]) {
						t.Fatalf("%s: rank %d's MST share differs from the dense 1-thread run", label, r)
					}
				}
				g, w := got.res, want.res
				if g.TotalWeight != w.TotalWeight || g.Rounds != w.Rounds || g.BaseCalls != w.BaseCalls ||
					g.EdgesTouched != w.EdgesTouched || got.stats != want.stats {
					t.Errorf("%s: weight %d rounds %d base calls %d touched %d stats %+v; dense 1-thread: %d %d %d %d %+v",
						label, g.TotalWeight, g.Rounds, g.BaseCalls, g.EdgesTouched, got.stats,
						w.TotalWeight, w.Rounds, w.BaseCalls, w.EdgesTouched, want.stats)
				}
				// Threads divide the compute charge; the path must not touch it.
				if threads == 1 && got.clock != want.clock {
					t.Errorf("%s: modeled %v, dense path %v", label, got.clock, want.clock)
				}
			}
		}
	}
}

// TestRoundPathsIndistinguishable widens the same check to every table of the
// rounds and the base case: GNM, RGG2D and a wide-span instance (labels 64
// apart, where some tables fail the window rule by themselves) × p ∈ {3, 8,
// 16} × both algorithms, each once with the index windows and FILTER's
// bitmap the data picks and once with all of them forced off. Forest, rounds,
// base calls, traffic and modeled time per phase and the modeled clock must
// be identical to the bit, and the first run must really have indexed.
func TestRoundPathsIndistinguishable(t *testing.T) {
	defer func() { forceSparseLabels = false }()
	instances := []struct {
		spec   gen.Spec
		spread uint64
	}{
		{gen.Spec{Family: gen.GNM, N: 1500, M: 12000, Seed: 8}, 1},
		{gen.Spec{Family: gen.RGG2D, N: 1500, M: 12000, Seed: 9}, 1},
		{gen.Spec{Family: gen.GNM, N: 1500, M: 12000, Seed: 10}, 64},
	}
	algs := map[string]func(*comm.Comm, []graph.Edge, *graph.Layout, Options) Result{
		"boruvka": Boruvka, "filterBoruvka": FilterBoruvka,
	}
	opt := pathOpt
	opt.NoLocalPreprocessing = false
	for _, in := range instances {
		for _, p := range []int{3, 8, 16} {
			for name, alg := range algs {
				label := fmt.Sprintf("%s %v×%d p=%d", name, in.spec.Family, in.spread, p)
				forceSparseLabels = false
				want, all := runAlg(t, p, 1, in.spec, in.spread, opt, alg)
				forceSparseLabels = true
				got, _ := runAlg(t, p, 1, in.spec, in.spread, opt, alg)
				checkAgainstOracle(t, label, want.res, want.shares, all)
				// The RGG's preprocessing leaves too few edges to partition.
				if name == "filterBoruvka" && in.spec.Family == gen.GNM && want.res.BaseCalls < 2 {
					t.Fatalf("%s: %d base calls: the recursion did not partition", label, want.res.BaseCalls)
				}
				if in.spread == 1 && want.windows == 0 || got.windows != 0 {
					t.Fatalf("%s: %d index windows grabbed with the rule, %d forced off", label, want.windows, got.windows)
				}
				for r := range got.shares {
					if !slices.Equal(got.shares[r], want.shares[r]) {
						t.Fatalf("%s: rank %d's MST share differs between the paths", label, r)
					}
				}
				g, w := got.res, want.res
				if g.TotalWeight != w.TotalWeight || g.Rounds != w.Rounds || g.BaseCalls != w.BaseCalls ||
					!slices.Equal(g.VertexCounts, w.VertexCounts) || got.stats != want.stats || got.clock != want.clock {
					t.Errorf("%s: searched %+v %+v %v; indexed %+v %+v %v", label, g, got.stats, got.clock, w, want.stats, want.clock)
				}
				if len(got.phases) != len(want.phases) {
					t.Errorf("%s: %d phases searched, %d indexed", label, len(got.phases), len(want.phases))
				}
				for ph, wp := range want.phases {
					if gp := got.phases[ph]; gp.Stats != wp.Stats || gp.Modeled != wp.Modeled {
						t.Errorf("%s: phase %s searched %+v %v, indexed %+v %v", label, ph, gp.Stats, gp.Modeled, wp.Stats, wp.Modeled)
					}
				}
			}
		}
	}
}

// TestFilterSparseLabelSpace spreads the same instance's labels so far apart
// that the rule itself refuses the bitmap (no toggle): the fallback is the
// path the data picks, and the forest is still Kruskal's.
func TestFilterSparseLabelSpace(t *testing.T) {
	const spread = 1 << 10
	for _, p := range []int{1, 3, 16} {
		if n, slots := pathSpec.N*spread, 4*int(pathSpec.M)/p; denseWindow(n, slots) {
			t.Fatalf("p=%d: a label space of %d passes the rule for %d slots; spread further", p, n, slots)
		}
		got, all := runFilter(t, p, 2, pathSpec, spread, pathOpt)
		checkAgainstOracle(t, fmt.Sprintf("spread p=%d", p), got.res, got.shares, all)
		if got.res.BaseCalls < 2 {
			t.Fatalf("spread p=%d: %d base calls: the recursion did not partition", p, got.res.BaseCalls)
		}
		dense, _ := runFilter(t, p, 2, pathSpec, 1, pathOpt)
		if got.res.TotalWeight != dense.res.TotalWeight || got.res.NumEdges != dense.res.NumEdges {
			t.Errorf("p=%d: spread labels give weight %d over %d edges, the compact ones %d over %d",
				p, got.res.TotalWeight, got.res.NumEdges, dense.res.TotalWeight, dense.res.NumEdges)
		}
	}
}

// randomForest is the P of the resolve tests over labels [1, n]: one chain
// 40 deep, the rest random parents below the vertex. parent[v] == v is a
// root.
func randomForest(n int) (parent []graph.VID, root func(graph.VID) graph.VID) {
	r := rng.New(11)
	parent = make([]graph.VID, n+1)
	for v := 1; v <= n; v++ {
		switch {
		case v > 1 && v <= 40:
			parent[v] = graph.VID(v - 1)
		case v > 40 && r.Intn(4) > 0:
			parent[v] = graph.VID(1 + r.Intn(v-1))
		default:
			parent[v] = graph.VID(v)
		}
	}
	return parent, func(v graph.VID) graph.VID {
		for parent[v] != v {
			v = parent[v]
		}
		return v
	}
}

// recordForest records parent in P from wherever (rank r sends every p-th
// vertex), routed to the owners; roots are skipped. Collective.
func recordForest(c *comm.Comm, parent []graph.VID) *distArray {
	P := newDistArray(c, uint64(len(parent)-1))
	var tbl denseLabels
	for v := 1 + c.Rank(); v < len(parent); v += c.P() {
		tbl.verts = append(tbl.verts, graph.VID(v))
		tbl.labels = append(tbl.labels, parent[v])
	}
	P.record(c, tbl, Options{}.withDefaults())
	return P
}

// TestResolveChasesRandomForest records a random forest in P and checks
// resolve against a sequential chase, with flatten's targets found on both
// label-set paths, with some ranks asking nothing while still calling
// collectively, twice over so recycled slots are seen.
func TestResolveChasesRandomForest(t *testing.T) {
	const n = 600
	parent, root := randomForest(n)
	defer func() { forceSparseLabels = false }()
	for _, p := range []int{1, 3, 8} {
		for _, dense := range []bool{true, false} {
			forceSparseLabels = !dense
			w := comm.NewWorld(p)
			w.Run(func(c *comm.Comm) {
				opt := Options{}.withDefaults()
				P := recordForest(c, parent)
				rr := rng.New(5).Split(uint64(c.Rank()))
				for round := 0; round < 2; round++ {
					var vs []graph.VID
					if c.Rank()%3 != 1 {
						for v := 1; v <= n; v++ {
							if rr.Intn(3) == 0 || v == 40 {
								vs = append(vs, graph.VID(v))
							}
						}
					}
					got := P.resolve(c, vs, opt)
					if len(got) != len(vs) {
						t.Errorf("p=%d dense=%v rank %d: %d answers to %d labels", p, dense, c.Rank(), len(got), len(vs))
						continue
					}
					for i, v := range vs {
						if got[i] != root(v) {
							t.Errorf("p=%d dense=%v rank %d: resolve(%d) = %d, the chase ends at %d", p, dense, c.Rank(), v, got[i], root(v))
						}
					}
				}
			})
		}
	}
}

// TestFlattenLeavesPFlat: after flatten every owned entry of the random
// forest's P is identity or points at an identity entry — its root — and a
// second record (the roots of the 40-deep chain hung under one more vertex)
// makes the next flatten settle the entries it made stale.
func TestFlattenLeavesPFlat(t *testing.T) {
	const n = 600
	parent, root := randomForest(n)
	for _, p := range []int{1, 3, 4, 16} {
		got := make([]graph.VID, n+1) // P as the owners hold it, gathered
		check := func(stage string, want func(graph.VID) graph.VID) {
			t.Helper()
			for v := 1; v <= n; v++ {
				if got[v] != want(graph.VID(v)) {
					t.Fatalf("p=%d %s: P[%d] = %d, want its root %d", p, stage, v, got[v], want(graph.VID(v)))
				}
				if r := got[v]; got[r] != r {
					t.Fatalf("p=%d %s: P[%d] = %d, which is not an identity entry (P[%d] = %d)", p, stage, v, r, r, got[r])
				}
			}
		}
		gather := func(P *distArray) {
			for i, e := range P.tbl {
				v := graph.VID(P.lo) + graph.VID(i)
				if got[v] = v; e != 0 {
					got[v] = e &^ flatBit
				}
			}
		}
		w := comm.NewWorld(p)
		var P []*distArray
		w.Run(func(c *comm.Comm) {
			d := recordForest(c, parent)
			d.flatten(c, Options{}.withDefaults())
			if d.dirty {
				t.Errorf("p=%d rank %d: P still dirty after flatten", p, c.Rank())
			}
			gather(d)
			if c.Rank() == 0 {
				P = make([]*distArray, p)
			}
			comm.Barrier(c)
			P[c.Rank()] = d
		})
		check("first flatten", root)
		// Root 1 of the chain is contracted into vertex n's root, so every
		// entry that pointed at 1 is one hop short of its root again.
		top := root(n)
		if top == 1 {
			t.Fatalf("p=%d: vertex %d hangs under the chain; pick another", p, n)
		}
		w.Run(func(c *comm.Comm) {
			d := P[c.Rank()]
			var tbl denseLabels
			if c.Rank() == 0 {
				tbl = denseLabels{vertexIndex: vertexIndex{verts: []graph.VID{1}}, labels: []graph.VID{top}}
			}
			d.record(c, tbl, Options{}.withDefaults())
			d.flatten(c, Options{}.withDefaults())
			gather(d)
		})
		check("second flatten", func(v graph.VID) graph.VID {
			if r := root(v); r != 1 {
				return r
			}
			return top
		})
	}
}

// TestResolveOneHopOnDenseGNM runs Filter-Borůvka on the dense-GNM
// instance (GNM n = 2^14, m = 2^20, seed 3, 16 PEs, the file run's
// base-case cap) and counts the query/reply hops of every resolve through
// traceResolve: each takes at most two, every one finds P flattened within
// a few rounds, and the forest is Kruskal's.
func TestResolveOneHopOnDenseGNM(t *testing.T) {
	if testing.Short() {
		t.Skip("a 2 M-edge job")
	}
	const p = 16
	var mu sync.Mutex
	var calls, flattens []int // per resolve call on any PE
	traceResolve = func(flatten, resolve int) {
		mu.Lock()
		defer mu.Unlock()
		calls = append(calls, resolve)
		flattens = append(flattens, flatten)
	}
	defer func() { traceResolve = nil }()
	spec := gen.Spec{Family: gen.GNM, N: 1 << 14, M: 1 << 20, Seed: 3}
	got, all := runFilter(t, p, 1, spec, 1, Options{BaseCaseCap: 128})
	checkAgainstOracle(t, "dense GNM", got.res, got.shares, all)
	if len(calls) == 0 || len(calls)%p != 0 {
		t.Fatalf("%d resolve calls over %d PEs", len(calls), p)
	}
	if slices.Max(flattens) == 0 {
		t.Fatalf("no resolve flattened P first")
	}
	t.Logf("%d resolves per PE; at most %d hops each, after flattens of at most %d rounds", len(calls)/p, slices.Max(calls), slices.Max(flattens))
	for i, h := range calls {
		if h > 2 {
			t.Errorf("resolve %d took %d query rounds, want at most 2", i, h)
		}
		if f := flattens[i]; f > 8 {
			t.Errorf("resolve %d found P flattened in %d rounds, want at most 8", i, f)
		}
	}
}

// TestPartitionAtPivotProperties: the split, in place or out of place, is
// the stable two-way filter under (W, TB), exact in its complement, keeps a
// weight class on one side, leaves an out-of-place source unwritten, and
// hands out halves of dst whose appends cannot reach each other.
func TestPartitionAtPivotProperties(t *testing.T) {
	for _, threads := range []int{1, 2, 8} {
		for _, n := range []int{0, 1, 37, 5000} {
			for _, inPlace := range []bool{true, false} {
				w := comm.NewWorld(1, comm.WithThreads(threads))
				w.Run(func(c *comm.Comm) {
					r := rng.New(uint64(n + threads))
					seg := make([]graph.Edge, n, n+8) // spare capacity: a neighbour's memory
					for i := range seg {
						tb := uint64(r.Intn(6)) // few classes, so ties with the pivot abound
						seg[i] = graph.Edge{U: graph.VID(i + 1), V: graph.VID(r.Intn(n) + 1), W: graph.Weight(r.Intn(5)), TB: tb, ID: uint32(i)}
					}
					in := slices.Clone(seg)
					pivot := graph.Edge{W: 2, TB: 3, U: 999, V: 999, ID: 999}
					isLight := func(e graph.Edge) bool { return e.W < pivot.W || e.W == pivot.W && e.TB <= pivot.TB }
					var wantL, wantH []graph.Edge
					for _, e := range in {
						if isLight(e) {
							wantL = append(wantL, e)
						} else {
							wantH = append(wantH, e)
						}
					}
					dst := seg
					if !inPlace {
						dst = make([]graph.Edge, n, n+8)
					}
					light, heavy := partitionAtPivot(c, dst, seg, pivot)
					if !slices.Equal(light, wantL) || !slices.Equal(heavy, wantH) {
						t.Fatalf("threads=%d n=%d: not the stable split (%d+%d edges, want %d+%d)", threads, n, len(light), len(heavy), len(wantL), len(wantH))
					}
					if !inPlace && !slices.Equal(seg, in) {
						t.Fatalf("threads=%d n=%d: the out-of-place split wrote its source", threads, n)
					}
					type class struct {
						w  graph.Weight
						tb uint64
					}
					side := map[class]bool{}
					for _, e := range light {
						side[class{e.W, e.TB}] = true
					}
					for _, e := range heavy {
						if side[class{e.W, e.TB}] {
							t.Fatalf("threads=%d n=%d: weight class (%d, %d) is on both sides", threads, n, e.W, e.TB)
						}
					}
					if cap(light) != len(light) || cap(heavy) != len(heavy) {
						t.Fatalf("threads=%d n=%d: capacities %d/%d beyond lengths %d/%d", threads, n, cap(light), cap(heavy), len(light), len(heavy))
					}
					if n > 0 && (len(light) > 0 && &light[0] != &dst[0] || len(heavy) > 0 && &heavy[0] != &dst[len(light)]) {
						t.Fatalf("threads=%d n=%d: the halves are not dst's own storage", threads, n)
					}
					grownL := append(light, graph.Edge{ID: 1 << 30})
					grownH := append(heavy, graph.Edge{ID: 1 << 31})
					if !slices.Equal(heavy, wantH) || !slices.Equal(light, wantL) ||
						!slices.Equal(grownL[:len(light)], wantL) || !slices.Equal(grownH[:len(heavy)], wantH) {
						t.Fatalf("threads=%d n=%d: an append to one half reached the other", threads, n)
					}
				})
			}
		}
	}
}

// denseGNM is the dense-GNM shape of TestFilterBoruvkaDoesNotCopyInput and
// BenchmarkFilterBoruvkaDenseGNM: 2^18 directed edges (8 MB) on 2^11
// vertices, the gnm-filter workload's density, 64 k edges per PE at p = 4.
var denseGNM = gen.Spec{Family: gen.GNM, N: 1 << 11, M: 1 << 17, Seed: 7}

// TestFilterBoruvkaDoesNotCopyInput: the recursion partitions the caller's
// input out of place into the world's kSegments slot, so a warm run
// allocates far less than one copy of the input — what is left is the MST,
// the collectives' results and the layouts. (When the first partition
// cloned its segment, a run allocated more than the input's bytes.)
func TestFilterBoruvkaDoesNotCopyInput(t *testing.T) {
	const runs = 3
	var perRun, input uint64
	comm.NewWorld(4).Run(func(c *comm.Comm) {
		edges, layout := gen.Build(c, denseGNM, dsort.Options{})
		FilterBoruvka(c, edges, layout, Options{}) // warm the world
		var before, after runtime.MemStats
		comm.Barrier(c)
		if c.Rank() == 0 {
			runtime.ReadMemStats(&before)
		}
		comm.Barrier(c)
		for i := 0; i < runs; i++ {
			FilterBoruvka(c, edges, layout, Options{})
		}
		total := comm.Allreduce(c, len(edges), func(a, b int) int { return a + b })
		if c.Rank() == 0 {
			runtime.ReadMemStats(&after)
			perRun = (after.TotalAlloc - before.TotalAlloc) / runs
			input = uint64(total) * uint64(unsafe.Sizeof(graph.Edge{}))
		}
	})
	t.Logf("a warm run allocated %d bytes against %d bytes of input: %.3f×", perRun, input, float64(perRun)/float64(input))
	if perRun >= input/8 {
		t.Errorf("a warm FilterBoruvka allocated %d bytes, want under 1/8 of its input's %d", perRun, input)
	}
}

// TestFilterBoruvkaSplitsAFilterOutputAboveAPendingSegment: a filter output
// that is still dense is split again, out of place onto kSegments above the
// segments still pending (at p = 1 here), and the forest is still
// Kruskal's. The instance is built for it: 128 clusters of 16 vertices; the lightest quarter of the
// edges is every pair inside a cluster, the next quarter random pairs
// between clusters, the heavy half more of those. The light half splits into
// the clusters, solved, and the pairs between them, which survive the
// filter as a dense graph on 128 vertices while the heavy half waits below.
func TestFilterBoruvkaSplitsAFilterOutputAboveAPendingSegment(t *testing.T) {
	const clusters, size = 128, 16
	r := rng.New(11)
	seen := map[[2]graph.VID]bool{}
	var raw []graph.Edge
	add := func(u, v graph.VID, w graph.Weight) {
		if u == v || seen[[2]graph.VID{min(u, v), max(u, v)}] {
			return
		}
		seen[[2]graph.VID{min(u, v), max(u, v)}] = true
		raw = append(raw, graph.NewEdge(u, v, w), graph.NewEdge(v, u, w))
	}
	for k := 0; k < clusters; k++ {
		for i := 1; i <= size; i++ {
			for j := i + 1; j <= size; j++ {
				add(graph.VID(k*size+i), graph.VID(k*size+j), graph.Weight(1+r.Intn(59)))
			}
		}
	}
	intra := len(raw) / 2
	between := func(lo, hi, count int) {
		for added := len(raw)/2 + count; len(raw)/2 < added; {
			u, v := r.Intn(clusters*size), r.Intn(clusters*size)
			if u/size != v/size {
				add(graph.VID(u+1), graph.VID(v+1), graph.Weight(lo+r.Intn(hi-lo)))
			}
		}
	}
	between(60, 120, intra)
	between(120, 255, 2*intra)
	for _, p := range []int{1, 4} {
		var res Result
		shares := make([][]graph.Edge, p)
		inputs := make([][]graph.Edge, p)
		comm.NewWorld(p).Run(func(c *comm.Comm) {
			lo, hi := c.Rank()*len(raw)/p, (c.Rank()+1)*len(raw)/p
			edges, layout := gen.Finish(c, slices.Clone(raw[lo:hi]), dsort.Options{})
			inputs[c.Rank()] = edges
			r := FilterBoruvka(c, edges, layout, Options{NoLocalPreprocessing: true})
			shares[c.Rank()] = r.MSTEdges
			if c.Rank() == 0 {
				res = r
			}
		})
		checkAgainstOracle(t, fmt.Sprintf("clustered p=%d", p), res, shares, slices.Concat(inputs...))
	}
}

// filterShape is one PE of the gnm-filter workload: 2^14 vertices, 131 k
// directed edges.
var filterShape = gen.Spec{Family: gen.GNM, N: 1 << 14, M: 1 << 16, Seed: 42}

// filterFixture takes a world to the first FILTER step of a job: the input
// partitioned at the sampled pivot, the light half solved with its
// contractions recorded in P, the heavy half pending.
func filterFixture(c *comm.Comm, edges []graph.Edge, opt Options) (P *distArray, owned []graph.Edge, pivot graph.Edge, heavy segment) {
	P = newDistArray(c, comm.Allreduce(c, edges[len(edges)-1].U, func(a, b uint64) uint64 { return max(a, b) }))
	owned = slices.Clone(edges)
	pivot, _ = pivotSelect(c, owned, opt)
	light, hv := partitionAtPivot(c, owned, owned, pivot)
	light = dedupSorted(c, light) // as FilterBoruvka does with a light segment
	l := graph.BuildLayout(c, light)
	var mst []graph.Edge
	distributedRounds(c, &light, &l, opt, &mst, P)
	baseCase(c, light, l, &mst, P)
	return P, owned, pivot, segment{edges: hv, needsFilter: true, owned: true}
}

// TestFilterSteadyStateAllocs: after one warm-up pass the partition and the
// filter of a 131 k-edge segment allocate nothing that grows with the edges.
// What is left are the frames of resolve's exchanges, which grow with the
// labels: 2^11 of them here, 64 edges each, keep that floor far under one
// byte per edge (an edge is 40; the smallest per-edge buffer would be 4).
func TestFilterSteadyStateAllocs(t *testing.T) {
	w := comm.NewWorld(1)
	w.Run(func(c *comm.Comm) {
		edges, _ := gen.Build(c, gen.Spec{Family: gen.GNM, N: 1 << 11, M: 1 << 16, Seed: 42}, dsort.Options{})
		opt := Options{}
		P, owned, pivot, heavy := filterFixture(c, edges, opt)
		filterSegment(c, heavy, P, opt) // warm the arena
		var before, after runtime.MemStats
		const runs = 5
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			partitionAtPivot(c, owned, owned, pivot)
			filterSegment(c, heavy, P, opt)
		}
		runtime.ReadMemStats(&after)
		perRun := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("%d bytes per pass over %d edges", perRun, len(edges))
		if perRun > uint64(len(edges)) {
			t.Errorf("partition + filter of %d edges allocate %d bytes per pass in steady state, want under one byte per edge", len(edges), perRun)
		}
	})
}

package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"

	"kamsta/internal/arena"
	"kamsta/internal/comm"
	"kamsta/internal/graph"
	"kamsta/internal/rng"
)

// relabelRef is RELABEL as the paper words it: rename through the local
// table, then the ghost table, else keep; drop self-loops; keep the order.
func relabelRef(src []graph.Edge, lab, ghost map[graph.VID]graph.VID) []graph.Edge {
	name := func(v graph.VID) graph.VID {
		if l, ok := lab[v]; ok {
			return l
		}
		if l, ok := ghost[v]; ok {
			return l
		}
		return v
	}
	out := []graph.Edge{}
	for _, e := range src {
		if e.U, e.V = name(e.U), name(e.V); e.U != e.V {
			out = append(out, e)
		}
	}
	return out
}

// tableOf turns a map into the dense table the kernel reads: left searching,
// or with an index window out of slot k where production would build one.
func tableOf(a *arena.Arena, k arena.Key, m map[graph.VID]graph.VID, window bool) denseLabels {
	var d denseLabels
	for v := range m {
		d.verts = append(d.verts, v)
	}
	slices.Sort(d.verts)
	for _, v := range d.verts {
		d.labels = append(d.labels, m[v])
	}
	if window {
		d.index(a, k, 0)
	}
	return d
}

// sharedV is the one vertex both ranks of the 2-PE test machines hold
// sources of.
const sharedV = 1000

// relabelChunk is rank's sorted chunk of n edges: sources from the rank's
// half of the labels (sharedV among them), targets from everywhere.
func relabelChunk(r *rng.RNG, rank, n int) []graph.Edge {
	edges := make([]graph.Edge, n)
	for i := range edges {
		u := graph.VID(1 + rank*(sharedV-1) + r.Intn(sharedV))
		if i == 0 {
			u = sharedV
		}
		edges[i] = graph.Edge{U: u, V: graph.VID(1 + r.Intn(2*sharedV)), W: graph.Weight(r.Intn(1 << 20)), ID: uint32(i)}
	}
	slices.SortFunc(edges, func(x, y graph.Edge) int {
		return cmp.Or(cmp.Compare(x.U, y.U), cmp.Compare(x.V, y.V), cmp.Compare(x.ID, y.ID))
	})
	return edges
}

// TestRelabelPack holds the one RELABEL kernel against the map-based
// reference: random sorted chunks and an unsorted concatenation of sorted
// runs (FILTER's carry) × the rounds' tables (own labels, ghosts, a shared
// vertex in neither), preprocessing's (no own table, ghosts for some) and
// FILTER's (one table of everything) × index window or search × in place or
// into a second slice × 1, 2 and 8 threads. Same survivors in the same order,
// nothing written past len(src), the source intact when it is not the
// destination.
func TestRelabelPack(t *testing.T) {
	for _, threads := range []int{1, 2, 8} {
		for _, n := range []int{0, 1, 700, 5000} {
			w := comm.NewWorld(2, comm.WithThreads(threads))
			w.Run(func(c *comm.Comm) {
				a := c.Scratch()
				r := rng.New(uint64(n*10 + threads)).Split(uint64(c.Rank()))
				sorted := relabelChunk(r, c.Rank(), n)
				l := graph.BuildLayout(c, sorted)
				if n > 0 && !l.IsShared(sharedV) {
					t.Errorf("vertex %d is on both ranks and not shared", sharedV)
				}
				carry := slices.Concat(sorted[n/2:], sorted[:n/2])               // two sorted runs, not sorted
				newLabel := func() graph.VID { return graph.VID(1 + r.Intn(8)) } // few roots: many self-loops
				own, ghosts, some, all := map[graph.VID]graph.VID{}, map[graph.VID]graph.VID{}, map[graph.VID]graph.VID{}, map[graph.VID]graph.VID{}
				for _, e := range sorted {
					if e.U != sharedV {
						own[e.U] = newLabel()
					}
				}
				for _, e := range sorted {
					if _, ok := own[e.V]; !ok && e.V != sharedV {
						ghosts[e.V] = newLabel()
						if r.Intn(2) == 0 {
							some[e.V] = ghosts[e.V]
						}
					}
					all[e.U], all[e.V] = newLabel(), newLabel()
				}
				for _, window := range []bool{true, false} {
					cases := []struct {
						name       string
						lab, ghost map[graph.VID]graph.VID
						strict     *graph.Layout
					}{
						{"rounds", own, ghosts, l},
						{"preprocess", nil, some, nil},
						{"filter", all, nil, nil},
					}
					for _, tc := range cases {
						tbl := relabelTable{lab: tableOf(a, kDirect, tc.lab, window),
							ghost: tableOf(a, kGhostWin, tc.ghost, window), strict: tc.strict}
						if window && n == 5000 && (tbl.lab.win == nil) != (tc.lab == nil) {
							t.Errorf("threads=%d %s: a dense table of %d labels got no index window", threads, tc.name, len(tc.lab))
						}
						for si, src := range [][]graph.Edge{sorted, carry} {
							want := relabelRef(src, tc.lab, tc.ghost)
							for _, inPlace := range []bool{false, true} {
								label := fmt.Sprintf("threads=%d n=%d rank=%d %s window=%v src=%d inPlace=%v",
									threads, n, c.Rank(), tc.name, window, si, inPlace)
								in := append(make([]graph.Edge, 0, n+4), src...)
								dst := in
								if !inPlace {
									dst = make([]graph.Edge, n, n+4)
								}
								guard := graph.Edge{ID: 1 << 31}
								for i := n; i < n+4; i++ {
									in[:n+4][i], dst[:n+4][i] = guard, guard
								}
								k := relabelPack(c, dst, in, &tbl)
								if !slices.Equal(dst[:k], want) {
									t.Errorf("%s: %d survivors, the reference keeps %d (or their order or labels differ)", label, k, len(want))
								}
								if !inPlace && !slices.Equal(in, src) {
									t.Errorf("%s: the source was written", label)
								}
								for i := n; i < n+4; i++ {
									if dst[:n+4][i] != guard || in[:n+4][i] != guard {
										t.Errorf("%s: wrote past len(src) at %d", label, i)
									}
								}
							}
						}
					}
				}
			})
		}
	}
}

// TestRelabelStrictAndLenient: in the rounds a non-shared endpoint without a
// label is a protocol bug and panics with the diagnostic line; the same
// tables without the layout keep the label, and a shared endpoint keeps it
// either way.
func TestRelabelStrictAndLenient(t *testing.T) {
	w := comm.NewWorld(2) // one thread: the kernel runs on the PE goroutine, so its panic is recoverable here
	w.Run(func(c *comm.Comm) {
		src := relabelChunk(rng.New(3).Split(uint64(c.Rank())), c.Rank(), 600)
		l := graph.BuildLayout(c, src)
		lab := map[graph.VID]graph.VID{} // every own source, no ghost: most targets are unknown
		for _, e := range src {
			if e.U != sharedV {
				lab[e.U] = 1 + e.U%8
			}
		}
		tbl := relabelTable{lab: tableOf(c.Scratch(), kDirect, lab, true)}
		dst := make([]graph.Edge, len(src))
		k := relabelPack(c, dst, src, &tbl)
		if want := relabelRef(src, lab, nil); !slices.Equal(dst[:k], want) {
			t.Errorf("rank %d: lenient mode keeps %d edges, the reference %d", c.Rank(), k, len(want))
		}
		tbl.strict = l
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			relabelPack(c, dst, src, &tbl)
			return
		}()
		want := fmt.Sprintf("core: relabel: rank %d: no label for non-shared vertex ", c.Rank())
		tail := fmt.Sprintf("labels=%d ghost=0, localEdges=%d)", len(lab), len(src))
		if !strings.HasPrefix(msg, want) || !strings.HasSuffix(msg, tail) {
			t.Errorf("rank %d: strict mode said %q, want %q…%q", c.Rank(), msg, want, tail)
		}
	})
}

// TestBaseCaseMissPanics: an endpoint that is no source anywhere has no
// dense index, and the base case says so with rank and vertex instead of
// contracting into a neighbour's slot.
func TestBaseCaseMissPanics(t *testing.T) {
	comm.NewWorld(1).Run(func(c *comm.Comm) {
		edges := []graph.Edge{{U: 1, V: 2, W: 1}, {U: 1, V: 5, W: 2}, {U: 2, V: 1, W: 1}}
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			var mst []graph.Edge
			baseCase(c, edges, graph.BuildLayout(c, edges), &mst, nil)
			return
		}()
		if want := "core: base case: rank 0: no dense index for vertex 5"; msg != want {
			t.Errorf("base case over a dangling endpoint said %q, want %q", msg, want)
		}
	})
}

// TestSortRenamedTargets holds preprocessing's re-sort to a full sort under
// graph.LessLex: on sorted edges whose targets were renamed (runs of one
// source out of order, ties broken by W, TB and ID), and on sources that no
// longer ascend, where it falls back to the whole-slice sort.
func TestSortRenamedTargets(t *testing.T) {
	r := rng.New(3)
	var edges []graph.Edge
	for u := graph.VID(1); u <= 200; u++ {
		for k := 0; k < r.Intn(12); k++ {
			v := graph.VID(r.Intn(40) + 1)
			edges = append(edges, graph.Edge{U: u, V: v, W: graph.Weight(r.Intn(3)), TB: uint64(r.Intn(2)), ID: uint32(len(edges))})
		}
	}
	shuffledSources := slices.Clone(edges)
	slices.Reverse(shuffledSources)
	for name, in := range map[string][]graph.Edge{"renamed targets": edges, "descending sources": shuffledSources} {
		got, want := slices.Clone(in), slices.Clone(in)
		sortRenamedTargets(got)
		slices.SortFunc(want, cmpLex)
		if !slices.Equal(got, want) {
			t.Errorf("%s: not in graph.LessLex order", name)
		}
	}
}

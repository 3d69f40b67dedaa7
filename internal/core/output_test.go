package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"kamsta/internal/comm"
	"kamsta/internal/dsort"
	"kamsta/internal/gen"
	"kamsta/internal/graph"
)

// TestAlgorithmsLeaveInputIntact pins the invariant MST emission rests on:
// redistributeMST reads the original endpoints from the caller's chunk, so
// neither algorithm, with or without local preprocessing, may write it.
func TestAlgorithmsLeaveInputIntact(t *testing.T) {
	algs := map[string]func(*comm.Comm, []graph.Edge, *graph.Layout, Options) Result{
		"boruvka": Boruvka, "filter": FilterBoruvka,
	}
	specs := []gen.Spec{
		{Family: gen.GNM, N: 500, M: 5000, Seed: 3},
		{Family: gen.RGG2D, N: 300, M: 10000, Seed: 2},
	}
	for name, alg := range algs {
		for _, spec := range specs {
			for _, nopre := range []bool{false, true} {
				for _, p := range []int{1, 4} {
					label := fmt.Sprintf("%s %s nopre=%v p=%d", name, spec.Label(), nopre, p)
					opt := Options{NoLocalPreprocessing: nopre, BaseCaseCap: 16}
					comm.NewWorld(p).Run(func(c *comm.Comm) {
						edges, layout := gen.Build(c, spec, dsort.Options{})
						before := slices.Clone(edges)
						alg(c, edges, layout, opt)
						if !slices.Equal(edges, before) {
							i := 0
							for edges[i] == before[i] {
								i++
							}
							t.Errorf("%s rank %d: input edge %d is %v after the run, was %v",
								label, c.Rank(), i, edges[i], before[i])
						}
					})
				}
			}
		}
	}
}

// TestRedistributeMSTReadsTheChunk: every MST edge, sent from any PE, comes
// back on its home PE as the input edge with its ID, in input order.
func TestRedistributeMSTReadsTheChunk(t *testing.T) {
	const p = 3
	spec := gen.Spec{Family: gen.GNM, N: 200, M: 1500, Seed: 5}
	comm.NewWorld(p).Run(func(c *comm.Comm) {
		edges, _ := gen.Build(c, spec, dsort.Options{})
		in := makeInputCopy(c, edges)
		all := comm.AllgatherConcat(c, edges)
		if lo := in.offsets[c.Rank()]; in.chunk.FirstID() != lo || in.offsets[c.Rank()+1]-lo != uint64(len(edges)) {
			t.Errorf("rank %d: chunk at ID %d of %d edges, offsets say [%d,%d)",
				c.Rank(), in.chunk.FirstID(), len(edges), lo, in.offsets[c.Rank()+1])
		}
		// Rank r claims every p-th edge of the whole graph, in reverse:
		// together the ranks claim each edge once.
		var mst []graph.Edge
		for i := len(all) - 1; i >= 0; i-- {
			if i%p == c.Rank() {
				mst = append(mst, all[i])
			}
		}
		if got := redistributeMST(c, mst, in, Options{}.withDefaults()); !slices.Equal(got, edges) {
			t.Errorf("rank %d: redistributeMST returned %d edges, want the %d of its chunk in order",
				c.Rank(), len(got), len(edges))
		}
	})
}

// TestRedistributeMSTPanicsOnBadID: an MST edge whose ID is outside the
// home chunk (here a chunk that lost its tail), or whose input edge no
// longer carries that ID (the chunk was overwritten mid-job), panics naming
// the ID.
func TestRedistributeMSTPanicsOnBadID(t *testing.T) {
	spec := gen.Spec{Family: gen.GNM, N: 100, M: 400, Seed: 6}
	comm.NewWorld(1).Run(func(c *comm.Comm) {
		edges, _ := gen.Build(c, spec, dsort.Options{})
		in := makeInputCopy(c, edges)
		panicMsg := func(mst []graph.Edge) (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			redistributeMST(c, mst, in, Options{}.withDefaults())
			return
		}
		k := len(edges) / 2
		in.chunk = graph.NewChunk(edges[:k])
		if msg := panicMsg(edges[k : k+1]); !strings.Contains(msg, fmt.Sprintf("ID %d not found", edges[k].ID)) {
			t.Errorf("an ID past the chunk said %q", msg)
		}
		in.chunk = graph.NewChunk(edges)
		mst := []graph.Edge{edges[k]}
		edges[k].ID++
		if msg := panicMsg(mst); !strings.Contains(msg, fmt.Sprintf("ID %d not found", mst[0].ID)) {
			t.Errorf("an overwritten input edge said %q", msg)
		}
	})
}

package core

import (
	"fmt"
	"math"

	"kamsta/internal/arena"
	"kamsta/internal/comm"
	"kamsta/internal/dsort"
	"kamsta/internal/graph"
)

// Arena keys of the base case's replicated working set. Like the per-round
// tables, these recycle across base-case rounds, invocations (Filter-
// Borůvka calls the base case once per recursion leaf) and jobs.
var (
	kBaseLocal  = arena.NewKey() // []graph.VID: distinct local sources
	kBaseVerts  = arena.NewKey() // []graph.VID: replicated dense rename table
	kBaseWin    = arena.NewKey() // []int32: its index window
	kBaseWork   = arena.NewKey() // []dEdge: local edges with dense endpoints
	kBaseVec    = arena.NewKey() // []cand: per-round allreduce input vector
	kBaseGlobal = arena.NewKey() // []cand: the allreduce's result
	kBaseParent = arena.NewKey() // []int32: replicated contraction forest
	kBaseComp   = arena.NewKey() // []int32: each vertex's root across rounds, recorded in P
)

// dEdge is a base-case working edge: dense endpoints, the weight class, and
// i, the edge's index into the base case's input, which the winning PE
// reads the MST edge from.
type dEdge struct {
	u, v int32
	w    graph.Weight
	i    int32
	tb   uint64
}

// cand is the base case's allreduce element: the lightest known edge into a
// vertex.
type cand struct {
	W    graph.Weight
	TB   uint64
	Dst  int32
	Rank int32
	Idx  int32 // index into the winner's local work slice
}

// baseCase finishes the MST computation once the global number of vertices
// fits on one PE (§IV-D, following Adler et al.): vertex labels are
// remapped to a dense range and replicated, the lightest edge per vertex is
// found with an allreduce of vector length n′, and the contraction itself
// is a replicated local computation — edges stay distributed, unsorted.
// Identified MST edges are appended to mst on the PE that owns the winning
// edge. When rec is non-nil, each vertex's final root — the rounds'
// contractions composed, which the replicated forest allows without a
// message — is recorded once in the distributed representative array
// (Filter-Borůvka's P).
func baseCase(c *comm.Comm, edges []graph.Edge, l *graph.Layout, mst *[]graph.Edge, rec *distArray) {
	a := c.Scratch()
	// Dense remap: gather the distinct live labels. Each PE contributes its
	// distinct sources, skipping a first run continued from the previous
	// non-empty PE; the rank-ordered concatenation of sorted chunks is
	// globally sorted.
	local := arena.GrabAppend[graph.VID](a, kBaseLocal)
	for lo := 0; lo < len(edges); {
		hi := lo + 1
		for hi < len(edges) && edges[hi].U == edges[lo].U {
			hi++
		}
		local = append(local, edges[lo].U)
		lo = hi
	}
	arena.Keep(a, kBaseLocal, local)
	if len(local) > 0 && l.HomePE(local[0]) < c.Rank() {
		local = local[1:]
	}
	x := vertexIndex{verts: comm.AllgatherConcatInto(c, arena.GrabAppend[graph.VID](a, kBaseVerts), local)}
	arena.Keep(a, kBaseVerts, x.verts)
	n := x.len()
	if n == 0 {
		return
	}
	x.index(a, kBaseWin, 2*len(edges))

	// Working copy with dense endpoints and the edge's index. The charge is
	// the paper's binary search per endpoint, whatever x does.
	work := arena.Grab[dEdge](a, kBaseWork, len(edges))
	for i, e := range edges {
		u, v := x.find(e.U), x.find(e.V)
		if min(u, v) < 0 {
			miss := e.U
			if u >= 0 {
				miss = e.V
			}
			panic(fmt.Sprintf("core: base case: rank %d: no dense index for vertex %d", c.Rank(), miss))
		}
		work[i] = dEdge{u: int32(u), v: int32(v), w: e.W, i: int32(i), tb: e.TB}
	}
	c.ChargeCompute(len(edges) * dsort.Log2Ceil(n+1))

	empty := cand{W: math.MaxUint32, TB: math.MaxUint64}
	less := func(a, b cand) bool {
		if a.W != b.W {
			return a.W < b.W
		}
		if a.TB != b.TB {
			return a.TB < b.TB
		}
		return a.Rank < b.Rank // deterministic winner among equal copies
	}

	parent := arena.Grab[int32](a, kBaseParent, n)
	var comp []int32 // nil unless recording
	if rec != nil {
		comp = arena.Grab[int32](a, kBaseComp, n)
		for i := range comp {
			comp[i] = int32(i)
		}
	}
	for round := 0; ; round++ {
		vec := arena.Grab[cand](a, kBaseVec, n)
		for i := range vec {
			vec[i] = empty
		}
		for i, de := range work {
			if de.u == de.v {
				continue
			}
			cd := cand{W: de.w, TB: de.tb, Dst: de.v, Rank: int32(c.Rank()), Idx: int32(i)}
			if less(cd, vec[de.u]) {
				vec[de.u] = cd
			}
			rd := cand{W: de.w, TB: de.tb, Dst: de.u, Rank: int32(c.Rank()), Idx: int32(i)}
			if less(rd, vec[de.v]) {
				vec[de.v] = rd
			}
		}
		c.ChargeCompute(len(work))
		global := comm.AllreduceVec(c, arena.GrabAppend[cand](a, kBaseGlobal), vec, func(a, b cand) cand {
			if less(a, b) {
				return a
			}
			return b
		})
		arena.Keep(a, kBaseGlobal, global)

		// Replicated contraction: identical on every PE.
		merged := false
		for i := range parent {
			parent[i] = int32(i)
		}
		for u := 0; u < n; u++ {
			g := global[u]
			if g.W == math.MaxUint32 {
				continue
			}
			v := g.Dst
			// 2-cycle tie-break: mutual minimum keeps the smaller index.
			gv := global[v]
			if gv.W != math.MaxUint32 && gv.Dst == int32(u) && gv.TB == g.TB && int32(u) < v {
				continue // we are the designated root of this 2-cycle
			}
			parent[u] = v
			merged = true
			// The PE owning the winning copy emits the MST edge.
			if g.Rank == int32(c.Rank()) {
				*mst = append(*mst, edges[work[g.Idx].i])
			}
		}
		if !merged {
			break
		}
		// Pointer jumping to roots (replicated, no communication).
		for i := range parent {
			r := parent[i]
			for parent[r] != r {
				r = parent[r]
			}
			for parent[i] != r {
				parent[i], i = r, int(parent[i])
			}
		}
		c.ChargeCompute(n)
		for i, r := range comp {
			comp[i] = parent[r]
		}
		// Relabel the local edges and drop self-loops.
		kept := work[:0]
		for _, de := range work {
			de.u = parent[de.u]
			de.v = parent[de.v]
			if de.u != de.v {
				kept = append(kept, de)
			}
		}
		// Indices into work change after compaction; but vec/global are
		// rebuilt from scratch next round, so no fixup is needed.
		work = kept
		c.ChargeCompute(len(work))
		if round > 64 {
			panic("core: base case failed to converge")
		}
	}
	if rec != nil {
		rec.recordReplicated(x.verts, comp)
	}
}

package core

import (
	"kamsta/internal/arena"
	"kamsta/internal/comm"
	"kamsta/internal/graph"
)

// Result is the outcome of a distributed MST computation on one PE.
type Result struct {
	// MSTEdges is this PE's share of the minimum spanning forest, with
	// original endpoint labels, routed back to the home PEs of the original
	// input copies and sorted lexicographically. It lives in the world's
	// arena (slot kMST) and is valid until the next Boruvka or
	// FilterBoruvka on the same world: a caller that keeps it longer clones
	// it.
	MSTEdges []graph.Edge
	// TotalWeight is the global MSF weight (identical on all PEs).
	TotalWeight uint64
	// NumEdges is the global number of MSF edges (identical on all PEs).
	NumEdges int
	// Rounds counts the distributed Borůvka rounds executed (excluding
	// preprocessing and base case).
	Rounds int
	// VertexCounts records the global vertex count entering each
	// distributed round — the paper's §IV guarantee is that local vertices
	// at least halve per round.
	VertexCounts []int
	// BaseCalls counts distributed base-case invocations (1 for plain
	// Borůvka; one per recursion leaf for Filter-Borůvka).
	BaseCalls int
	// EdgesTouched accumulates the edge-scan work of all rounds — the
	// quantity Theorem 1 bounds for Filter-Borůvka.
	EdgesTouched int
}

// Boruvka computes the minimum spanning forest of the distributed graph
// (edges, layout) with Algorithm 1. edges must be this PE's chunk of the
// §II-B input format (globally sorted, symmetric, consecutive IDs); all PEs
// must call collectively.
func Boruvka(c *comm.Comm, edges []graph.Edge, layout *graph.Layout, opt Options) Result {
	opt = opt.withDefaults()
	in := makeInputCopy(c, edges)

	mst := newForest(c)
	res := Result{}
	work, l := edges, layout

	if opt.preprocess(l) {
		c.PhaseBegin(PhasePreprocess)
		work, l, _ = localPreprocess(c, work, l, opt, &mst, nil)
		c.PhaseEnd()
	}

	res.Rounds, res.EdgesTouched, res.VertexCounts = distributedRounds(c, &work, &l, opt, &mst, nil)

	c.PhaseBegin(PhaseBaseCase)
	baseCase(c, work, l, &mst, nil)
	res.BaseCalls = 1
	return res.finish(c, mst, in, opt)
}

// finish is the epilogue of both algorithms. It is entered inside the
// base-case phase and closes it after REDISTRIBUTEMST; the global weight is
// reduced outside any phase.
func (res Result) finish(c *comm.Comm, mst []graph.Edge, in *inputCopy, opt Options) Result {
	res.MSTEdges = redistributeMST(c, mst, in, opt)
	c.PhaseEnd()
	res.TotalWeight, res.NumEdges = globalWeight(c, res.MSTEdges)
	return res
}

// distributedRounds runs Borůvka rounds (§IV) until the global vertex count
// falls to the base-case threshold max(2·p, opt.BaseCaseCap). It mutates
// *work and *l in place and returns (rounds, edges touched, per-round
// vertex counts).
func distributedRounds(c *comm.Comm, work *[]graph.Edge, l **graph.Layout,
	opt Options, mst *[]graph.Edge, rec *distArray) (int, int, []int) {

	threshold := opt.baseThreshold(c.P())
	rounds, touched := 0, 0
	var vertexCounts []int
	for {
		c.PhaseBegin(PhaseMinEdges)
		n := graph.GlobalVertexCount(c, *l, *work)
		if n <= threshold {
			c.PhaseEnd()
			break
		}
		vertexCounts = append(vertexCounts, n)
		c.EmitRound(rounds+1, n)
		mins := minEdges(c, *work, *l)
		c.PhaseEnd()

		c.PhaseBegin(PhaseContract)
		labels := contractComponents(c, *work, *l, mins, opt, mst)
		if rec != nil {
			rec.record(c, labels, opt)
		}
		c.PhaseEnd()

		// RELABEL packs into a slot, never in place: *work may still be the
		// caller's input.
		c.PhaseBegin(PhaseLabels)
		tbl := relabelTable{lab: labels, ghost: exchangeLabels(c, *work, *l, labels, opt), strict: *l}
		relabeled := arena.Grab[graph.Edge](c.Scratch(), kRelabelOut, len(*work))
		relabeled = relabeled[:relabelPack(c, relabeled, *work, &tbl)]
		c.ChargeCompute(len(*work))
		c.PhaseEnd()

		c.PhaseBegin(PhaseRedistribute)
		*work, *l = redistribute(c, relabeled, opt)
		c.PhaseEnd()

		touched += len(*work)
		rounds++
		if rounds > 128 {
			panic("core: distributed Borůvka failed to converge")
		}
	}
	return rounds, touched, vertexCounts
}

// globalWeight reduces the local MSF shares to the global (weight, count).
func globalWeight(c *comm.Comm, mst []graph.Edge) (uint64, int) {
	type agg struct {
		W uint64
		N int
	}
	local := agg{}
	for _, e := range mst {
		local.W += uint64(e.W)
		local.N++
	}
	g := comm.Allreduce(c, local, func(a, b agg) agg { return agg{a.W + b.W, a.N + b.N} })
	return g.W, g.N
}

package kamsta

import (
	"fmt"
	"math"

	"kamsta/internal/baselines"
	"kamsta/internal/comm"
	"kamsta/internal/core"
	"kamsta/internal/graph"
)

// This file holds the SPMD job bodies a Machine runs. Each body is one
// function executed by every PE of the world — and, on a distributed
// machine, by every worker process's PEs too, so the bodies are factored
// here where both Machine.run and ServeWorker's control loop reach
// them. A body must issue the identical collective sequence on every rank
// (the substrate audits tags on rank 0); rank-0-only blocks write into
// fields that simply stay zero on worker processes.

// msfJob is one MSF computation: materialize the source, measure the
// algorithm, leave each rank's MSF share in shares[rank] and the rank-0
// summary in rep.
type msfJob struct {
	src    Source
	rs     runSettings
	w      *comm.World
	rep    *Report
	shares [][]graph.Edge
	algErr error // set on rank 0 only; PEs leave together on input errors
}

func (j *msfJob) run(c *comm.Comm) {
	w, rs, rep := j.w, j.rs, j.rep
	edges, layout, inErr := j.src.provide(c, rs)
	if inErr != nil {
		// provide returns the same error on every PE, so all PEs
		// leave the SPMD program here together.
		if c.Rank() == 0 {
			j.algErr = inErr
		}
		return
	}
	// The input cost is the clock maximum now, before the nv/ne stats
	// collectives below add their own charges.
	iclk := comm.Allreduce(c, c.Clock(), math.Max)
	nv := graph.GlobalVertexCount(c, layout, edges)
	ne := comm.Allreduce(c, len(edges), func(a, b int) int { return a + b })
	// Measure the algorithm, not the generation.
	comm.Barrier(c)
	c.ResetLocalMetrics()
	if c.Rank() == 0 {
		w.ResetMetrics()
	}
	comm.Barrier(c)
	switch rs.alg {
	case AlgBoruvka:
		r := core.Boruvka(c, edges, layout, rs.core)
		j.shares[c.Rank()] = r.MSTEdges
		if c.Rank() == 0 {
			rep.TotalWeight, rep.NumEdges = r.TotalWeight, r.NumEdges
			rep.Rounds, rep.BaseCalls = r.Rounds, r.BaseCalls
		}
	case AlgFilterBoruvka:
		r := core.FilterBoruvka(c, edges, layout, rs.core)
		j.shares[c.Rank()] = r.MSTEdges
		if c.Rank() == 0 {
			rep.TotalWeight, rep.NumEdges = r.TotalWeight, r.NumEdges
			rep.Rounds, rep.BaseCalls = r.Rounds, r.BaseCalls
		}
	case AlgMNDMST:
		r := baselines.MNDMST(c, edges, layout, baselines.Options{Threads: c.Threads()})
		j.shares[c.Rank()] = r.MSTEdges
		if c.Rank() == 0 {
			rep.TotalWeight, rep.NumEdges = r.TotalWeight, r.NumEdges
			rep.Rounds = r.Rounds
		}
	case AlgSparseMatrix:
		r := baselines.SparseMatrix(c, edges, layout, baselines.Options{Threads: c.Threads()})
		j.shares[c.Rank()] = r.MSTEdges
		if c.Rank() == 0 {
			rep.TotalWeight, rep.NumEdges = r.TotalWeight, r.NumEdges
			rep.Rounds = r.Rounds
		}
	default:
		if c.Rank() == 0 {
			j.algErr = fmt.Errorf("kamsta: unknown algorithm %q", rs.alg)
		}
	}
	if c.Rank() == 0 {
		rep.InputVertices, rep.InputEdges = nv, ne
		rep.InputModeledSeconds = iclk
	}
}

// collectJob materializes a source and gathers the canonical (U < V)
// undirected edges to rank 0, for the sequential reference path.
type collectJob struct {
	src       Source
	rs        runSettings
	collected []InputEdge // rank 0 only
	inputErr  error       // rank 0 only
}

func (j *collectJob) run(c *comm.Comm) {
	edges, _, err := j.src.provide(c, j.rs)
	if err != nil {
		if c.Rank() == 0 {
			j.inputErr = err
		}
		return
	}
	all := comm.AllgatherConcat(c, edges)
	if c.Rank() == 0 {
		for _, e := range all {
			if e.U < e.V {
				j.collected = append(j.collected, InputEdge{U: e.U, V: e.V, W: e.W})
			}
		}
	}
}

// probeJob is the post-fault health probe: every PE contributes 1 to an
// Allreduce, exercising the full superstep path on whatever state the
// aborted job left behind. Rank 0 records the sum for its owner to check.
type probeJob struct {
	got int // rank 0 only
}

func (j *probeJob) run(c *comm.Comm) {
	n := comm.Allreduce(c, 1, func(a, b int) int { return a + b })
	if c.Rank() == 0 {
		j.got = n
	}
}

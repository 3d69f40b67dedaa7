package kamsta

import (
	"context"
	"fmt"
	"math"

	"kamsta/internal/baselines"
	"kamsta/internal/comm"
	"kamsta/internal/core"
	"kamsta/internal/graph"
	"kamsta/internal/seqmst"
)

// This file defines the jobs a Machine runs, once for both sides of the
// process boundary: the leader (Machine.runJob) and every worker process
// (runWorkerJob) name a kind, and runKind looks it up in jobKinds, builds
// its state and runs its SPMD body on the local ranks. A body is one
// function executed by every PE of the world; it must issue the identical
// collective sequence on every rank (the substrate audits tags on rank 0).

// Job kinds a leader dispatches.
const (
	jobMSF   = "msf"   // one MSF computation
	jobProbe = "probe" // post-fault health probe (one tiny Allreduce)
)

// jobKind is one entry of the kind table.
type jobKind struct {
	// needsSource rejects a dispatch that carries no input source.
	needsSource bool
	// body is the kind's SPMD program.
	body func(*job, *comm.Comm)
}

var jobKinds = map[string]jobKind{
	jobMSF:   {needsSource: true, body: (*job).msf},
	jobProbe: {body: (*job).probe},
}

// job is one process's state of one running job: its inputs and what the
// body leaves behind for the driver. Rank 0 is always leader-local, so the
// rank-0 outputs simply stay zero on worker processes.
type job struct {
	src Source
	rs  runSettings
	w   *comm.World

	// shares[r] is rank r's share of the MSF (msf; each local rank writes
	// its own entry, core.Result.MSTEdges: it may lie in the rank's arena,
	// so it is read — by Machine.run or jobEndOf — before the next job
	// starts).
	shares [][]graph.Edge
	// Rank 0 only: the algorithm's summary (msf), the Allreduce sum (probe).
	rep      Report
	probeSum int
	// inputErr, rank 0 only, is the input error every rank left the program
	// early on: Source.provide returns the same error on every PE, so the
	// world agrees on it without a collective and no rank is left behind.
	inputErr error
}

// runKind runs one job of the named kind on w's local ranks. An unknown
// kind or a missing source fails before anything runs (nil job); every
// process of the world takes that exit on the same dispatch, so the
// job-control streams stay in lockstep.
func runKind(ctx context.Context, w *comm.World, kind string, src Source, rs runSettings) (*job, error) {
	k, ok := jobKinds[kind]
	if !ok {
		return nil, fmt.Errorf("kamsta: unknown job kind %q", kind)
	}
	if k.needsSource && src == nil {
		return nil, fmt.Errorf("kamsta: %s job without a source", kind)
	}
	w.ResetMetrics() // this job's makespan and traffic, not the machine's history
	j := &job{src: src, rs: rs, w: w, shares: make([][]graph.Edge, w.P())}
	// A worker's settings carry no observer, tracer or injector.
	cfg := comm.JobConfig{Observer: rs.obs, StallTimeout: rs.stall, Inject: rs.inject, Trace: rs.trace}
	return j, w.RunJobCfg(ctx, cfg, func(c *comm.Comm) { k.body(j, c) })
}

// msfAlgorithms maps each algorithm to its SPMD entry point.
var msfAlgorithms = map[Algorithm]func(*comm.Comm, []graph.Edge, *graph.Layout, core.Options) core.Result{
	AlgBoruvka:       core.Boruvka,
	AlgFilterBoruvka: core.FilterBoruvka,
	AlgMNDMST:        baseline(baselines.MNDMST),
	AlgSparseMatrix:  baseline(baselines.SparseMatrix),
	AlgKruskal:       kruskal,
}

// baseline adapts a competitor to the paper algorithms' signature: the
// baselines have no options and no base case to count.
func baseline(f func(*comm.Comm, []graph.Edge, *graph.Layout) baselines.Result) func(*comm.Comm, []graph.Edge, *graph.Layout, core.Options) core.Result {
	return func(c *comm.Comm, edges []graph.Edge, layout *graph.Layout, _ core.Options) core.Result {
		r := f(c, edges, layout)
		return core.Result{MSTEdges: r.MSTEdges, TotalWeight: r.TotalWeight, NumEdges: r.NumEdges, Rounds: r.Rounds}
	}
}

// kruskal is the sequential reference: every PE sends its whole chunk to
// rank 0 (one all-to-all frame with everything in bucket 0), and rank 0
// runs seqmst.Kruskal on the canonical (U < V) copies and returns the whole
// forest as its share. It charges no compute: its modeled time is the
// gather's.
func kruskal(c *comm.Comm, edges []graph.Edge, _ *graph.Layout, _ core.Options) core.Result {
	off := make([]int32, c.P()+1)
	for i := 1; i < len(off); i++ {
		off[i] = int32(len(edges))
	}
	recv := comm.Alltoall(c, edges, off)
	if c.Rank() != 0 {
		return core.Result{}
	}
	// What arrived is readable only until the next collective: copy it out.
	n := 0
	for _, chunk := range recv {
		n += len(chunk)
	}
	canon := make([]graph.Edge, 0, n/2)
	maxV := graph.VID(0)
	for _, chunk := range recv {
		for _, e := range chunk {
			if e.U < e.V {
				canon = append(canon, e)
				maxV = max(maxV, e.V)
			}
		}
	}
	res := seqmst.Kruskal(int(maxV), canon)
	return core.Result{MSTEdges: res.Edges, TotalWeight: res.TotalWeight, NumEdges: len(res.Edges)}
}

// msf is one MSF computation: materialize the source, measure the
// algorithm, leave each rank's MSF share in shares[rank] and the rank-0
// summary in rep.
func (j *job) msf(c *comm.Comm) {
	alg, ok := msfAlgorithms[j.rs.alg]
	if !ok {
		// Every rank reads the same settings, so they all leave here.
		if c.Rank() == 0 {
			j.inputErr = fmt.Errorf("kamsta: unknown algorithm %q", j.rs.alg)
		}
		return
	}
	edges, layout, err := j.src.provide(c, j.rs)
	if err != nil {
		if c.Rank() == 0 {
			j.inputErr = err
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
		j.w.ResetMetrics()
	}
	comm.Barrier(c)
	r := alg(c, edges, layout, j.rs.core)
	j.shares[c.Rank()] = r.MSTEdges
	if c.Rank() == 0 {
		j.rep = Report{
			TotalWeight: r.TotalWeight, NumEdges: r.NumEdges,
			Rounds: r.Rounds, BaseCalls: r.BaseCalls,
			InputVertices: nv, InputEdges: ne, InputModeledSeconds: iclk,
		}
	}
}

// probe is the post-fault health probe: every PE contributes 1 to an
// Allreduce, exercising the full superstep path — deposits, barrier,
// pre-release combine, verdict — on whatever state the aborted job left
// behind. Rank 0 records the sum for its owner to check.
func (j *job) probe(c *comm.Comm) {
	n := comm.Allreduce(c, 1, func(a, b int) int { return a + b })
	if c.Rank() == 0 {
		j.probeSum = n
	}
}

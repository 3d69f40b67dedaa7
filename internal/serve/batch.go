package serve

import (
	"context"
	"sort"
	"time"

	"kamsta"
)

// Batching exploits that the minimum spanning forest of a disjoint union is
// the union of the forests: members' vertex labels are shifted into
// disjoint ranges, one Compute runs on the union, and the forest is split
// back by range. Correct for any union-decomposable algorithm; the server
// batches only borůvka and filter-borůvka, whose results are
// instance-deterministic.

// batchMaxLabel caps the summed label ranges of a batch: every relabeled
// vertex must stay in kamsta's [1, 2^32) label space.
const batchMaxLabel = 1<<32 - 1

// batchKey groups jobs that may share one Compute: same algorithm, seed and
// shape constraint.
type batchKey struct {
	alg  kamsta.Algorithm
	seed uint64
	pes  int
}

// batchKeyOf reports whether j is batchable under bc and its grouping key.
func batchKeyOf(j *Job, bc BatchConfig) (batchKey, bool) {
	if bc.MaxJobs < 2 {
		return batchKey{}, false
	}
	r := j.req
	if r.NoBatch || r.Edges == nil || len(r.Options) > 0 {
		return batchKey{}, false
	}
	if len(r.Edges) == 0 || len(r.Edges) > bc.MaxEdges {
		return batchKey{}, false
	}
	alg := r.Algorithm
	if alg == "" {
		alg = kamsta.AlgBoruvka
	}
	if alg != kamsta.AlgBoruvka && alg != kamsta.AlgFilterBoruvka {
		return batchKey{}, false
	}
	return batchKey{alg: alg, seed: r.Seed, pes: r.PEs}, true
}

// runBatch executes one batch: relabel members into disjoint vertex ranges,
// run one Compute, split the forest per member. The batch context uses the
// LATEST member deadline (and only when every member has one): one member's
// expiring deadline must not kill the survivors' shared run. An expired
// member reports its own deadline error; surviving members get their split
// of the forest. On a compute error, each live member resolves through the
// retry policy individually. Returns the compute error for machine-health
// accounting.
func (s *Server) runBatch(pm *poolMachine, jobs []*Job) error {
	bases := make([]uint64, len(jobs))
	var off uint64
	total := 0
	for i, j := range jobs {
		bases[i] = off
		off += j.maxV
		total += len(j.req.Edges)
	}
	union := make([]kamsta.InputEdge, 0, total)
	for i, j := range jobs {
		for _, e := range j.req.Edges {
			union = append(union, kamsta.InputEdge{U: e.U + bases[i], V: e.V + bases[i], W: e.W})
		}
	}

	ctx, cancel := context.WithCancel(s.baseCtx)
	if dl, ok := latestDeadline(jobs); ok {
		ctx, cancel = context.WithDeadline(s.baseCtx, dl)
	}
	defer cancel()

	s.sm.batchSize.Observe(float64(len(jobs)))
	start := time.Now()
	rep, err := pm.m.Compute(ctx, kamsta.FromEdges(union), s.runOptions(jobs[0].req)...)
	sec := time.Since(start).Seconds()
	s.sm.runTime.Observe(sec)
	s.shed.observe(pm.shape.PEs, sec)
	if err != nil {
		for _, j := range jobs {
			// A member whose own context expired or was cancelled reports
			// that; the rest carry the batch error into the retry policy,
			// where they re-dispatch individually (and may batch again).
			if jerr := j.ctx.Err(); jerr != nil {
				s.finishJob(j, nil, jerr)
			} else {
				s.maybeRetry(j, nil, err)
			}
		}
		return err
	}
	for i, j := range jobs {
		if jerr := j.ctx.Err(); jerr != nil {
			// The batch outlived this member's deadline (the shared run
			// serves the latest one): the result exists but arrived too
			// late for this member's contract.
			s.finishJob(j, nil, jerr)
			continue
		}
		s.finishJob(j, memberReport(rep, jobs, bases, i), nil)
	}
	return nil
}

// latestDeadline returns the latest member deadline when EVERY member has
// one; if any member is deadline-free the batch runs unbounded, because
// that member is entitled to a completed run.
func latestDeadline(jobs []*Job) (time.Time, bool) {
	var dl time.Time
	for _, j := range jobs {
		d, has := j.ctx.Deadline()
		if !has {
			return time.Time{}, false
		}
		if d.After(dl) {
			dl = d
		}
	}
	return dl, true
}

// memberReport carves member i's report out of the batch report. Forest
// edges are mapped back to original labels; MSTEdges stay canonically
// sorted because the offset shift preserves their order within a range.
// Machine-level figures (modeled/wall seconds, rounds, phases) are the
// batch's — members share one run, and the split documents that rather
// than invent a per-member cost model.
func memberReport(rep *kamsta.Report, jobs []*Job, bases []uint64, i int) *kamsta.Report {
	base := bases[i]
	hi := base + jobs[i].maxV // inclusive upper label of member i's range
	// rep.MSTEdges is sorted by canonical U, so member i's edges form one
	// contiguous run: binary-search its start, scan to its end.
	lo := sort.Search(len(rep.MSTEdges), func(k int) bool { return rep.MSTEdges[k].U > base })
	out := &kamsta.Report{
		InputVertices:       jobs[i].verts,
		InputEdges:          2 * len(jobs[i].req.Edges),
		InputModeledSeconds: rep.InputModeledSeconds,
		WallSeconds:         rep.WallSeconds,
		ModeledSeconds:      rep.ModeledSeconds,
		EdgesPerSecond:      rep.EdgesPerSecond,
	}
	for k := lo; k < len(rep.MSTEdges) && rep.MSTEdges[k].U <= hi; k++ {
		e := rep.MSTEdges[k]
		out.MSTEdges = append(out.MSTEdges, kamsta.InputEdge{U: e.U - base, V: e.V - base, W: e.W})
		out.TotalWeight += uint64(e.W)
		out.NumEdges++
	}
	return out
}

package core

import (
	"fmt"
	"slices"

	"kamsta/internal/alltoall"
	"kamsta/internal/arena"
	"kamsta/internal/comm"
	"kamsta/internal/graph"
	"kamsta/internal/par"
	"kamsta/internal/rng"
)

// Arena keys of the Filter-Borůvka working set.
var (
	kDistTbl   = arena.NewKey() // []graph.VID: dense owned slice of P
	kResCur    = arena.NewKey() // []graph.VID: resolve cursors
	kResDone   = arena.NewKey() // []bool: resolve completion flags
	kResTgt    = arena.NewKey() // []graph.VID: distinct pending targets
	kResSendQ  = arena.NewKey() // [][]graph.VID buckets (resolve queries)
	kResSendR  = arena.NewKey() // [][]labelPair buckets (resolve replies)
	kResAns    = arena.NewKey() // []labelPair: sorted answers
	kFilterVs  = arena.NewKey() // []graph.VID: distinct endpoints of a segment
	kFilterTmp = arena.NewKey() // []graph.Edge: filter map stage
	kFilterOut = arena.NewKey() // []graph.Edge: filter pack stage
)

// distArray is Filter-Borůvka's distributed component-representative array
// P (§V): P[v] holds a representative for every vertex label, 1D-partitioned
// over the PEs by label range. Each PE stores its owned range as a dense
// slice — Θ(n/p) words, the paper's own array representation — with label 0
// (reserved, vertices are 1-based) marking identity entries. Contractions
// recorded over time form shallow trees; resolve follows them to the roots
// with batched query rounds (the paper contracts them with O(log log n)
// pointer-doubling rounds at the end — we resolve on demand at each filter
// step, which needs the same machinery).
type distArray struct {
	n   uint64      // label space is [1, n]
	tbl []graph.VID // owned range [lo, hi), tbl[v-lo]; 0 = identity
	lo  uint64
	hi  uint64
}

// newDistArray creates P over the label space [1, maxLabel], identity
// everywhere. The dense slice is arena-backed: recycled across jobs, zeroed
// per job.
func newDistArray(c *comm.Comm, maxLabel uint64) *distArray {
	p := uint64(c.P())
	r := uint64(c.Rank())
	n := maxLabel + 1
	d := &distArray{
		n:  n,
		lo: r * n / p,
		hi: (r + 1) * n / p,
	}
	d.tbl = arena.GrabZeroed[graph.VID](c.Scratch(), kDistTbl, int(d.hi-d.lo))
	return d
}

// owner returns the PE owning label v. Monotone non-decreasing in v, so
// sorted labels fill all-to-all buckets in rank order.
func (d *distArray) owner(c *comm.Comm, v graph.VID) int {
	p := uint64(c.P())
	j := v * p / d.n
	for j+1 < p && v >= (j+1)*d.n/p {
		j++
	}
	for j > 0 && v < j*d.n/p {
		j--
	}
	return int(j)
}

// record pushes contraction pairs (v → root) to their owners. Collective:
// all PEs must call together (with possibly empty pair sets).
func (d *distArray) record(c *comm.Comm, pairs []labelPair, opt Options) {
	send := arena.Buckets[labelPair](c.Scratch(), kRecSend, c.P())
	for _, lp := range pairs {
		o := d.owner(c, lp.V)
		send[o] = append(send[o], lp)
	}
	recv := alltoall.Exchange(c, opt.A2A, send)
	for i := range recv {
		for _, lp := range recv[i] {
			d.tbl[lp.V-d.lo] = lp.L
		}
	}
}

// lookup returns the recorded representative of owned label v (identity if
// none recorded).
func (d *distArray) lookup(v graph.VID) graph.VID {
	if next := d.tbl[v-d.lo]; next != 0 {
		return next
	}
	return v
}

// resolve returns the fully-resolved representative for every queried
// label, following chains across PEs in batched rounds. vs must be sorted
// ascending and duplicate-free; the result is aligned with vs and is
// arena-backed (valid until the next resolve on this PE). Collective.
func (d *distArray) resolve(c *comm.Comm, vs []graph.VID, opt Options) []graph.VID {
	a := c.Scratch()
	cur := arena.Grab[graph.VID](a, kResCur, len(vs))
	copy(cur, vs)
	done := arena.GrabZeroed[bool](a, kResDone, len(vs))
	for iter := 0; ; iter++ {
		// Distinct pending targets, ascending: owners are monotone in the
		// label, so the buckets fill in rank order and every PE's query
		// sequence — and with it the reply concatenation below — is sorted.
		tgt := arena.GrabAppend[graph.VID](a, kResTgt)
		for i, v := range cur {
			if !done[i] {
				tgt = append(tgt, v)
			}
		}
		arena.Keep(a, kResTgt, tgt)
		slices.Sort(tgt)
		tgt = slices.Compact(tgt)
		send := arena.Buckets[graph.VID](a, kResSendQ, c.P())
		for _, t := range tgt {
			o := d.owner(c, t)
			send[o] = append(send[o], t)
		}
		recvQ := alltoall.Exchange(c, opt.A2A, send)
		sendR := arena.Buckets[labelPair](a, kResSendR, c.P())
		for from := range recvQ {
			for _, t := range recvQ[from] {
				sendR[from] = append(sendR[from], labelPair{V: t, L: d.lookup(t)})
			}
		}
		recvR := alltoall.Exchange(c, opt.A2A, sendR)
		ans := arena.GrabAppend[labelPair](a, kResAns)
		for i := range recvR {
			ans = append(ans, recvR[i]...)
		}
		arena.Keep(a, kResAns, ans)
		if !slices.IsSortedFunc(ans, lessPairV) {
			slices.SortFunc(ans, lessPairV)
		}
		at := ghostTable{pairs: ans}
		progress := false
		for i, v := range cur {
			if done[i] {
				continue
			}
			next, ok := at.get(v)
			if !ok {
				panic(fmt.Sprintf("core: distributed array resolution: no answer for label %d", v))
			}
			if next == v {
				done[i] = true
			} else {
				cur[i] = next
				progress = true
			}
		}
		if !comm.Allreduce(c, progress, func(a, b bool) bool { return a || b }) {
			break
		}
		if iter > 128 {
			panic("core: distributed array resolution failed to converge")
		}
	}
	return cur
}

// segment is one pending edge set of the Filter-Borůvka recursion.
type segment struct {
	edges       []graph.Edge
	needsFilter bool // must be filtered through P before processing
}

// FilterBoruvka computes the minimum spanning forest with Algorithm 2: one
// local preprocessing pass, then the Filter-Kruskal-style recursion —
// partition at a sampled median pivot, solve the light half with the
// distributed Borůvka base algorithm (recording contractions in P), filter
// the heavy half through P, recurse on the survivors. The recursion is
// realized with an explicit segment stack processed in weight order, which
// also hosts the §VI-C merge-back rule for poorly-filtered segments.
func FilterBoruvka(c *comm.Comm, edges []graph.Edge, layout *graph.Layout, opt Options) Result {
	opt = opt.withDefaults()
	in := makeInputCopy(c, edges)

	maxLabel := uint64(0)
	for _, e := range edges {
		if e.U > maxLabel {
			maxLabel = e.U
		}
	}
	maxLabel = comm.Allreduce(c, maxLabel, func(a, b uint64) uint64 {
		if a > b {
			return a
		}
		return b
	})
	P := newDistArray(c, maxLabel)

	var mst []graph.Edge
	res := Result{}
	work, l := edges, layout

	if opt.LocalPreprocessing {
		c.PhaseBegin(PhasePreprocess)
		work, l = localPreprocess(c, work, l, opt, &mst, P)
		c.PhaseEnd()
	}

	stack := []segment{{edges: work}}
	first := true
	for len(stack) > 0 {
		seg := stack[len(stack)-1]
		stack = stack[:len(stack)-1]

		var segLayout *graph.Layout
		if seg.needsFilter {
			c.PhaseBegin(PhaseFilter)
			seg.edges, segLayout = filterSegment(c, seg.edges, P, opt)
			m := comm.Allreduce(c, len(seg.edges), func(a, b int) int { return a + b })
			c.PhaseEnd()
			// Merge-back (§VI-C): a segment that came out too small is not
			// worth full processing; fold it into the next pending segment.
			if m < int(opt.Filter.MergeBackFraction*float64(opt.Filter.MinEdgesPerPE*c.P()))+1 && len(stack) > 0 {
				top := &stack[len(stack)-1]
				top.edges = append(top.edges, seg.edges...)
				top.needsFilter = true
				continue
			}
		} else if first {
			segLayout, first = l, false
		} else {
			seg.edges = dedupedLayout(c, seg.edges, opt)
			segLayout = graph.BuildLayout(c, seg.edges)
		}

		verifySymmetric(c, seg.edges, "segment-entry")
		m := comm.Allreduce(c, len(seg.edges), func(a, b int) int { return a + b })
		n := graph.GlobalVertexCount(c, segLayout, seg.edges)
		res.EdgesTouched += len(seg.edges)

		sparse := m <= sparseDegree*n ||
			m < opt.Filter.MinEdgesPerPE*c.P()
		if sparse {
			// Distributed Borůvka base (no preprocessing, no per-call MST
			// redistribution), recording contractions in P.
			w, wl := seg.edges, segLayout
			r, t, vc := distributedRounds(c, &w, &wl, opt, &mst, P)
			res.VertexCounts = append(res.VertexCounts, vc...)
			res.Rounds += r
			res.EdgesTouched += t
			c.PhaseBegin(PhaseBaseCase)
			baseCase(c, w, wl, &mst, P, opt)
			c.PhaseEnd()
			res.BaseCalls++
			continue
		}

		c.PhaseBegin(PhaseFilter)
		pivot, ok := pivotSelect(c, seg.edges, opt)
		var light, heavy []graph.Edge
		if ok {
			light, heavy = partitionAtPivot(c, seg.edges, pivot)
			c.ChargeCompute(len(seg.edges))
		}
		heavyM := comm.Allreduce(c, len(heavy), func(a, b int) int { return a + b })
		c.PhaseEnd()
		if !ok || heavyM == 0 {
			// Degenerate pivot: no split possible; solve directly.
			w, wl := seg.edges, segLayout
			r, t, vc := distributedRounds(c, &w, &wl, opt, &mst, P)
			res.VertexCounts = append(res.VertexCounts, vc...)
			res.Rounds += r
			res.EdgesTouched += t
			c.PhaseBegin(PhaseBaseCase)
			baseCase(c, w, wl, &mst, P, opt)
			c.PhaseEnd()
			res.BaseCalls++
			continue
		}
		// Heavy first onto the stack so the light half is processed first.
		stack = append(stack, segment{edges: heavy, needsFilter: true})
		stack = append(stack, segment{edges: light})
	}

	c.PhaseBegin(PhaseBaseCase)
	out := redistributeMST(c, mst, in, opt)
	c.PhaseEnd()
	res.MSTEdges = out
	res.TotalWeight, res.NumEdges = globalWeight(c, out)
	return res
}

// dedupedLayout prepares an unfiltered light segment: it is already a
// sorted subsequence per PE; parallel copies may remain from its parent and
// are reduced here when enabled.
func dedupedLayout(c *comm.Comm, edges []graph.Edge, opt Options) []graph.Edge {
	if opt.DedupParallel {
		return dedupSorted(c, edges)
	}
	return edges
}

// pivotSelect draws pivotSamples random edges per PE, gathers them, and
// returns the median under the unique weight order (§V: the paper sorts
// the sample with a distributed sorter and broadcasts the median — a
// gathered sample yields the identical pivot). ok is false when the
// segment is globally empty.
func pivotSelect(c *comm.Comm, edges []graph.Edge, opt Options) (graph.Edge, bool) {
	r := rng.New(opt.Seed ^ 0xF117).Split(uint64(c.Rank()))
	samples := make([]graph.Edge, 0, pivotSamples)
	for i := 0; i < pivotSamples && len(edges) > 0; i++ {
		samples = append(samples, edges[r.Intn(len(edges))])
	}
	all := comm.AllgatherConcat(c, samples)
	if len(all) == 0 {
		return graph.Edge{}, false
	}
	slices.SortFunc(all, graph.CmpWeight)
	return all[len(all)/2], true
}

// weightClassLess orders edges by (W, TB) only — a strict total order on
// logical undirected edges under which an edge and its back edge compare
// equal. The partition MUST use this order: the finer LessWeight breaks
// ties by current endpoint and ID, which would send the two directed
// copies of the pivot's own weight class to different sides and destroy
// the symmetric-representation invariant.
func weightClassLess(a, b graph.Edge) bool {
	if a.W != b.W {
		return a.W < b.W
	}
	return a.TB < b.TB
}

// partitionAtPivot splits edges into (≤ pivot, > pivot) under the weight-
// class order, preserving local sortedness (stable filters of a sorted
// sequence stay sorted). Both directed copies of an edge share the weight
// class, so the symmetric invariant is preserved on both sides. The halves
// are owned (not arena-backed): they live on the recursion stack across an
// unbounded number of rounds.
func partitionAtPivot(c *comm.Comm, edges []graph.Edge, pivot graph.Edge) (light, heavy []graph.Edge) {
	light = par.Filter(c.Pool(), edges, func(e graph.Edge) bool { return !weightClassLess(pivot, e) })
	heavy = par.Filter(c.Pool(), edges, func(e graph.Edge) bool { return weightClassLess(pivot, e) })
	return light, heavy
}

// filterSegment implements FILTER (§V): resolve every endpoint through P,
// drop intra-component edges (now self-loops), and redistribute the
// survivors into a fresh sorted, deduplicated, balanced distribution.
func filterSegment(c *comm.Comm, edges []graph.Edge, P *distArray, opt Options) ([]graph.Edge, *graph.Layout) {
	a := c.Scratch()
	// Distinct endpoints, sorted: the dense stand-in for the former hash
	// set, and the rename table the relabeling below binary-searches.
	vs := arena.GrabAppend[graph.VID](a, kFilterVs)
	for _, e := range edges {
		vs = append(vs, e.U, e.V)
	}
	arena.Keep(a, kFilterVs, vs)
	slices.Sort(vs)
	vs = slices.Compact(vs)
	reps := P.resolve(c, vs, opt)
	apply := func(e graph.Edge) graph.Edge {
		e.U = reps[lookupVID(vs, e.U)]
		e.V = reps[lookupVID(vs, e.V)]
		return e
	}
	out := par.MapInto(c.Pool(), arena.Grab[graph.Edge](a, kFilterTmp, len(edges)), edges, apply)
	out = par.FilterInto(c.Pool(), arena.Grab[graph.Edge](a, kFilterOut, len(edges)), out,
		func(e graph.Edge) bool { return e.U != e.V })
	c.ChargeCompute(len(edges))
	return redistribute(c, out, opt)
}

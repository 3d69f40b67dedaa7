package core

import (
	"fmt"
	"math/bits"
	"slices"

	"kamsta/internal/alltoall"
	"kamsta/internal/arena"
	"kamsta/internal/comm"
	"kamsta/internal/graph"
	"kamsta/internal/rng"
)

// Arena keys of the Filter-Borůvka working set.
var (
	kDistTbl   = arena.NewKey() // []graph.VID: dense owned slice of P
	kFlatPend  = arena.NewKey() // []graph.VID: owned labels flatten has not settled
	kResTgt    = arena.NewKey() // []graph.VID: a flatten round's distinct targets
	kResAns    = arena.NewKey() // []graph.VID: replies, aligned with the queries
	kResWin    = arena.NewKey() // []int32: flatten's reply table's index window
	kLabelBits = arena.NewKey() // []uint64: labelSet's bitmap over the label space
	kFilterVs  = arena.NewKey() // []graph.VID: distinct endpoints of a segment
	kFilterWin = arena.NewKey() // []int32: the rename table's index window
	kFilterOut = arena.NewKey() // []graph.Edge: relabeled survivors of a segment
	kPartHeavy = arena.NewKey() // []graph.Edge: heavy half staged by a partition
	kSegments  = arena.NewKey() // []graph.Edge: the stack segments' own memory
	kCarry     = arena.NewKey() // []graph.Edge: survivors merged back into the next segment
	kPartRuns  = arena.NewKey() // []int: per-block run bookkeeping of the pack loops
	kPivotSmp  = arena.NewKey() // []graph.Edge: this PE's pivot sample
	kPivotAll  = arena.NewKey() // []graph.Edge: the gathered sample
)

// labelSet collects labels of [0, n) and hands them back ascending and
// duplicate-free — the order every query sequence to P is built from.
// Dense label spaces (denseWindow over the whole space) mark a bitmap and
// scan it; sparse ones append, sort and compact. Both yield the same slice.
type labelSet struct {
	a    *arena.Arena
	k    arena.Key // slot of list
	bits []uint64  // nil on the sparse path
	list []graph.VID
}

// newLabelSet returns an empty set over [0, n) whose result lives in slot k.
func newLabelSet(a *arena.Arena, k arena.Key, n uint64, dense bool) labelSet {
	s := labelSet{a: a, k: k, list: arena.GrabAppend[graph.VID](a, k)}
	if dense {
		s.bits = arena.GrabZeroed[uint64](a, kLabelBits, int((n+63)/64))
	}
	return s
}

func (s *labelSet) add(v graph.VID) {
	if s.bits != nil {
		s.bits[v>>6] |= 1 << (v & 63)
	} else {
		s.list = append(s.list, v)
	}
}

// sorted returns the distinct labels added, ascending, and keeps the slot's
// grown capacity for the next set.
func (s *labelSet) sorted() []graph.VID {
	if s.bits == nil {
		slices.Sort(s.list)
		s.list = slices.Compact(s.list)
	}
	for w, word := range s.bits {
		for ; word != 0; word &= word - 1 {
			s.list = append(s.list, graph.VID(w<<6+bits.TrailingZeros64(word)))
		}
	}
	arena.Keep(s.a, s.k, s.list)
	return s.list
}

// distArray is Filter-Borůvka's distributed component-representative array
// P (§V): P[v] holds a representative for every vertex label, 1D-partitioned
// over the PEs by label range. Each PE stores its owned range as a dense
// slice — Θ(n/p) words, the paper's own array representation — with label 0
// (reserved, vertices are 1-based) marking identity entries. Contractions
// recorded over time form shallow trees, which §V contracts by pointer
// doubling so that FILTER needs one lookup per endpoint. Here P is
// flattened lazily, when resolve is called and something was recorded since
// the last flatten: no flatten runs after the recursion's last solve, and a
// plain Borůvka job has no P at all. resolve itself is then one query/reply
// hop.
type distArray struct {
	n     uint64      // label space is [1, n]
	tbl   []graph.VID // owned range [lo, hi), tbl[v-lo]; 0 = identity
	lo    uint64
	hi    uint64
	dirty bool // recorded since the last flatten (the same on every PE)
	hops  int  // query/reply hops made so far
}

// flatBit marks an entry that points at an identity entry. flatten sets it
// on every entry it settles, and an owner's reply carries it, so a querier
// whose target is settled takes the root without another hop. Labels stay
// far below it.
const flatBit = graph.VID(1) << 63

// traceResolve, when set (tests only), is told the query/reply hops of
// every resolve on every PE: those of the flatten it ran first, then its own.
var traceResolve func(flatten, resolve int)

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

// record pushes the contractions in a (vertex, label) table — its entries
// with label ≠ vertex, in table order — to their owners. Collective: all PEs
// must call together (with possibly empty tables).
func (d *distArray) record(c *comm.Comm, t denseLabels, opt Options) {
	send := alltoall.NewBuilder[labelPair](c, kRecSend)
	for i, v := range t.verts {
		if lbl := t.labels[i]; lbl != v {
			send.Add(d.owner(c, v), labelPair{V: v, L: lbl})
		}
	}
	recv := send.Exchange(opt.A2A)
	for i := range recv {
		for _, lp := range recv[i] {
			d.tbl[lp.V-d.lo] = lp.L
		}
	}
	d.dirty = true
}

// recordReplicated writes the contractions of a forest every PE holds whole
// — the base case's: verts[i] is contracted into verts[root[i]] — into the
// owned range directly, with no message. All PEs must call it together,
// with the same forest.
func (d *distArray) recordReplicated(verts []graph.VID, root []int32) {
	i, _ := slices.BinarySearch(verts, d.lo)
	for ; i < len(verts) && verts[i] < d.hi; i++ {
		if r := int(root[i]); r != i {
			d.tbl[verts[i]-d.lo] = verts[r]
		}
	}
	d.dirty = true
}

// ask sends every label of qs — ascending and duplicate-free — to its owner
// and returns the owner's entries for them as they lie (0 for identity, a
// settled root with flatBit), aligned with qs, in slot kResAns. Every owner
// answers its bucket in order and the buckets concatenate in rank order, so
// the replies arrive aligned with the queries. Collective.
func (d *distArray) ask(c *comm.Comm, qs []graph.VID, opt Options) []graph.VID {
	send := alltoall.NewBuilder[graph.VID](c, kResSendQ)
	for _, q := range qs {
		send.Add(d.owner(c, q), q)
	}
	recvQ := send.Exchange(opt.A2A)
	sendR := alltoall.NewBuilder[graph.VID](c, kResSendR)
	for from := range recvQ {
		for _, q := range recvQ[from] {
			sendR.Add(from, d.tbl[q-d.lo])
		}
	}
	recvR := sendR.Exchange(opt.A2A)
	d.hops++
	ans := arena.Grab[graph.VID](c.Scratch(), kResAns, len(qs))[:0]
	for i := range recvR {
		ans = append(ans, recvR[i]...)
	}
	if len(ans) != len(qs) {
		panic(fmt.Sprintf("core: distributed array: %d replies to %d queries", len(ans), len(qs)))
	}
	return ans
}

// flatten pointer-jumps the owned non-identity entries of P until each one
// points at an identity entry. A round asks the owner of every pending
// entry's target for the target's own entry: identity settles the entry
// where it points, a settled entry settles it on that entry's root, and
// anything else is the next pointer, so every pending chain at least halves
// per round. The owners answer from the round's start, before any of their
// own entries move. Collective.
func (d *distArray) flatten(c *comm.Comm, opt Options) {
	a := c.Scratch()
	pend := arena.GrabAppend[graph.VID](a, kFlatPend)
	for i, t := range d.tbl {
		if t != 0 {
			d.tbl[i] = t &^ flatBit // a settled root may have been contracted since
			pend = append(pend, d.lo+uint64(i))
		}
	}
	arena.Keep(a, kFlatPend, pend)
	c.ChargeCompute(len(d.tbl))
	for rounds := 1; ; rounds++ {
		set := newLabelSet(a, kResTgt, d.n, denseWindow(d.n, len(pend)))
		for _, v := range pend {
			set.add(d.tbl[v-d.lo])
		}
		tgt := denseLabels{vertexIndex: vertexIndex{verts: set.sorted()}}
		tgt.labels = d.ask(c, tgt.verts, opt)
		tgt.index(a, kResWin, len(pend))
		kept := pend[:0]
		for _, v := range pend {
			e := &d.tbl[v-d.lo]
			switch r, _ := tgt.get(*e); {
			case r == 0:
				*e |= flatBit
			case r&flatBit != 0:
				*e = r
			default:
				*e = r
				kept = append(kept, v)
			}
		}
		c.ChargeCompute(len(pend))
		pend = kept
		if !comm.Allreduce(c, len(pend) > 0, func(a, b bool) bool { return a || b }) {
			d.dirty = false
			return
		}
		if rounds > 64 {
			panic("core: distributed array flatten failed to converge")
		}
	}
}

// resolve returns the representative of every queried label: its root in
// P. vs must be sorted ascending and duplicate-free; the result is aligned
// with vs and is arena-backed (valid until the next resolve or flatten on
// this PE). P is flattened first if anything was recorded since the last
// flatten; the lookup itself is one query/reply hop. Collective.
func (d *distArray) resolve(c *comm.Comm, vs []graph.VID, opt Options) []graph.VID {
	h0 := d.hops
	if d.dirty {
		d.flatten(c, opt)
	}
	h1 := d.hops
	ans := d.ask(c, vs, opt)
	for i, r := range ans {
		if r == 0 {
			ans[i] = vs[i]
		} else {
			ans[i] = r &^ flatBit
		}
	}
	if traceResolve != nil {
		traceResolve(h1-h0, d.hops-h1)
	}
	return ans
}

// segment is one pending edge set of the Filter-Borůvka recursion: edges,
// then carry. The segments on the stack are the recursion's own memory —
// sub-slices of slot kSegments, or of localmst's slot when preprocessing
// left the first segment there — that partitionAtPivot splits in place, with
// capacities clipped so nothing appended to one can reach its neighbour.
// carry holds the survivors merged back into the segment (§VI-C), copied out
// of the sorter's slot into slot kCarry. Only the top of the stack receives
// a merge-back, and it is popped and filtered next, so at most one carry is
// live and the slot is free again once filterSegment has read it.
//
// kSegments is used as a stack: a segment that is not the recursion's own
// memory (the caller's input, a filter output in the sorter's slot) is
// partitioned out of place into the slot from the height the segments below
// it keep (top), and the two halves keep that height plus its length. A
// segment is popped only after everything above it, so the memory it frees
// is always at the top.
type segment struct {
	edges       []graph.Edge
	carry       []graph.Edge
	needsFilter bool // must be filtered through P before processing
	owned       bool // edges is this recursion's memory: partition in place
	top         int  // kSegments' height this segment and those below it keep
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

	// The input is sorted, so its last edge holds the largest source label,
	// and every label is a source (the edges are symmetric).
	maxLabel := uint64(0)
	if len(edges) > 0 {
		maxLabel = edges[len(edges)-1].U
	}
	P := newDistArray(c, comm.Allreduce(c, maxLabel, func(a, b uint64) uint64 { return max(a, b) }))

	mst := newForest(c)
	res := Result{}
	work, l := edges, layout
	owned := false // work is the caller's input

	if opt.preprocess(l) {
		c.PhaseBegin(PhasePreprocess)
		work, l, owned = localPreprocess(c, work, l, opt, &mst, P)
		c.PhaseEnd()
	}
	// solve is a leaf of the recursion: the distributed Borůvka base (no
	// preprocessing, no per-call MST redistribution), recording its
	// contractions in P.
	solve := func(w []graph.Edge, wl *graph.Layout) {
		r, t, vc := distributedRounds(c, &w, &wl, opt, &mst, P)
		res.VertexCounts = append(res.VertexCounts, vc...)
		res.Rounds += r
		res.EdgesTouched += t
		c.PhaseBegin(PhaseBaseCase)
		baseCase(c, w, wl, &mst, P)
		c.PhaseEnd()
		res.BaseCalls++
	}

	stack := []segment{{edges: work, owned: owned}}
	first := true
	for len(stack) > 0 {
		seg := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		top := 0 // the height of kSegments the pending segments keep
		if len(stack) > 0 {
			top = stack[len(stack)-1].top
		}

		var segLayout *graph.Layout
		if seg.needsFilter {
			c.PhaseBegin(PhaseFilter)
			seg.edges, segLayout = filterSegment(c, seg, P, opt)
			seg.owned = false // redistribute's slot, not ours
			m := comm.Allreduce(c, len(seg.edges), func(a, b int) int { return a + b })
			c.PhaseEnd()
			// Merge-back (§VI-C): a segment that came out too small is not
			// worth full processing; fold it into the next pending segment.
			if m < int(mergeBackFraction*float64(minEdgesPerPE*c.P()))+1 && len(stack) > 0 {
				top := &stack[len(stack)-1]
				top.carry = append(arena.GrabAppend[graph.Edge](c.Scratch(), kCarry), seg.edges...)
				arena.Keep(c.Scratch(), kCarry, top.carry)
				top.needsFilter = true
				continue
			}
		} else if first {
			segLayout, first = l, false
		} else {
			// An unfiltered light segment is a sorted subsequence of a
			// deduplicated sequence, per PE and across PEs, so nothing drops
			// here: dedupSorted only keeps the boundary allgather and the scan
			// the modeled clock has always charged.
			n := len(seg.edges)
			seg.edges = dedupSorted(c, seg.edges)
			if debugChecks && len(seg.edges) != n {
				panic(fmt.Sprintf("core: a light segment held %d parallel copies (rank %d)", n-len(seg.edges), c.Rank()))
			}
			segLayout = graph.BuildLayout(c, seg.edges)
		}

		verifySymmetric(c, seg.edges, "segment-entry")
		m := comm.Allreduce(c, len(seg.edges), func(a, b int) int { return a + b })
		n := graph.GlobalVertexCount(c, segLayout, seg.edges)
		res.EdgesTouched += len(seg.edges)

		if m <= sparseDegree*n || m < minEdgesPerPE*c.P() {
			solve(seg.edges, segLayout) // sparse: not worth partitioning
			continue
		}

		c.PhaseBegin(PhaseFilter)
		pivot, ok := pivotSelect(c, seg.edges, opt)
		var light, heavy []graph.Edge
		if ok {
			dst := seg.edges
			if !seg.owned {
				// The caller's input or a sorter slot: split out of place onto
				// the top of kSegments, which the halves then keep.
				seg.top = top + len(seg.edges)
				dst = arena.Grab[graph.Edge](c.Scratch(), kSegments, seg.top)[top:]
			}
			light, heavy = partitionAtPivot(c, dst, seg.edges, pivot)
			c.ChargeCompute(len(seg.edges))
		}
		heavyM := comm.Allreduce(c, len(heavy), func(a, b int) int { return a + b })
		c.PhaseEnd()
		if !ok || heavyM == 0 {
			solve(seg.edges, segLayout) // degenerate pivot: no split possible
			continue
		}
		// Heavy first onto the stack so the light half is processed first.
		stack = append(stack, segment{edges: heavy, needsFilter: true, owned: true, top: seg.top})
		stack = append(stack, segment{edges: light, owned: true, top: seg.top})
	}

	c.PhaseBegin(PhaseBaseCase)
	return res.finish(c, mst, in, opt)
}

// pivotSelect draws pivotSamples random edges per PE, gathers them, and
// returns the median under the unique weight order (§V: the paper sorts
// the sample with a distributed sorter and broadcasts the median — a
// gathered sample yields the identical pivot). ok is false when the
// segment is globally empty.
func pivotSelect(c *comm.Comm, edges []graph.Edge, opt Options) (graph.Edge, bool) {
	a := c.Scratch()
	r := rng.New(opt.Seed ^ 0xF117).Split(uint64(c.Rank()))
	samples := arena.Grab[graph.Edge](a, kPivotSmp, pivotSamples)[:0]
	for i := 0; i < pivotSamples && len(edges) > 0; i++ {
		samples = append(samples, edges[r.Intn(len(edges))])
	}
	all := comm.AllgatherConcatInto(c, arena.GrabAppend[graph.Edge](a, kPivotAll), samples)
	arena.Keep(a, kPivotAll, all)
	if len(all) == 0 {
		return graph.Edge{}, false
	}
	slices.SortFunc(all, graph.CmpWeight)
	return all[len(all)/2], true
}

// partitionAtPivot splits src into (≤ pivot, > pivot) under the
// weight-class order (W, TB) — a strict total order on logical undirected
// edges under which an edge and its back edge compare equal. The partition
// MUST use this order: the finer LessWeight breaks ties by current endpoint
// and ID, which would send the two directed copies of the pivot's own weight
// class to different sides and destroy the symmetric-representation
// invariant. The split is stable, so both halves stay locally sorted. The
// halves land in dst, which has src's length and is either src itself (in
// place) or memory disjoint from it; src is only read. One pass per pool
// block packs the light edges to the front of the block's range of dst and
// the heavy ones into an arena stage; the runs are then closed up, light to
// the front of dst and heavy behind it. light's capacity is clipped to its
// length and heavy runs to the end of dst, so appending to either reallocates
// instead of writing into the other (or into dst's own right neighbour).
func partitionAtPivot(c *comm.Comm, dst, src []graph.Edge, pivot graph.Edge) (light, heavy []graph.Edge) {
	a := c.Scratch()
	stage := arena.Grab[graph.Edge](a, kPartHeavy, len(src))
	lo, nl, nh := blockRuns(a, c.Pool().Threads())
	t := c.Pool().ForBlocks(len(src), func(w, blo, bhi int) {
		l, h := blo, blo
		for i := blo; i < bhi; i++ {
			if e := &src[i]; e.W < pivot.W || e.W == pivot.W && e.TB <= pivot.TB {
				dst[l] = *e
				l++
			} else {
				stage[h] = *e
				h++
			}
		}
		lo[w], nl[w], nh[w] = blo, l-blo, h-blo
	})
	k := closeUp(dst, dst, lo[:t], nl)
	closeUp(dst[k:], stage, lo[:t], nh)
	return dst[:k:k], dst[k:len(dst):len(dst)]
}

// blockRuns hands out the bookkeeping of a pack loop over pool blocks: block
// w leaves its survivors, in order, at [lo[w], lo[w]+n[w]) of its
// destination (and, in a two-way split, the rest at the same offset of a
// stage).
func blockRuns(a *arena.Arena, threads int) (lo, n, rest []int) {
	s := arena.Grab[int](a, kPartRuns, 3*threads)
	return s[:threads], s[threads : 2*threads], s[2*threads:]
}

// closeUp copies the runs src[lo[w]:lo[w]+n[w]] to the front of dst in block
// order — dst may be src, runs only move down — and returns their total
// length.
func closeUp(dst, src []graph.Edge, lo, n []int) int {
	total := 0
	for w, at := range lo {
		total += copy(dst[total:], src[at:at+n[w]])
	}
	return total
}

// filterSegment implements FILTER (§V): resolve every endpoint of the
// segment (edges, then carry) through P, drop intra-component edges (now
// self-loops), and redistribute the survivors into a fresh sorted,
// deduplicated, balanced distribution. The distinct endpoints come from a
// labelSet — a bitmap when the label space passes denseWindow for the
// segment's endpoint slots, sort and compact otherwise; the queries resolve
// sends are the same sorted set either way — and the rename goes through a
// denseLabels table indexed for those slots under the same rule.
func filterSegment(c *comm.Comm, seg segment, P *distArray, opt Options) ([]graph.Edge, *graph.Layout) {
	a := c.Scratch()
	m := len(seg.edges) + len(seg.carry)
	dense := denseWindow(P.n, 2*m)
	set := newLabelSet(a, kFilterVs, P.n, dense)
	for _, part := range [2][]graph.Edge{seg.edges, seg.carry} {
		for i := range part {
			set.add(part[i].U)
			set.add(part[i].V)
		}
	}
	ren := denseLabels{vertexIndex: vertexIndex{verts: set.sorted()}}
	ren.labels = P.resolve(c, ren.verts, opt)
	ren.index(a, kFilterWin, 2*m)
	out := arena.Grab[graph.Edge](a, kFilterOut, m)
	tbl := relabelTable{lab: ren}
	k := relabelPack(c, out, seg.edges, &tbl)
	k += relabelPack(c, out[k:], seg.carry, &tbl)
	c.ChargeCompute(m)
	return redistribute(c, out[:k], opt)
}

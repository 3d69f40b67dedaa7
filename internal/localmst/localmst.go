// Package localmst implements the intra-PE MST machinery of the paper:
// Borůvka rounds with min-priority-write minimum-edge selection (the
// building block taken from the GBBS algorithm of Dhulipala et al. [15]),
// specialized for two uses:
//
//   - Local preprocessing (§IV-A): contract local edges that are provably
//     MST edges using only locally available information. A vertex is only
//     contracted when its lightest incident edge overall is a local edge —
//     when the lightest edge is a cut edge, the vertex freezes and stays
//     for the distributed rounds.
//   - Shared-memory MSF: with every vertex local and no freezing, the same
//     rounds compute the full MSF of a graph on one node (the single-node
//     baseline of §VII-C).
//
// It also provides the engineering refinements of §VI-B: the hash-table
// based removal of parallel edges, and a one-level variant of the recursive
// edge filtering applied before contraction.
//
// Endpoints are translated once to dense int32 ids that ascend with the
// vertex labels, and the rounds run over 16-byte records that index the
// caller's edge slice, which is never written (DESIGN.md §8.3). The rounds
// are sequential per PE, the min-priority-write a plain min table; the
// thread count t reaches them only through the model. Every buffer comes
// from Config.Scratch, the Result's MSTEdges, Verts, Roots and
// Remaining included: they are valid until the next Run on the same arena.
// With a nil Scratch a call has its own arena and the Result owns them.
package localmst

import (
	"math"
	"math/bits"
	"slices"

	"kamsta/internal/arena"
	"kamsta/internal/graph"
	"kamsta/internal/par"
)

// Config controls a local contraction run.
type Config struct {
	// Scratch is the arena all working memory and the Result are taken
	// from (nil = a private arena for this call).
	Scratch *arena.Arena
	// Filter enables the §VI-B edge-filtering enhancement: the edge set is
	// partitioned at a pivot weight, the light part is contracted first,
	// and heavy intra-component edges are dropped before a second pass.
	// It activates above filterAbove edges.
	Filter bool
}

// filterAbove is the edge count above which Config.Filter splits the input.
const filterAbove = 4096

// Result of a local contraction.
type Result struct {
	// MSTEdges are the identified MST edges. Their U/V fields are working
	// labels; TB and ID still identify the original edge.
	MSTEdges []graph.Edge
	// Verts lists every eligible (isLocal) vertex in ascending order;
	// Roots[i] is the component root label of Verts[i].
	Verts []graph.VID
	Roots []graph.VID
	// Remaining holds the surviving edges, relabeled to component roots,
	// without self-loops, the lightest per pair, sorted lexicographically.
	Remaining []graph.Edge
	// Rounds is the number of Borůvka rounds executed.
	Rounds int
	// Work is the number of edge touches across all rounds (far below
	// m·Rounds, as rounds compact the edge set): the modeled-cost charge.
	Work int
}

// Arena slots of one Run.
var (
	kRecs, kPairs   = arena.NewKey(), arena.NewKey() // []rec working records; []uint32 endpoint-pair hash table
	kDirect, kLabel = arena.NewKey(), arena.NewKey() // []int32 label window → id+1; []graph.VID id → label
	kParent, kFlag  = arena.NewKey(), arena.NewKey() // []int32 contraction forest; []uint8 vertex flags
	kSlots          = arena.NewKey()                 // []uint32 min table: the minima, then their weights
	kMST, kRem      = arena.NewKey(), arena.NewKey() // []graph.Edge Result.MSTEdges, Result.Remaining
	kVerts, kRoots  = arena.NewKey(), arena.NewKey() // []graph.VID Result.Verts, Result.Roots
)

// rec is a working edge: current endpoint ids (component roots), weight,
// and the position of its edge in the caller's slice, where TB and ID are
// read when weights tie and when edges are emitted.
type rec struct {
	u, v int32
	w    graph.Weight
	orig uint32
}

// Vertex flags: a foreign vertex may not be contracted here (not isLocal), a
// frozen root may no longer contract within the current contract call, and
// a root hooked this round still has to be pointed at its new root.
const frozen, foreign, hooked = 1, 2, 4

// state is one Run: the id translation and the component structure over
// all endpoints. Ids ascend with labels, so comparing ids compares labels.
type state struct {
	edges  []graph.Edge // the caller's slice, read-only
	a      *arena.Arena // Config.Scratch, or this call's own
	base   graph.VID
	direct []int32     // direct[label-base] = id+1, 0 = absent; nil = search label
	label  []graph.VID // id → label
	parent []int32     // roots: parent[i] == i
	flag   []uint8
	min    []uint32 // the min table: per id, its lightest active record, or none
	best   []uint32 // the weight of min's record
	work   []rec    // the active records of the current round
	res    Result
}

// Run contracts the graph induced by edges as far as the locality rule
// allows. isLocal says whether a vertex may be contracted on this PE (for
// preprocessing: local and not shared; for a single-node MSF: always true)
// and is asked once per distinct vertex. Non-local endpoints keep their
// labels; edges to them freeze their source component when they are its
// lightest incident edge.
func Run(edges []graph.Edge, isLocal func(graph.VID) bool, cfg Config) Result {
	a := cfg.Scratch
	if a == nil {
		a = arena.New()
	}
	st := &state{edges: edges, a: a}
	st.res.MSTEdges = arena.GrabAppend[graph.Edge](a, kMST)
	st.number(isLocal)

	// Translate once, dropping self-loops; with filtering, light records
	// fill the buffer from the front and heavy ones from the back.
	filter := cfg.Filter && len(edges) > filterAbove
	var pivot graph.Edge
	if filter {
		pivot = medianWeight(edges)
	}
	recs := arena.Grab[rec](a, kRecs, len(edges))
	n, heavy := 0, len(recs)
	curU, u := graph.VID(0), int32(-1) // U is looked up once per run of equal sources
	for k := range edges {
		e := &edges[k]
		if e.U == e.V {
			continue
		}
		if e.U != curU || u < 0 {
			curU, u = e.U, st.id(e.U)
		}
		r := rec{u: u, v: st.id(e.V), w: e.W, orig: uint32(k)}
		// Light or heavy is a coin toss, so both ends are written and the
		// choice is arithmetic; recs[heavy-1] is at or past recs[n].
		h := 0
		if filter {
			if e.W > pivot.W {
				h = 1
			}
			if e.W == pivot.W && graph.LessWeight(pivot, *e) {
				h = 1
			}
		}
		recs[n], recs[heavy-1] = r, r
		n, heavy = n+1-h, heavy-h
	}
	if filter {
		// Contract the light part and filter the heavy edges through its labels.
		n = st.contract(recs[:n])
		for i := range st.parent {
			st.root(int32(i))
		}
		_, n = st.relabel(recs, n, heavy, len(recs))
	}
	n = st.contract(recs[:n])
	st.emit(recs[:n])
	return st.res
}

// number gives every distinct endpoint a dense id in ascending label order
// and asks isLocal once per vertex. When the labels span a window not much
// larger than the edge count (the rule, by §II-B's consecutive ids) a
// direct table translates in O(1); otherwise the sorted labels are searched.
func (st *state) number(isLocal func(graph.VID) bool) {
	edges, a := st.edges, st.a
	lo, hi := ^graph.VID(0), graph.VID(0)
	for i := range edges {
		lo = min(lo, edges[i].U, edges[i].V)
		hi = max(hi, edges[i].U, edges[i].V)
	}
	label := arena.GrabAppend[graph.VID](a, kLabel)
	if len(edges) > 0 && hi-lo < graph.VID(4*len(edges)+1024) {
		st.base = lo
		st.direct = arena.GrabZeroed[int32](a, kDirect, int(hi-lo)+1)
		for i := range edges {
			st.direct[edges[i].U-lo], st.direct[edges[i].V-lo] = 1, 1
		}
		for x, present := range st.direct {
			if present != 0 {
				label = append(label, lo+graph.VID(x))
				st.direct[x] = int32(len(label))
			}
		}
	} else {
		for i := range edges {
			label = append(label, edges[i].U, edges[i].V)
		}
		slices.Sort(label)
		label = slices.Compact(label)
	}
	arena.Keep(a, kLabel, label)
	st.label = label
	st.parent = arena.Grab[int32](a, kParent, len(label))
	st.flag = arena.Grab[uint8](a, kFlag, len(label))
	slots := arena.Grab[uint32](a, kSlots, 2*len(label))
	st.min, st.best = slots[:len(label)], slots[len(label):]
	for i, v := range label {
		st.parent[i], st.flag[i] = int32(i), 0
		if !isLocal(v) {
			st.flag[i] = foreign
		}
	}
}

// id returns the dense id of an endpoint label. It inlines into the
// translation loop; the search stays out of line so that it can.
func (st *state) id(v graph.VID) int32 {
	if d := st.direct; d != nil {
		return d[v-st.base] - 1
	}
	return st.search(v)
}

//go:noinline
func (st *state) search(v graph.VID) int32 {
	i, _ := slices.BinarySearch(st.label, v)
	return int32(i)
}

// lighter is graph.LessWeight on records: (W, TB, current V label, ID).
func (st *state) lighter(a, b rec) bool {
	if a.w != b.w {
		return a.w < b.w
	}
	ea, eb := &st.edges[a.orig], &st.edges[b.orig]
	if ea.TB != eb.TB {
		return ea.TB < eb.TB
	}
	if a.v != b.v {
		return a.v < b.v
	}
	return ea.ID < eb.ID
}

// edge materializes a record: its edge with the record's current labels.
func (st *state) edge(r rec) graph.Edge {
	e := st.edges[r.orig]
	e.U, e.V = st.label[r.u], st.label[r.v]
	return e
}

// root resolves i to its component root with path compression.
func (st *state) root(i int32) int32 {
	r := i
	for st.parent[r] != r {
		r = st.parent[r]
	}
	for st.parent[i] != r {
		st.parent[i], i = r, st.parent[i]
	}
	return r
}

// contract runs Borůvka rounds on w (endpoints are roots, no self-loops)
// until no component can contract, adding MST edges, rounds and work to the
// result. It compacts the survivors to the front of w, in no particular
// order, and returns their number.
func (st *state) contract(w []rec) int {
	// Frozen flags are a per-call memo: a component frozen for lack of
	// edges in the filtered light phase gets another chance when the heavy
	// edges arrive, and re-freezes naturally on a lighter cut edge.
	for i := range st.flag {
		st.flag[i] &^= frozen
	}
	// w[:rt] holds the retired edges — both ends frozen or foreign, which
	// is permanent within a call — so the per-round scan of the active
	// w[rt:n] stays proportional to the part of the graph still moving
	// instead of rescanning frozen boundaries every round.
	rt, n := 0, len(w)
	for {
		st.work = w[rt:n]
		st.res.Work += n - rt
		for i := range st.min {
			st.min[i], st.best[i] = none, math.MaxUint32
		}
		st.offer()
		if !st.hook() {
			return n
		}
		// Point this round's hooked roots at their new roots, which is all
		// the active records see; then relabel, drop self-loops, retire:
		// one compaction.
		for i, f := range st.flag {
			if f == hooked {
				st.root(int32(i))
				st.flag[i] = 0
			}
		}
		from := rt
		rt, n = st.relabel(w, from, from, n)
		// Contracting a dense graph leaves many parallel edges; reducing
		// them per round keeps the total work a geometric sum instead of
		// m·rounds. A pair is retired or active as a whole, so the two
		// parts reduce separately.
		if n-from > reduceAbove {
			retired := st.reducePairs(w[from:rt])
			active := st.reducePairs(w[rt:n])
			copy(w[from+retired:], w[rt:rt+active])
			rt, n = from+retired, from+retired+active
		}
	}
}

// reduceAbove is the survivor count above which a round reduces pairs.
const reduceAbove = 256

// none marks an empty min-table slot.
const none = ^uint32(0)

// offer is the min-priority-write [15]: every active record offers itself
// to the slots of BOTH endpoints, which makes the selection correct for
// undirected edges regardless of which directed copies this PE holds. best
// holds each minimum's weight, so only a weight tie reads the record it
// holds.
func (st *state) offer() {
	work, flag, slot, best := st.work, st.flag, st.min, st.best
	for k, r := range work {
		if flag[r.u] == 0 {
			if b := best[r.u]; r.w < b || r.w == b && (slot[r.u] == none || st.lighter(r, work[slot[r.u]])) {
				slot[r.u], best[r.u] = uint32(k), r.w
			}
		}
		if flag[r.v] == 0 {
			if b := best[r.v]; r.w < b || r.w == b && (slot[r.v] == none || st.lighter(r, work[slot[r.v]])) {
				slot[r.v], best[r.v] = uint32(k), r.w
			}
		}
	}
}

// hook hangs every root that can still contract under the other end of its
// lightest edge and emits that edge, freezes components whose lightest edge
// leaves the local vertex set, and reports whether anything merged.
func (st *state) hook() bool {
	merged := false
	for i := range st.parent {
		k := st.min[i]
		switch {
		case st.flag[i] != 0 || st.parent[i] != int32(i):
			continue
		case k == none:
			st.flag[i] = frozen // isolated component
			continue
		}
		r := st.work[k] // written from either side: the target is the other end
		j := r.v
		if j == int32(i) {
			j = r.u
		}
		switch {
		case st.flag[j] == foreign:
			st.flag[i] = frozen // lightest edge is a cut edge
		case j > int32(i) && st.min[j] == k:
			// 2-cycle (under a strict order both ends chose the same
			// record): the smaller label stays root, the larger emits.
		default:
			st.parent[i], st.flag[i] = j, hooked
			st.res.MSTEdges = append(st.res.MSTEdges, st.edge(r))
			merged = true
		}
	}
	st.res.Rounds++
	return merged
}

// relabel rewrites w[from:to] to current roots (each endpoint's parent must
// be its root) and drops self-loops, compacting the survivors to w[dst:n],
// dst ≤ from: edges frozen or foreign at both ends to w[dst:rt], the others
// to w[rt:n].
func (st *state) relabel(w []rec, dst, from, to int) (rt, n int) {
	rt, n = dst, dst
	for k := from; k < to; k++ {
		r := w[k]
		r.u, r.v = st.parent[r.u], st.parent[r.v]
		switch {
		case r.u == r.v:
		case st.flag[r.u] != 0 && st.flag[r.v] != 0:
			w[n], w[rt] = w[rt], r
			rt, n = rt+1, n+1
		default:
			w[n] = r
			n++
		}
	}
	return rt, n
}

// reducePairs keeps the lightest copy per directed endpoint pair, compacted
// to the front of w, and returns their number; an open-addressing table of
// positions in w is the map.
func (st *state) reducePairs(w []rec) int {
	size := 1 << bits.Len(uint(2*len(w))) // a power of two above 2·len(w)
	table := arena.GrabZeroed[uint32](st.a, kPairs, size)
	n := 0
	for _, r := range w {
		for h := (uint64(uint32(r.u))<<32 | uint64(uint32(r.v))) * 0x9E3779B97F4A7C15 >> 32; ; h++ {
			t := &table[h&uint64(size-1)]
			if *t == 0 {
				w[n] = r
				n++
				*t = uint32(n)
				break
			}
			if q := &w[*t-1]; q.u == r.u && q.v == r.v {
				if st.lighter(r, *q) {
					*q = r
				}
				break
			}
		}
	}
	return n
}

// medianWeight is the filter pivot: the median of a strided input sample.
func medianWeight(edges []graph.Edge) graph.Edge {
	sample := make([]graph.Edge, 0, 64)
	for i, step := 0, len(edges)/63+1; i < len(edges); i += step {
		sample = append(sample, edges[i])
	}
	slices.SortFunc(sample, graph.CmpWeight)
	return sample[len(sample)/2]
}

// emit fills the Result from the survivors w: Remaining is the lightest
// copy per endpoint pair (the hash-table parallel-edge removal of §VI-B) in
// lexicographic order. Ids ascend with labels, so two stable counting sorts
// give that order: by v into the spent hash table, then by u into Remaining,
// counting in the min table.
func (st *state) emit(w []rec) {
	w = w[:st.reducePairs(w)]
	pos := st.min
	clear(pos)
	for _, r := range w {
		pos[r.v]++
	}
	startOffsets(pos)
	order := arena.Grab[uint32](st.a, kPairs, len(w))
	for i, r := range w {
		order[pos[r.v]] = uint32(i)
		pos[r.v]++
	}
	clear(pos)
	for _, r := range w {
		pos[r.u]++
	}
	startOffsets(pos)
	rem := arena.Grab[graph.Edge](st.a, kRem, len(w))
	for _, i := range order {
		r := w[i]
		rem[pos[r.u]] = st.edge(r)
		pos[r.u]++
	}
	verts := arena.Grab[graph.VID](st.a, kVerts, len(st.label))[:0]
	roots := arena.Grab[graph.VID](st.a, kRoots, len(st.label))[:0]
	for i, v := range st.label {
		if st.flag[i] != foreign {
			verts = append(verts, v)
			roots = append(roots, st.label[st.root(int32(i))])
		}
	}
	arena.Keep(st.a, kMST, st.res.MSTEdges)
	st.res.Remaining, st.res.Verts, st.res.Roots = rem, verts, roots
}

// startOffsets turns counts into their exclusive prefix sums, in place.
func startOffsets(c []uint32) {
	sum := uint32(0)
	for i, x := range c {
		c[i], sum = sum, sum+x
	}
}

// MSF computes the full minimum spanning forest of an in-memory graph: the
// shared-memory baseline (§VII-C). All vertices are local. The pool is
// unused; the parameter stays only because the benchmark module passes one.
func MSF(edges []graph.Edge, _ *par.Pool) Result {
	return Run(edges, func(graph.VID) bool { return true }, Config{})
}

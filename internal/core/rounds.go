package core

import (
	"fmt"
	"slices"

	"kamsta/internal/alltoall"
	"kamsta/internal/arena"
	"kamsta/internal/comm"
	"kamsta/internal/dsort"
	"kamsta/internal/graph"
)

// Arena keys of the per-round dense tables and send frames. One set of
// keys per process; every PE's arena has its own storage behind them. A key
// is re-grabbed once per round, so a slot's previous round's contents are
// dead by the time it is reused (see the lifetime rules in DESIGN.md §8.2).
var (
	kRanges     = arena.NewKey() // []graph.VertexRange: per-source runs
	kMins       = arena.NewKey() // []minEdge: minimum-edge selection
	kVerts      = arena.NewKey() // []graph.VID: the round's non-shared vertices
	kParent     = arena.NewKey() // []parentEntry: pointer-doubling state
	kEmit       = arena.NewKey() // []int32: candidate MST edge per vertex
	kLabels     = arena.NewKey() // []graph.VID: component labels
	kGhost      = arena.NewKey() // []graph.VID: ghost vertices, ascending
	kGhostLbl   = arena.NewKey() // []graph.VID: their labels
	kGhostWin   = arena.NewKey() // []int32: the ghost table's index window
	kRelabelOut = arena.NewKey() // []graph.Edge: the rounds' relabelled edges
	kDirect     = arena.NewKey() // []int32: the round's vertex index window

	// Send frames, one per exchange call site: contractComponents' queries
	// and replies, exchangeLabels, distArray.record, resolve's queries and
	// replies, redistributeMST.
	kSendQ, kSendR, kSendLbl, kRecSend = alltoall.NewSendKey(), alltoall.NewSendKey(), alltoall.NewSendKey(), alltoall.NewSendKey()
	kResSendQ, kResSendR, kMSTSend     = alltoall.NewSendKey(), alltoall.NewSendKey(), alltoall.NewSendKey()
)

// minEdge pairs a local vertex with its lightest incident edge's index in
// the local edge slice.
type minEdge struct {
	v   graph.VID
	idx int
}

// minEdges finds, for every non-shared local vertex, the lightest incident
// edge (§IV, MINEDGES). Shared vertices are skipped — they become component
// roots and are contracted only in the base case. Because the edge sequence
// is symmetric and sorted, a non-shared vertex's full neighborhood is its
// contiguous source range, so this is a communication-free segmented min.
// The result is in ascending vertex order (ranges are sorted), which is what
// makes the dense tables of contractComponents index-ordered.
func minEdges(c *comm.Comm, edges []graph.Edge, l *graph.Layout) []minEdge {
	a := c.Scratch()
	ranges := graph.AppendLocalRanges(arena.GrabAppend[graph.VertexRange](a, kRanges), edges)
	arena.Keep(a, kRanges, ranges)
	out := arena.Grab[minEdge](a, kMins, len(ranges))
	own, end := l.LocalRange(c.Rank()) // a local source outside it is shared
	c.Pool().For(len(ranges), func(lo, hi int) {
		for k := lo; k < hi; k++ {
			r := ranges[k]
			if r.V < own || r.V >= end {
				out[k] = minEdge{v: r.V, idx: -1}
				continue
			}
			best := r.Lo
			for i := r.Lo + 1; i < r.Hi; i++ {
				if graph.LessWeight(edges[i], edges[best]) {
					best = i
				}
			}
			out[k] = minEdge{v: r.V, idx: best}
		}
	})
	c.ChargeCompute(len(edges))
	// Compact away the shared vertices (in place; writes trail reads).
	kept := out[:0]
	for _, me := range out {
		if me.idx >= 0 {
			kept = append(kept, me)
		}
	}
	return kept
}

// parentEntry is the pointer-doubling state of one local vertex.
type parentEntry struct {
	cur  graph.VID // current pointer along the tree
	done bool      // cur is the component root
}

// labelPair carries a vertex → label assignment between PEs.
type labelPair struct {
	V, L graph.VID
}

// vertexIndex numbers an ascending, duplicate-free vertex set: find(v) is
// v's position in verts, or -1. It is every per-vertex lookup of a round —
// the contraction's parent table, the round's labeling, the ghost table
// EXCHANGELABELS receives, Filter-Borůvka's rename and reply tables and the
// base case's replicated remap. Iteration is in index order, not a hash
// order, so every derived message sequence is deterministic.
//
// When the IDs span a window denseWindow admits for the lookups the table
// serves — the §II-B consecutive-ID guarantee makes this the common case —
// win holds index+1 per ID for a one-load answer; otherwise find
// binary-searches verts.
type vertexIndex struct {
	verts []graph.VID
	base  graph.VID
	win   []int32 // win[v-base] = 1 + index of v, 0 = absent; nil = search
}

// denseWindow is the one rule for trading a search for a table: a window of
// span IDs is worth indexing directly when it is at most 4·n+1024 for the n
// slots it serves — a table's entries or its lookups, whichever is more.
func denseWindow(span uint64, n int) bool {
	return span <= uint64(4*n+1024) && !forceSparseLabels
}

// forceSparseLabels makes denseWindow refuse everything (tests only): FILTER
// sorts instead of marking a bitmap and every vertexIndex searches. Either
// path must be indistinguishable from outside.
var forceSparseLabels = false

// directWindow returns the size of the index window over verts for a table
// serving that many lookups, or 0 when the ID span fails denseWindow — too
// sparse, so lookups fall back to searching.
func directWindow(verts []graph.VID, lookups int) int {
	if len(verts) == 0 {
		return 0
	}
	if span := int(verts[len(verts)-1]-verts[0]) + 1; denseWindow(uint64(span), max(len(verts), lookups)) {
		return span
	}
	return 0
}

// index builds the window out of slot k when directWindow admits it for
// lookups, and leaves x searching otherwise.
func (x *vertexIndex) index(a *arena.Arena, k arena.Key, lookups int) {
	x.win = nil
	if span := directWindow(x.verts, lookups); span > 0 {
		x.base = x.verts[0]
		x.win = arena.GrabZeroed[int32](a, k, span)
		for i, v := range x.verts {
			x.win[v-x.base] = int32(i + 1)
		}
	}
}

// find returns the index of v in verts, or -1. The search is written out
// rather than a slices.BinarySearch call so that find stays inlinable: it is
// the per-endpoint lookup of RELABEL and the base case's remap.
func (x *vertexIndex) find(v graph.VID) int {
	if i := v - x.base; i < graph.VID(len(x.win)) { // v < base wraps past it
		return int(x.win[i]) - 1
	}
	if x.win != nil {
		return -1
	}
	for lo, hi := 0, len(x.verts); lo < hi; {
		if m := (lo + hi) >> 1; x.verts[m] < v {
			lo = m + 1
		} else if x.verts[m] > v {
			hi = m
		} else {
			return m
		}
	}
	return -1
}

func (x *vertexIndex) len() int { return len(x.verts) }

// denseLabels is a vertexIndex with a label per vertex.
type denseLabels struct {
	vertexIndex
	labels []graph.VID
}

// get returns the label of v, if v is in the table.
func (d *denseLabels) get(v graph.VID) (graph.VID, bool) {
	if i := d.find(v); i >= 0 {
		return d.labels[i], true
	}
	return 0, false
}

// contractComponents converts the pseudo-trees induced by the minimum edges
// into rooted stars by distributed pointer doubling (§IV-B) and returns the
// component root label of every non-shared local vertex, appending the
// identified MST edges to mst. Shared vertices are declared roots, which
// both breaks pseudo-tree 2-cycles touching them and eliminates the
// contention the paper observes at high-degree vertices: a pointer to a
// shared vertex is resolved locally from the replicated layout, with no
// message to its (hot) home PE.
//
// All state is dense: mins arrives in ascending vertex order, so verts is a
// sorted rename table and parent/emit are index-aligned arrays. Vertices are
// processed in index order every round, so the query traffic — which chains
// resolve locally versus remotely, and hence the per-round all-to-all
// volumes — is a pure function of the graph. A hash order would decide how
// many pointer chases short-cut through already-advanced local entries, and
// with it the message bytes per round and the modeled clock.
func contractComponents(c *comm.Comm, edges []graph.Edge, l *graph.Layout, mins []minEdge,
	opt Options, mst *[]graph.Edge) denseLabels {

	a := c.Scratch()
	n := len(mins)
	// Dense tables for this PE's non-shared vertices.
	x := vertexIndex{verts: arena.Grab[graph.VID](a, kVerts, n)}
	parent := arena.Grab[parentEntry](a, kParent, n)
	emit := arena.Grab[int32](a, kEmit, n) // emit[i] = candidate MST edge index, -1 = none
	for i, me := range mins {
		e := edges[me.idx]
		x.verts[i] = me.v
		parent[i] = parentEntry{cur: e.V}
		emit[i] = int32(me.idx)
	}
	// One index serves the doubling below and, as the round's labeling,
	// RELABEL's lookup of every local edge's target.
	x.index(a, kDirect, len(edges))

	// Round 0 handles 2-cycles: u and parent[u]=v point at each other when
	// they picked the same logical lightest edge. The smaller label becomes
	// the root (and does not emit its copy of the edge). Mutual pointers
	// are only visible at v's home PE, so this is one query round asking
	// "is parent[v] == u?" — folded into the general doubling query below.
	type query struct {
		Asker  graph.VID // vertex whose pointer is being chased
		Target graph.VID // parent[Asker], owned by the queried PE
	}
	type reply struct {
		Asker   graph.VID
		Target  graph.VID
		Cur     graph.VID // parent[Target] at its home
		Done    bool
		Unknown bool // Target has no parent entry (it is a root by absence)
	}

	round := 0
	for {
		// Resolve what can be resolved locally; build queries for the rest.
		// Index order means a chase through an entry updated earlier in THIS
		// pass sees the advanced pointer — the same chaining the map version
		// performed, now in a fixed, deterministic order.
		sendQ := alltoall.NewBuilder[query](c, kSendQ)
		pending := 0
		for i := range parent {
			pe := &parent[i]
			if pe.done {
				continue
			}
			u := x.verts[i]
			v := pe.cur
			if v == u {
				pe.done = true
				continue
			}
			if j := x.find(v); j >= 0 {
				// Target is on this PE (so not shared): step locally.
				q := &parent[j]
				if round == 0 && q.cur == u {
					// Local 2-cycle.
					if u < v {
						pe.cur = u
						pe.done = true
						emit[i] = -1
					} else {
						pe.done = true // cur stays v, v is root
					}
					continue
				}
				if q.done || q.cur == v {
					pe.cur = q.cur
					if q.cur == v { // v is a root
						pe.done = true
					} else {
						pe.done = q.done
					}
					if pe.cur == u { // collapsed 2-cycle remnant
						pe.done = true
					}
					continue
				}
				pe.cur = q.cur
				pending++
				continue
			}
			if home, last := l.SharedSpan(v); last > home {
				// Shared vertices are roots by fiat — no communication.
				pe.done = true
			} else {
				sendQ.Add(home, query{Asker: u, Target: v})
				pending++
			}
		}
		// Convergence check: one Allreduce per doubling round. With the
		// pre-release-combining substrate this superstep costs O(p) wall
		// work total, so the O(log n) rounds of pointer chasing are no
		// longer dominated by synchronization at high PE counts.
		totalPending := comm.Allreduce(c, pending, func(a, b int) int { return a + b })
		if totalPending == 0 {
			break
		}

		recvQ := sendQ.Exchange(opt.A2A)
		sendR := alltoall.NewBuilder[reply](c, kSendR)
		for from := range recvQ {
			for _, q := range recvQ[from] {
				r := reply{Asker: q.Asker, Target: q.Target}
				if j := x.find(q.Target); j >= 0 {
					pe := &parent[j]
					r.Cur = pe.cur
					r.Done = pe.done || pe.cur == q.Target
				} else {
					r.Unknown = true
				}
				sendR.Add(from, r)
			}
		}
		recvR := sendR.Exchange(opt.A2A)
		for from := range recvR {
			for _, r := range recvR[from] {
				i := x.find(r.Asker)
				if i < 0 {
					continue
				}
				pe := &parent[i]
				if pe.done {
					continue
				}
				switch {
				case r.Unknown:
					// Every non-shared vertex has a parent entry at its
					// home (the edge sequence is symmetric), so a miss is a
					// protocol bug, not a root.
					panic(fmt.Sprintf("core: pointer doubling: no parent entry for vertex %d at its home", r.Target))
				case round == 0 && r.Cur == r.Asker && !r.Done:
					// Remote 2-cycle: u ↔ v. Smaller label is the root.
					u, v := r.Asker, r.Target
					if u < v {
						pe.cur = u
						pe.done = true
						emit[i] = -1
					} else {
						pe.done = true // v stays our root; v's side resolves itself
					}
				default:
					pe.cur = r.Cur
					if r.Done || r.Cur == r.Target {
						pe.done = true
					}
					if pe.cur == r.Asker {
						// The chase walked back to ourselves: 2-cycle that
						// was already re-rooted at us.
						pe.done = true
					}
				}
			}
		}
		round++
		if round > 64 {
			panic("core: pointer doubling failed to converge")
		}
	}

	// Emit MST edges (every minimum edge except the root's copy in each
	// 2-cycle) and collect labels, both in index order. Ascending vertex
	// order IS ascending edge-index order — a vertex's minimum edge lies in
	// its own source range and ranges are sorted — so the emission sequence
	// equals the sorted order the map version had to re-establish with an
	// explicit sort over the surviving indices.
	labels := arena.Grab[graph.VID](a, kLabels, n)
	for i := range parent {
		labels[i] = parent[i].cur
		if e := emit[i]; e >= 0 {
			*mst = append(*mst, edges[e])
		}
	}
	c.ChargeCompute(n)
	return denseLabels{vertexIndex: x, labels: labels}
}

// exchangeLabels implements EXCHANGELABELS (§IV-B): for every cut edge
// (u, v) with contracted local source u, the new label of u is pushed to
// the home PE of the reverse edge (v, u), deduplicated per (PE, u) pair.
// Shared endpoints need no messages: both sides know they are roots.
// The returned table resolves ghost vertices to their new labels, through an
// index window sized, as the round's own, for one lookup per local edge.
//
// Neither the owners nor the deduplication need a search per edge: within one
// source vertex's sorted edge range the reverse copies (v, u, W, TB) ascend,
// so the owner is found once per range and then only walked forward
// (Layout.NextOwnerOfReverse), and duplicates per (owner, u) are adjacent —
// remembering the last owner suffices. The sources ascend, so the source's
// label is found by a cursor over lab, and an edge into this PE's own
// vertex range needs no owner at all: its reverse copy is here.
func exchangeLabels(c *comm.Comm, edges []graph.Edge, l *graph.Layout,
	lab denseLabels, opt Options) denseLabels {

	a := c.Scratch()
	send := alltoall.NewBuilder[labelPair](c, kSendLbl)
	lo, hi := l.LocalRange(c.Rank())
	var (
		curU        graph.VID // 0 is no vertex
		lbl         graph.VID
		has         bool
		next        int // lab.verts[next] is the first label source ≥ curU
		owner, last int // owner < 0: not yet located in this range
	)
	for _, e := range edges {
		if e.U != curU {
			curU, owner, last = e.U, -1, -1
			for next < len(lab.verts) && lab.verts[next] < e.U {
				next++
			}
			if has = next < len(lab.verts) && lab.verts[next] == e.U; has {
				lbl = lab.labels[next]
			}
		}
		// A shared source keeps its label and the receiver knows; a reverse
		// edge of ours is resolved locally by RELABEL.
		if !has || lo <= e.V && e.V < hi {
			continue
		}
		if owner < 0 {
			// Probing with the full weight class pins the exact copy even
			// among parallels.
			owner = l.OwnerOfReverse(e)
		} else {
			owner = l.NextOwnerOfReverse(owner, e)
		}
		if owner == c.Rank() || owner == last {
			continue
		}
		last = owner
		send.Add(owner, labelPair{V: e.U, L: lbl})
	}
	recv := send.Exchange(opt.A2A)
	// Rank-ordered arrival is ascending by vertex: non-shared sources of
	// different PEs are disjoint and rank-ordered.
	ghost := denseLabels{
		vertexIndex: vertexIndex{verts: arena.GrabAppend[graph.VID](a, kGhost)},
		labels:      arena.GrabAppend[graph.VID](a, kGhostLbl),
	}
	for i := range recv {
		for _, lp := range recv[i] {
			ghost.verts = append(ghost.verts, lp.V)
			ghost.labels = append(ghost.labels, lp.L)
		}
	}
	arena.Keep(a, kGhost, ghost.verts)
	arena.Keep(a, kGhostLbl, ghost.labels)
	if !slices.IsSorted(ghost.verts) {
		panic(fmt.Sprintf("core: exchangeLabels: rank %d: ghost labels arrived out of vertex order", c.Rank()))
	}
	ghost.index(a, kGhostWin, len(edges))
	c.ChargeCompute(len(edges))
	return ghost
}

// relabelTable is what RELABEL renames an endpoint through: this PE's own
// table, then the ghost table, and a vertex in neither keeps its label — it
// is shared and a root this round, or (preprocessing) was not contracted.
// With strict set (the distributed rounds, where every non-shared vertex has
// a label) an unknown non-shared endpoint is a protocol bug and panics.
type relabelTable struct {
	lab, ghost denseLabels
	strict     *graph.Layout
}

// resolve returns the new label of v; m is the caller's edge count, for the
// panic message only. It reads the tables through find, which inlines, not
// get, which does not: this is the per-endpoint path.
func (t *relabelTable) resolve(c *comm.Comm, v graph.VID, m int) graph.VID {
	if i := t.lab.find(v); i >= 0 {
		return t.lab.labels[i]
	}
	if i := t.ghost.find(v); i >= 0 {
		return t.ghost.labels[i]
	}
	if l := t.strict; l != nil && !l.IsShared(v) {
		first, last := l.SharedSpan(v)
		panic(fmt.Sprintf("core: relabel: rank %d: no label for non-shared vertex %d (span %d..%d, home %d, labels=%d ghost=%d, localEdges=%d)",
			c.Rank(), v, first, last, l.HomePE(v), t.lab.len(), t.ghost.len(), m))
	}
	return v
}

// relabelPack implements RELABEL (§IV-C) and FILTER's rename (§V), the one
// loop of either in the program: rewrite the endpoints of src through t, drop
// the self-loops and pack the rest, in order, to the front of dst, whose
// length must be at least src's; it returns their number. One pass per pool
// block packs to the front of the block's share of dst, then the runs are
// closed up. dst may be src: writes trail reads.
func relabelPack(c *comm.Comm, dst, src []graph.Edge, t *relabelTable) int {
	lo, n, _ := blockRuns(c.Scratch(), c.Pool().Threads())
	blocks := c.Pool().ForBlocks(len(src), func(w, blo, bhi int) {
		o := blo
		var u, nu graph.VID // the last source resolved (0 is no vertex): sorted runs repeat it
		for i := blo; i < bhi; i++ {
			e := src[i]
			if e.U != u {
				u, nu = e.U, t.resolve(c, e.U, len(src))
			}
			e.U, e.V = nu, t.resolve(c, e.V, len(src))
			dst[o] = e // kept only if no self-loop: a branch here mispredicts
			if e.U != e.V {
				o++
			}
		}
		lo[w], n[w] = blo, o-blo
	})
	return closeUp(dst, dst, lo[:blocks], n)
}

// redistribute implements REDISTRIBUTE (§IV-C): sort the relabeled edges
// lexicographically with the distributed sorter, reduce parallel edges to
// their lightest representative, rebalance, and rebuild the replicated
// layout with an allgather. The result is arena-backed (dsort's output
// slot): it is the round's working edge set and is consumed before the next
// round's redistribute re-sorts.
func redistribute(c *comm.Comm, edges []graph.Edge, opt Options) ([]graph.Edge, *graph.Layout) {
	sorted := dsort.Sort(c, edges, dsort.ByKey(graph.LessLex, graph.KeyLex), opt.Sort)
	sorted = dsort.Rebalance(c, dedupSorted(c, sorted))
	return sorted, graph.BuildLayout(c, sorted)
}

// dedupSorted is graph.DedupSorted charged for its scan after the boundary
// allgather (the input pipeline in gen charges before it).
func dedupSorted(c *comm.Comm, sorted []graph.Edge) []graph.Edge {
	n := len(sorted)
	dedup := graph.DedupSorted(c, sorted)
	c.ChargeCompute(n)
	return dedup
}

// debugChecks enables expensive global invariant verification (tests only).
var debugChecks = false

// verifySymmetric gathers the whole distributed edge set and checks that
// every directed edge has its reverse copy. Debug only — O(m) per PE.
func verifySymmetric(c *comm.Comm, edges []graph.Edge, where string) {
	if !debugChecks {
		return
	}
	all := comm.AllgatherConcat(c, edges)
	type dkey struct {
		U, V graph.VID
		W    graph.Weight
		TB   uint64
	}
	set := make(map[dkey]int, len(all))
	for _, e := range all {
		set[dkey{e.U, e.V, e.W, e.TB}]++
	}
	for _, e := range all {
		if set[dkey{e.V, e.U, e.W, e.TB}] == 0 {
			panic(fmt.Sprintf("core: %s: edge %v has no reverse copy (rank %d)", where, e, c.Rank()))
		}
	}
}

package graph

import "kamsta/internal/comm"

// Layout is the replicated part of the distributed graph data structure
// (§II-B): for every PE its lexicographically smallest edge, its last
// source vertex and its local edge count. It supports, by local binary
// search only:
//
//   - HomePE(v): the first PE holding edges with source v,
//   - IsShared(v): whether v's edge range crosses a PE boundary (shared
//     vertices are the component roots of the distributed Borůvka rounds),
//   - OwnerOfReverse(e): the PE holding the reverse copy of edge e, and
//     NextOwnerOfReverse, the same answer by a forward walk from an earlier
//     one,
//   - SharedSpan(v): the full contiguous range of PEs sharing v,
//   - LocalRange(rank): the label range of the vertices only PE rank holds.
//
// Empty PEs are handled by back-filling their First entry with the next
// non-empty PE's first edge, keeping the sequence monotone. Every PE's
// entries are one row, so a layout is its header and one row array.
type Layout struct {
	P       int
	pes     []pe // pes[i] for PE i, and pes[P], whose next is P, ends every walk
	sources int  // GlobalVertexCount's local count + 1, once made (0: not yet)
}

// pe is one PE's row of the layout.
type pe struct {
	entry
	next int // the first non-empty PE >= this one
}

// entry is the per-PE contribution to the layout.
type entry struct {
	First, Last Edge // minlex(E_i), back-filled when empty; maxlex(E_i)
	Count       int  // local edge count
}

// First is minlex(E_i), back-filled for an empty PE i.
func (l *Layout) First(i int) Edge { return l.pes[i].First }

// Last is the lexicographically largest edge on PE i (the zero edge when it
// holds none).
func (l *Layout) Last(i int) Edge { return l.pes[i].Last }

// Count is PE i's local edge count.
func (l *Layout) Count(i int) int { return l.pes[i].Count }

// ModeledBytes counts both edges at Edge's declared 40 bytes, so the layout
// allgather charges 88 whatever Edge's in-memory packing.
func (*entry) ModeledBytes() int { return 88 }

// BuildLayout constructs the replicated layout from each PE's sorted local
// edges using one allgather, as in §II-B / §IV-C.
func BuildLayout(c *comm.Comm, local []Edge) *Layout {
	e := entry{Count: len(local)}
	if len(local) > 0 {
		e.First = local[0]
		e.Last = local[len(local)-1]
	}
	all := comm.Allgather(c, e)
	return assembleLayout(all)
}

func assembleLayout(all []entry) *Layout {
	p := len(all)
	l := &Layout{P: p, pes: make([]pe, p+1)}
	// Back-fill empties from the right; trailing empties get the sentinel.
	fill := MaxEdge()
	l.pes[p].next = p
	for i := p - 1; i >= 0; i-- {
		r := &l.pes[i]
		r.entry = all[i]
		if r.Count == 0 {
			r.First = fill
			r.next = l.pes[i+1].next
		} else {
			fill = r.First
			r.next = i
		}
	}
	return l
}

// locate returns the first non-empty PE containing an edge >= *probe, or
// P-1 if none.
func (l *Layout) locate(probe *Edge) int {
	// Find the smallest i with First[next[i+1]] > probe, i.e. the PE whose
	// range [First[i], First[i+1]) can contain probe; then skip empties.
	lo, hi := 0, l.P
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if n := l.pes[m+1].next; n < l.P && !lessLex(probe, &l.pes[n].First) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	// The probe may fall in the value gap between PE i's last edge and the
	// next non-empty PE's first edge; the first edge >= probe then lives on
	// that next PE.
	return l.advance(l.pes[lo].next, probe)
}

// advance walks forward from PE i, which must be P or at most the first
// non-empty PE holding an edge >= *probe, to that PE (P-1 if none).
func (l *Layout) advance(i int, probe *Edge) int {
	for i < l.P && lessLex(&l.pes[i].Last, probe) {
		i = l.pes[i+1].next
	}
	return min(i, l.P-1)
}

// HomePE returns the first PE holding edges with source v. If v does not
// occur as a source anywhere, the result is the PE where such edges would
// start; callers only query existing vertices. Real vertices are labelled
// from 1, so the probe (v, 0, 0, 0) sorts before every real edge of v.
func (l *Layout) HomePE(v VID) int { return l.locate(&Edge{U: v}) }

// OwnerOfReverse returns the PE holding the reverse copy of e — the edge
// (e.V, e.U) with the same weight class. Probing with the full (W, TB) key
// pins the exact copy even when parallel edges between the same endpoints
// exist.
func (l *Layout) OwnerOfReverse(e Edge) int {
	return l.locate(&Edge{U: e.V, V: e.U, W: e.W, TB: e.TB})
}

// NextOwnerOfReverse is OwnerOfReverse(e) found by walking forward from
// owner, the OwnerOfReverse of an edge whose reverse copy sorts at or before
// e's. Within one source run the reverse copies (v, u, W, TB) ascend, so
// EXCHANGELABELS searches once per run and then only moves this cursor.
func (l *Layout) NextOwnerOfReverse(owner int, e Edge) int {
	return l.advance(owner, &Edge{U: e.V, V: e.U, W: e.W, TB: e.TB})
}

// IsShared reports whether v's edge range crosses a PE boundary: some later
// non-empty PE starts with source v while v's range starts earlier, or v
// starts a PE and also ends the previous non-empty one.
func (l *Layout) IsShared(v VID) bool {
	first, last := l.SharedSpan(v)
	return last > first
}

// SharedSpan returns the range [first, last] of non-empty PEs whose local
// edge sets contain source v, assuming v exists. For a non-shared vertex
// first == last == HomePE(v).
func (l *Layout) SharedSpan(v VID) (int, int) {
	first := l.HomePE(v)
	last := first
	for {
		n := l.pes[last+1].next
		if n >= l.P || l.pes[n].First.U != v {
			break
		}
		last = n
	}
	return first, last
}

// LocalRange returns the half-open label range [lo, hi) for which an
// existing vertex v has SharedSpan(v) == (rank, rank): the PE's first to
// last source, minus a first source the previous non-empty PE ends on and a
// last source the next one starts with (lo ≥ hi when nothing is left).
func (l *Layout) LocalRange(rank int) (lo, hi VID) {
	r := &l.pes[rank]
	if r.Count == 0 {
		return 0, 0
	}
	lo, hi = r.First.U, r.Last.U+1
	if l.HomePE(lo) < rank {
		lo++
	}
	if n := l.pes[rank+1].next; n < l.P && l.pes[n].First.U == hi-1 {
		hi--
	}
	return lo, hi
}

// IsSharedOn reports whether v is shared from the point of view of PE rank:
// v's span includes rank and at least one other PE.
func (l *Layout) IsSharedOn(v VID, rank int) bool {
	first, last := l.SharedSpan(v)
	return last > first && first <= rank && rank <= last
}

// GlobalVertexCount counts the distinct source vertices of the whole
// distributed edge sequence, counting shared vertices once. localEdges must
// be this PE's sorted local edges, the ones l was built for: the local count
// is made once per layout and remembered, so a job and the algorithm it runs
// scan the input for it once. The Allreduce runs on every call.
func GlobalVertexCount(c *comm.Comm, l *Layout, localEdges []Edge) int {
	if l.sources == 0 {
		distinct := 0
		for i := range localEdges {
			if i == 0 || localEdges[i].U != localEdges[i-1].U {
				distinct++
			}
		}
		// Subtract one if our first vertex is already counted by an earlier PE.
		if len(localEdges) > 0 && l.HomePE(localEdges[0].U) < c.Rank() {
			distinct--
		}
		l.sources = distinct + 1
	}
	return comm.Allreduce(c, l.sources-1, func(a, b int) int { return a + b })
}

// DedupSorted removes directed duplicates (same U and V) from a globally
// lexicographically sorted distribution, in place, keeping the first of
// each run — the lightest, since the sort key continues with (W, TB). Runs
// crossing a PE boundary are resolved by DedupHead's allgather. Nothing is
// written when nothing drops. It charges no compute; each caller charges its
// scan of len(sorted) where its modeled clock has always had it.
func DedupSorted(c *comm.Comm, sorted []Edge) []Edge {
	return compactSorted(sorted[DedupHead(c, sorted):])
}

// DedupHead is DedupSorted's boundary step, on input that need not be
// compacted yet: one allgather of each PE's last (U, V), and the number of
// leading edges of sorted that continue the previous non-empty PE's last
// pair — the head run that PE keeps the first of. Collective.
func DedupHead(c *comm.Comm, sorted []Edge) int {
	type key struct {
		Has  bool
		U, V VID
	}
	mine := key{}
	if len(sorted) > 0 {
		last := sorted[len(sorted)-1]
		mine = key{Has: true, U: last.U, V: last.V}
	}
	lasts := comm.Allgather(c, mine)
	var prev key
	for i := 0; i < c.Rank(); i++ {
		if lasts[i].Has {
			prev = lasts[i]
		}
	}
	head := 0
	for prev.Has && head < len(sorted) && sorted[head].U == prev.U && sorted[head].V == prev.V {
		head++
	}
	return head
}

// compactSorted drops every edge of the sorted local run s that repeats its
// predecessor's (U, V), in place, and writes nothing before the first one.
func compactSorted(s []Edge) []Edge {
	k := 1
	for k < len(s) && (s[k].U != s[k-1].U || s[k].V != s[k-1].V) {
		k++
	}
	if k >= len(s) {
		return s
	}
	out := s[:k]
	for _, e := range s[k+1:] {
		if last := &out[len(out)-1]; e.U != last.U || e.V != last.V {
			out = append(out, e)
		}
	}
	return out
}

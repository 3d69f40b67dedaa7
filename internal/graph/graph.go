// Package graph defines the edge representation and the distributed graph
// data structure of the paper (§II-B): an undirected weighted graph stored
// as a lexicographically sorted sequence of directed edges (both directions
// present), 1D-partitioned over the PEs, together with a replicated array
// of each PE's lexicographically smallest edge. The replicated array allows
// any PE to locate the home PE of a vertex or edge by binary search and to
// classify vertices as local, shared, or ghost (Fig. 1) without
// communication.
package graph

import (
	"errors"
	"fmt"
	"math"

	"kamsta/internal/rng"
)

// VID is a vertex identifier. Vertex labels are 1-based as in the paper;
// label 0 is reserved for probes and sentinels.
type VID = uint64

// Weight is an edge weight. Experiments draw weights uniformly from
// [1, 255) as in the paper's setup.
type Weight = uint32

// Edge is a directed working edge. U and V are the current endpoints and
// are rewritten as components contract; TB and ID never change:
//
//   - TB packs the original endpoints (min<<32 | max) and acts as a
//     symmetric tie-break key, making all edge weights globally distinct
//     (§II-C) — an edge and its back edge share the same TB.
//   - ID is the edge's global index in the input sequence, used to route
//     the MST edge back to its home PE at the end (RedistributeMST) and to
//     read its original endpoints from the input chunk (Chunk, §VI-C).
//
// TB packing assumes original vertex labels below 2^32, which holds for
// every instance in this repository and in the paper.
//
// ID is a uint32 because IDs are consecutive positions in the directed
// input sequence and ingestion refuses 2^32 or more directed edges
// (CheckEdgeCount at the sources and the kamsta header, a panic in
// gen.Finish behind them). It fills the padding after W, so the record is
// 32 bytes and never straddles a 64-byte cache line. Collectives still
// charge 40 bytes per edge (ModeledBytes), the padded record with a 64-bit
// ID, so the modeled clock does not depend on the in-memory layout.
type Edge struct {
	U, V VID
	TB   uint64
	W    Weight
	ID   uint32
}

// ErrTooManyEdges refuses an input of 2^32 or more directed edges, whose
// IDs would not fit Edge.ID.
var ErrTooManyEdges = errors.New("graph: 2^32 or more directed edges; edge IDs are 32-bit")

// CheckEdgeCount returns ErrTooManyEdges, wrapped with the count, unless
// the 2·m directed copies of m undirected edges fit below 2^32.
func CheckEdgeCount(m uint64) error {
	if m >= 1<<31 {
		return fmt.Errorf("%w: %d undirected edges", ErrTooManyEdges, m)
	}
	return nil
}

// ModeledBytes is the size every collective charges per Edge: the 40
// bytes of the padded record with a 64-bit ID. sizeof.Of reads it before
// unsafe.Sizeof.
func (*Edge) ModeledBytes() int { return 40 }

// MakeTB builds the symmetric tie-break key for original endpoints u and v.
func MakeTB(u, v VID) uint64 {
	if u > v {
		u, v = v, u
	}
	if u >= 1<<32 || v >= 1<<32 {
		panic(fmt.Sprintf("graph: vertex label %d exceeds 2^32; TB packing invalid", v))
	}
	return u<<32 | v
}

// NewEdge builds a working edge for original endpoints u, v with weight w.
// The ID is assigned later, when the global input sequence is fixed.
func NewEdge(u, v VID, w Weight) Edge {
	return Edge{U: u, V: v, W: w, TB: MakeTB(u, v)}
}

// OrigPair returns the original (canonical min, max) endpoints encoded in
// the tie-break key.
func (e Edge) OrigPair() (VID, VID) {
	return e.TB >> 32, e.TB & 0xFFFFFFFF
}

// WeightedEdge returns a human-readable rendering.
func (e Edge) String() string {
	return fmt.Sprintf("(%d,%d,w=%d)", e.U, e.V, e.W)
}

// LessLex orders edges lexicographically by (U, V, W, TB, ID) — the global
// sort order of the distributed edge sequence.
func LessLex(a, b Edge) bool { return lessLex(&a, &b) }

// lessLex is LessLex through pointers: the layout's searches compare in
// place instead of copying two records per step.
func lessLex(a, b *Edge) bool {
	if a.U != b.U {
		return a.U < b.U
	}
	if a.V != b.V {
		return a.V < b.V
	}
	if a.W != b.W {
		return a.W < b.W
	}
	if a.TB != b.TB {
		return a.TB < b.TB
	}
	return a.ID < b.ID
}

// LessWeight orders edges by the unique global weight order (W, TB, V, ID).
// Distinct logical edges never compare equal, which is what makes the MST
// unique and keeps the pseudo-trees of a Borůvka round free of cycles
// longer than two.
func LessWeight(a, b Edge) bool {
	if a.W != b.W {
		return a.W < b.W
	}
	if a.TB != b.TB {
		return a.TB < b.TB
	}
	if a.V != b.V {
		return a.V < b.V
	}
	return a.ID < b.ID
}

// KeyLex packs the current endpoints (U, V) into one uint64 radix key that
// is order-consistent with LessLex: KeyLex(a) < KeyLex(b) implies
// LessLex(a, b), and edges with equal keys (same U and V — parallel copies)
// are finished by the comparator on (W, TB, ID). Relies on the same
// invariant as the TB packing: every vertex label — original or component
// root, which is always itself an original label — is below 2^32, enforced
// at edge creation by MakeTB.
func KeyLex(e Edge) uint64 {
	return e.U<<32 | e.V
}

// KeyWeight packs (W, high half of TB) into one uint64 radix key that is
// order-consistent with LessWeight: the order continues inside TB's low
// half, so equal keys (same weight, same canonical min endpoint) are
// finished by the comparator.
func KeyWeight(e Edge) uint64 {
	return uint64(e.W)<<32 | e.TB>>32
}

// CmpWeight adapts LessWeight to the slices.SortFunc contract (a total
// order, so distinct edges never compare equal).
func CmpWeight(a, b Edge) int {
	switch {
	case LessWeight(a, b):
		return -1
	case LessWeight(b, a):
		return 1
	}
	return 0
}

// SameWeightClass reports whether two edges are copies of the same logical
// undirected edge (equal weight and original endpoints).
func SameWeightClass(a, b Edge) bool {
	return a.W == b.W && a.TB == b.TB
}

// maxEdge is a sentinel greater than every real edge.
var maxEdge = Edge{U: math.MaxUint64, V: math.MaxUint64, W: math.MaxUint32, TB: math.MaxUint64, ID: math.MaxUint32}

// MaxEdge returns the sentinel edge that compares greater than all real
// edges under LessLex.
func MaxEdge() Edge { return maxEdge }

// RandomWeight returns the deterministic experiment weight for the
// undirected pair {u, v} under seed (uniform in [1,255), §VII).
func RandomWeight(seed uint64, u, v VID) Weight {
	return rng.EdgeWeight(seed, u, v)
}

// VertexRange is a run of consecutive local edges sharing the source vertex
// V: edges[Lo:Hi].
type VertexRange struct {
	V      VID
	Lo, Hi int
}

// AppendLocalRanges appends to dst the per-source-vertex runs of a
// lexicographically sorted local edge slice. The ranges are in ascending
// source order, which makes their V fields a sorted rename table: position
// in the slice is the dense local index of the vertex. Pass a recycled
// zero-length dst to keep round setup allocation-free.
func AppendLocalRanges(dst []VertexRange, edges []Edge) []VertexRange {
	for lo := 0; lo < len(edges); {
		hi := lo + 1
		for hi < len(edges) && edges[hi].U == edges[lo].U {
			hi++
		}
		dst = append(dst, VertexRange{V: edges[lo].U, Lo: lo, Hi: hi})
		lo = hi
	}
	return dst
}

// IsSorted reports whether edges are in lexicographic order.
func IsSorted(edges []Edge) bool {
	for i := 1; i < len(edges); i++ {
		if LessLex(edges[i], edges[i-1]) {
			return false
		}
	}
	return true
}

package graph

import (
	"errors"
	"math"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"kamsta/internal/sizeof"
)

var sizeSink int

// TestEdgeSizes pins the record and what the cost model charges for it: 32
// bytes in memory, but 40 per Edge and 88 per layout entry in every
// collective, the sizes of the record with a 64-bit ID, and the
// per-collective size lookup allocates nothing.
func TestEdgeSizes(t *testing.T) {
	if got := unsafe.Sizeof(Edge{}); got != 32 {
		t.Errorf("unsafe.Sizeof(Edge{}) = %d, want 32", got)
	}
	if got := sizeof.Of[Edge](); got != 40 {
		t.Errorf("sizeof.Of[Edge] = %d, want the declared 40", got)
	}
	if got := sizeof.Of[entry](); got != 88 {
		t.Errorf("sizeof.Of[entry] = %d, want the declared 88", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { sizeSink += sizeof.Of[Edge]() }); allocs != 0 {
		t.Errorf("sizeof.Of[Edge] allocates %.1f times per call", allocs)
	}
}

// TestCheckEdgeCount: m undirected edges are accepted exactly while their
// 2·m directed copies have 32-bit IDs.
func TestCheckEdgeCount(t *testing.T) {
	for m, ok := range map[uint64]bool{0: true, 1<<31 - 1: true, 1 << 31: false, math.MaxUint64: false} {
		err := CheckEdgeCount(m)
		if ok != (err == nil) || !ok && !errors.Is(err, ErrTooManyEdges) {
			t.Errorf("CheckEdgeCount(%d) = %v, want accepted %v", m, err, ok)
		}
	}
}

func TestMakeTBSymmetric(t *testing.T) {
	f := func(u, v uint32) bool {
		return MakeTB(uint64(u), uint64(v)) == MakeTB(uint64(v), uint64(u))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMakeTBInjective(t *testing.T) {
	f := func(u1, v1, u2, v2 uint32) bool {
		a := MakeTB(uint64(u1), uint64(v1))
		b := MakeTB(uint64(u2), uint64(v2))
		samePair := (u1 == u2 && v1 == v2) || (u1 == v2 && v1 == u2)
		return (a == b) == samePair
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMakeTBPanicsOnHugeLabel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for label >= 2^32")
		}
	}()
	MakeTB(1<<32, 1)
}

func TestOrigPair(t *testing.T) {
	e := NewEdge(7, 3, 10)
	mn, mx := e.OrigPair()
	if mn != 3 || mx != 7 {
		t.Fatalf("OrigPair = (%d,%d) want (3,7)", mn, mx)
	}
}

func TestLessLexTotalOrder(t *testing.T) {
	edges := []Edge{
		{U: 1, V: 2, W: 5, TB: MakeTB(1, 2)},
		{U: 1, V: 2, W: 7, TB: MakeTB(1, 2)},
		{U: 1, V: 3, W: 1, TB: MakeTB(1, 3)},
		{U: 2, V: 1, W: 5, TB: MakeTB(1, 2)},
	}
	for i := range edges {
		for j := range edges {
			li, lj := LessLex(edges[i], edges[j]), LessLex(edges[j], edges[i])
			if i == j && (li || lj) {
				t.Fatalf("edge not equal to itself: %v", edges[i])
			}
			if i != j && li == lj {
				t.Fatalf("order not strict between %v and %v", edges[i], edges[j])
			}
		}
	}
	if !sort.SliceIsSorted(edges, func(i, j int) bool { return LessLex(edges[i], edges[j]) }) {
		t.Fatal("fixture should be lexicographically sorted")
	}
}

func TestLessWeightDistinguishesBackEdges(t *testing.T) {
	e := Edge{U: 1, V: 2, W: 5, TB: MakeTB(1, 2), ID: 0}
	b := Edge{U: 2, V: 1, W: 5, TB: MakeTB(1, 2), ID: 1}
	if !SameWeightClass(e, b) {
		t.Fatal("an edge and its back edge must share the weight class")
	}
	if !LessWeight(e, b) && !LessWeight(b, e) {
		t.Fatal("LessWeight must still be a strict order over directed copies")
	}
}

func TestLessWeightPrimaryKeyIsWeight(t *testing.T) {
	light := Edge{U: 9, V: 9, W: 1, TB: MakeTB(9, 9)}
	heavy := Edge{U: 1, V: 1, W: 2, TB: MakeTB(1, 1)}
	if !LessWeight(light, heavy) || LessWeight(heavy, light) {
		t.Fatal("weight must dominate the order")
	}
}

func TestMaxEdgeIsMaximal(t *testing.T) {
	f := func(u, v uint32, w Weight) bool {
		e := NewEdge(uint64(u)+1, uint64(v)+1, w)
		return LessLex(e, MaxEdge()) && !LessLex(MaxEdge(), e)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLocalRanges(t *testing.T) {
	edges := []Edge{
		{U: 1, V: 2}, {U: 1, V: 3}, {U: 2, V: 1}, {U: 5, V: 1}, {U: 5, V: 2}, {U: 5, V: 9},
	}
	r := AppendLocalRanges(nil, edges)
	want := []VertexRange{{V: 1, Lo: 0, Hi: 2}, {V: 2, Lo: 2, Hi: 3}, {V: 5, Lo: 3, Hi: 6}}
	if len(r) != len(want) {
		t.Fatalf("got %d ranges want %d", len(r), len(want))
	}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("range %d: got %+v want %+v", i, r[i], want[i])
		}
	}
}

func TestLocalRangesEmpty(t *testing.T) {
	if AppendLocalRanges(nil, nil) != nil {
		t.Fatal("empty input should give no ranges")
	}
}

func TestIsSorted(t *testing.T) {
	sorted := []Edge{{U: 1, V: 2}, {U: 1, V: 3}, {U: 2, V: 1}}
	if !IsSorted(sorted) {
		t.Fatal("sorted slice reported unsorted")
	}
	unsorted := []Edge{{U: 2, V: 1}, {U: 1, V: 3}}
	if IsSorted(unsorted) {
		t.Fatal("unsorted slice reported sorted")
	}
	if !IsSorted(nil) || !IsSorted(sorted[:1]) {
		t.Fatal("trivial slices are sorted")
	}
}

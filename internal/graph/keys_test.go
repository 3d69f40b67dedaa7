package graph

import (
	"testing"

	"kamsta/internal/rng"
)

// TestRadixKeysOrderConsistent pins the contract the distributed sorter
// relies on: KeyLex(a) < KeyLex(b) implies LessLex(a, b), and likewise for
// KeyWeight/LessWeight, over random edges within the 2^32 label invariant.
func TestRadixKeysOrderConsistent(t *testing.T) {
	r := rng.New(123)
	edges := make([]Edge, 4000)
	for i := range edges {
		u := VID(1 + r.Intn(1<<20))
		v := VID(1 + r.Intn(1<<20))
		e := NewEdge(u, v, Weight(1+r.Intn(254)))
		e.ID = uint32(r.Intn(1 << 16))
		if i%5 == 0 { // exercise relabeled endpoints too
			e.U = VID(1 + r.Intn(1<<10))
			e.V = VID(1 + r.Intn(1<<10))
		}
		edges[i] = e
	}
	for i := 0; i < len(edges)-1; i++ {
		a, b := edges[i], edges[i+1]
		if KeyLex(a) < KeyLex(b) && !LessLex(a, b) {
			t.Fatalf("KeyLex order-inconsistent: %+v vs %+v", a, b)
		}
		if KeyLex(b) < KeyLex(a) && !LessLex(b, a) {
			t.Fatalf("KeyLex order-inconsistent: %+v vs %+v", b, a)
		}
		if KeyWeight(a) < KeyWeight(b) && !LessWeight(a, b) {
			t.Fatalf("KeyWeight order-inconsistent: %+v vs %+v", a, b)
		}
		if KeyWeight(b) < KeyWeight(a) && !LessWeight(b, a) {
			t.Fatalf("KeyWeight order-inconsistent: %+v vs %+v", b, a)
		}
	}
}

// TestKeyLexMatchesEndpointOrder pins the exact packing: keys order first
// by U, then V.
func TestKeyLexMatchesEndpointOrder(t *testing.T) {
	a := Edge{U: 2, V: 1<<32 - 1}
	b := Edge{U: 3, V: 1}
	if KeyLex(a) >= KeyLex(b) {
		t.Fatal("U must dominate V in KeyLex")
	}
	c := Edge{U: 2, V: 5}
	if KeyLex(a) <= KeyLex(c) {
		t.Fatal("V must order within equal U")
	}
}

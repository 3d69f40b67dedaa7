package core

import (
	"testing"

	"kamsta/internal/comm"
	"kamsta/internal/dsort"
	"kamsta/internal/gen"
)

// TestVertexCountHalvesPerRound checks the §IV guarantee that the number
// of vertices shrinks by (at least roughly) a factor of two per distributed
// Borůvka round. Shared vertices are exempt from contraction, so the bound
// is n/2 + 2p.
func TestVertexCountHalvesPerRound(t *testing.T) {
	spec := gen.Spec{Family: gen.GNM, N: 2000, M: 8000, Seed: 3}
	p := 4
	w := comm.NewWorld(p)
	var counts []int
	w.Run(func(c *comm.Comm) {
		edges, layout := gen.Build(c, spec, dsort.Options{})
		r := Boruvka(c, edges, layout, Options{BaseCaseCap: 8, NoLocalPreprocessing: true})
		if c.Rank() == 0 {
			counts = r.VertexCounts
		}
	})
	if len(counts) < 2 {
		t.Fatalf("expected several rounds, got %v", counts)
	}
	for i := 1; i < len(counts); i++ {
		bound := counts[i-1]/2 + 2*p
		if counts[i] > bound {
			t.Fatalf("round %d: %d vertices, want <= %d (halving bound): %v",
				i, counts[i], bound, counts)
		}
	}
}

// TestFilterBaseCallsBounded checks the Theorem 1 structure empirically:
// the number of base-case Borůvka calls stays around log(m/n) rather than
// exploding with the recursion.
func TestFilterBaseCallsBounded(t *testing.T) {
	spec := gen.Spec{Family: gen.GNM, N: 300, M: 9600, Seed: 5} // m/n = 32
	w := comm.NewWorld(4)
	var calls int
	w.Run(func(c *comm.Comm) {
		edges, layout := gen.Build(c, spec, dsort.Options{})
		r := FilterBoruvka(c, edges, layout, Options{BaseCaseCap: 16, NoLocalPreprocessing: true})
		if c.Rank() == 0 {
			calls = r.BaseCalls
		}
	})
	// log2(m/n) = 5; allow generous slack for the stack/merge dynamics.
	if calls < 2 || calls > 16 {
		t.Fatalf("base calls = %d, expected a handful (Theorem 1 shape)", calls)
	}
}

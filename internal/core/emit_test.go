package core

import (
	"testing"

	"kamsta/internal/comm"
	"kamsta/internal/dsort"
	"kamsta/internal/gen"
	"kamsta/internal/graph"
)

// TestMSTEmissionOrderStable pins the shape property that let the dense
// refactor delete the explicit sort of emitted edge indices: a vertex's
// minimum edge lies inside its own source range and ranges are ascending,
// so emitting in index order IS emitting in ascending local edge order
// (lexicographic, since the local slice is sorted). Two identical
// contractions must also emit identical sequences.
func TestMSTEmissionOrderStable(t *testing.T) {
	spec := gen.Spec{Family: gen.GNM, N: 1 << 10, M: 1 << 13, Seed: 11}
	p := 4
	w := comm.NewWorld(p)
	runs := make([][][]graph.Edge, 2) // runs[r][rank] = emitted MST edges
	for r := range runs {
		perRank := make([][]graph.Edge, p)
		w.Run(func(c *comm.Comm) {
			edges, layout := gen.Build(c, spec, dsort.Options{})
			opt := Options{}.withDefaults()
			mins := minEdges(c, edges, layout)
			var mst []graph.Edge
			contractComponents(c, edges, layout, mins, opt, &mst)
			perRank[c.Rank()] = append([]graph.Edge(nil), mst...)
			// Emission must follow the local lexicographic edge order.
			for i := 1; i < len(mst); i++ {
				if graph.LessLex(mst[i], mst[i-1]) {
					t.Errorf("rank %d: emission out of lexicographic order at %d: %v after %v",
						c.Rank(), i, mst[i], mst[i-1])
					break
				}
			}
		})
		runs[r] = perRank
	}
	for rank := 0; rank < p; rank++ {
		a, b := runs[0][rank], runs[1][rank]
		if len(a) != len(b) {
			t.Fatalf("rank %d: emission count differs between runs: %d vs %d", rank, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("rank %d: emission %d differs between runs: %v vs %v", rank, i, a[i], b[i])
			}
		}
	}
}

package core

import (
	"testing"

	"kamsta/internal/alltoall"
	"kamsta/internal/gen"
)

// TestBoruvkaUnderAllCommunicationStrategies runs the full algorithm with
// every sparse all-to-all strategy, on power-of-two and odd world sizes: the
// instance is small enough that the sorter takes hypercube quicksort on 8 PEs
// and sample sort on the others.
func TestBoruvkaUnderAllCommunicationStrategies(t *testing.T) {
	spec := gen.Spec{Family: gen.RMAT, N: 256, M: 900, Seed: 3}
	combos := []struct {
		name string
		a2a  alltoall.Strategy
		p    int
	}{
		{"direct/sample/p5", alltoall.Direct, 5},
		{"grid/sample/p7", alltoall.Grid, 7},
		{"grid/hypercube/p8", alltoall.Grid, 8},
		{"auto/sample/p6", alltoall.Auto, 6},
	}
	var want uint64
	for i, cb := range combos {
		opt := Options{BaseCaseCap: 16, A2A: cb.a2a}
		res, shares, all := runDistributed(t, cb.p, 1, spec, opt, Boruvka)
		checkAgainstOracle(t, cb.name, res, shares, all)
		if i == 0 {
			want = res.TotalWeight
		} else if res.TotalWeight != want {
			t.Fatalf("%s: weight %d differs from %d", cb.name, res.TotalWeight, want)
		}
	}
}

// TestFilterBoruvkaWithGridEverything runs a partitioning Filter-Borůvka with
// its label exchanges over the grid; the sorter's Auto delivery takes the
// grid too once the contracted rounds' messages fall small.
func TestFilterBoruvkaWithGridEverything(t *testing.T) {
	spec := gen.Spec{Family: gen.GNM, N: 600, M: 6000, Seed: 9}
	opt := Options{NoLocalPreprocessing: true, BaseCaseCap: 16, A2A: alltoall.Grid}
	res, shares, all := runDistributed(t, 9, 2, spec, opt, FilterBoruvka)
	checkAgainstOracle(t, "filter/grid-everything", res, shares, all)
	if res.BaseCalls < 2 {
		t.Fatalf("%d base calls: the recursion did not partition", res.BaseCalls)
	}
}

package core

import (
	"testing"

	"kamsta/internal/alltoall"
	"kamsta/internal/dsort"
	"kamsta/internal/gen"
)

// TestBoruvkaUnderAllCommunicationStrategies runs the full algorithm with
// every sparse all-to-all strategy and every sorter, on power-of-two and
// odd world sizes (hypercube quicksort requires a power of two; dsort falls
// back internally).
func TestBoruvkaUnderAllCommunicationStrategies(t *testing.T) {
	spec := gen.Spec{Family: gen.RMAT, N: 256, M: 900, Seed: 3}
	type combo struct {
		name string
		a2a  alltoall.Strategy
		alg  dsort.Algorithm
		p    int
	}
	combos := []combo{
		{"direct/sample/p5", alltoall.Direct, dsort.SampleSort, 5},
		{"grid/sample/p7", alltoall.Grid, dsort.SampleSort, 7},
		{"grid/hypercube/p8", alltoall.Grid, dsort.HypercubeQS, 8},
		{"auto/auto/p6", alltoall.Auto, dsort.Auto, 6},
	}
	var want uint64
	for i, cb := range combos {
		opt := Options{
			LocalPreprocessing: true, DedupParallel: true,
			BaseCaseCap: 16, A2A: cb.a2a,
		}
		opt.Sort.Alg = cb.alg
		res, shares, all := runDistributed(t, cb.p, 1, spec, opt, Boruvka)
		checkAgainstOracle(t, cb.name, res, shares, all)
		if i == 0 {
			want = res.TotalWeight
		} else if res.TotalWeight != want {
			t.Fatalf("%s: weight %d differs from %d", cb.name, res.TotalWeight, want)
		}
	}
}

// TestFilterBoruvkaWithGridEverything runs Filter-Borůvka entirely over
// indirect communication (sorting data delivery included).
func TestFilterBoruvkaWithGridEverything(t *testing.T) {
	spec := gen.Spec{Family: gen.GNM, N: 300, M: 2400, Seed: 9}
	opt := Options{
		DedupParallel: true, BaseCaseCap: 16,
		A2A:    alltoall.Grid,
		Filter: FilterOptions{MinEdgesPerPE: 64},
	}
	opt.Sort.A2A = alltoall.Grid
	res, shares, all := runDistributed(t, 9, 2, spec, opt, FilterBoruvka)
	checkAgainstOracle(t, "filter/grid-everything", res, shares, all)
}

package core

import (
	"testing"

	"kamsta/internal/comm"
	"kamsta/internal/dsort"
	"kamsta/internal/gen"
)

// TestSymmetricInvariantMaintained runs Filter-Borůvka with the expensive
// global symmetry verification enabled: at every recursion segment entry,
// each directed edge must have its reverse copy somewhere in the world.
// This is the structural invariant (§II-B) that MINEDGES and the label
// exchange rely on; a partition or dedup bug breaks it silently otherwise
// (historically: partitioning with the endpoint-tie-breaking order split
// the two copies of the pivot's weight class onto different sides).
func TestSymmetricInvariantMaintained(t *testing.T) {
	debugChecks = true
	defer func() { debugChecks = false }()
	for _, spec := range filterSpecs() {
		for _, p := range []int{2, 7} {
			var res Result
			w := comm.NewWorld(p)
			w.Run(func(c *comm.Comm) {
				edges, layout := gen.Build(c, spec, dsort.Options{})
				opt := Options{BaseCaseCap: 16}
				if r := FilterBoruvka(c, edges, layout, opt); c.Rank() == 0 {
					res = r
				}
			})
			checkRecursed(t, spec, p, res)
		}
	}
}

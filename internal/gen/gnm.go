package gen

import (
	"kamsta/internal/comm"
	"kamsta/internal/graph"
	"kamsta/internal/rng"
)

// genGNM emits an Erdős–Renyi G(n,m) graph: M undirected edges sampled
// uniformly with replacement (collisions are removed in Finish, so the
// realized edge count is marginally below M for dense settings, as with any
// sampling-based G(n,m) generator). Edge e of the global edge index space
// is a pure function of (seed, e), so the instance is independent of the
// number of PEs generating it.
func genGNM(c *comm.Comm, spec Spec, dst []graph.Edge) []graph.Edge {
	n := spec.N
	if n < 2 {
		return dst[:0]
	}
	lo, hi := ownedRange(c.Rank(), c.P(), spec.M)
	edges := presized(dst, int(2*(hi-lo)))
	for e := lo; e < hi; e++ {
		r := rng.Seeded(rng.Hash64(spec.Seed, 0x6E6D, e))
		u := graph.VID(r.Uint64n(n) + 1)
		v := graph.VID(r.Uint64n(n) + 1)
		if u == v {
			continue
		}
		edges = emitBoth(edges, spec.Seed, u, v)
	}
	c.ChargeCompute(int(hi - lo))
	return edges
}

package gen

import (
	"kamsta/internal/comm"
	"kamsta/internal/graph"
	"kamsta/internal/rng"
)

// Graph500 RMAT quadrant probabilities (a, b, c, d).
const (
	rmatA = 0.57
	rmatB = 0.19
	rmatC = 0.19
	// rmatD = 0.05 (implicit remainder)
)

// genRMAT emits an RMAT graph with the Graph500 default probabilities: each
// edge recursively descends the adjacency matrix, picking a quadrant per
// level. Vertex labels are scrambled with a deterministic permutation
// (cycle-walking Feistel), as Graph500 prescribes, which destroys locality —
// giving the family its "almost exclusively cut-edges" character (§VII).
// Spec.RMATKeepLocality skips the scrambling; the web-graph stand-ins use
// this to retain the locality real crawl orderings have.
func genRMAT(c *comm.Comm, spec Spec, dst []graph.Edge) []graph.Edge {
	n := spec.N
	if n < 2 {
		return dst[:0]
	}
	levels := 0
	for v := uint64(1); v < n; v <<= 1 {
		levels++
	}
	lo, hi := ownedRange(c.Rank(), c.P(), spec.M)
	edges := presized(dst, int(2*(hi-lo)))
	for e := lo; e < hi; e++ {
		r := rng.Seeded(rng.Hash64(spec.Seed, 0x52A7, e))
		var u, v uint64
		for l := 0; l < levels; l++ {
			f := r.Float64()
			switch {
			case f < rmatA:
				// top-left: no bits set
			case f < rmatA+rmatB:
				v |= 1 << l
			case f < rmatA+rmatB+rmatC:
				u |= 1 << l
			default:
				u |= 1 << l
				v |= 1 << l
			}
		}
		if u >= n || v >= n || u == v {
			continue // rejected sample; Finish tolerates the shortfall
		}
		if !spec.RMATKeepLocality {
			u = scramble(u, spec.Seed, levels, n)
			v = scramble(v, spec.Seed, levels, n)
			if u == v {
				continue
			}
		}
		edges = emitBoth(edges, spec.Seed, graph.VID(u+1), graph.VID(v+1))
	}
	c.ChargeCompute(int(hi-lo) * levels)
	return edges
}

// scramble applies a deterministic pseudo-random permutation of [0, n): a
// balanced 4-round Feistel network over the smallest even-bit domain
// covering n, with cycle-walking for out-of-range values. Being a
// bijection, it relabels vertices without collisions — the Graph500 label
// scrambling that destroys the locality of the raw RMAT construction.
func scramble(x, seed uint64, bits int, n uint64) uint64 {
	ebits := bits
	if ebits%2 == 1 {
		ebits++
	}
	if ebits < 2 {
		return x
	}
	half := ebits / 2
	mask := (uint64(1) << half) - 1
	for {
		l := x & mask
		r := x >> half
		for round := uint64(0); round < 4; round++ {
			l, r = r, l^(rng.Hash64(seed, 0xFE15, round, r)&mask)
		}
		x = (r << half) | l
		if x < n {
			return x
		}
	}
}

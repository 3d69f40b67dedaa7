package gen

import (
	"math"

	"kamsta/internal/comm"
	"kamsta/internal/graph"
	"kamsta/internal/rng"
)

// The RHG family's two shape parameters: the power-law exponent γ the
// paper evaluates (§VII) and the fraction of edges drawn from the locality
// kernel.
const (
	rhgGamma       = 3.0
	rhgLocalityMix = 0.5
)

// genRHG emits the hyperbolic-like family: a Chung–Lu power-law graph with
// a geometric locality kernel. Vertex u carries weight w_u ∝ u^(−1/(γ−1))
// (γ = rhgGamma), so low labels are hubs. Each vertex emits w_u/2
// undirected edges; an rhgLocalityMix fraction picks the partner at a
// log-uniform label distance (locality, mimicking the angular adjacency of
// true RHGs), the rest pick a weight-biased global partner (power-law
// degrees, mimicking the radial hubs).
//
// This substitutes for KaGen's true hyperbolic generator: it reproduces the
// two properties the evaluation depends on — skewed power-law degrees and
// locality "somewhere in between" the grid and GNM families (§VII) — without
// the hyperbolic metric machinery. Documented in DESIGN.md.
func genRHG(c *comm.Comm, spec Spec, dst []graph.Edge) []graph.Edge {
	n := spec.N
	if n < 2 {
		return dst[:0]
	}
	const alpha = 1 / (rhgGamma - 1) // 0.5
	// Normalize weights so Σ w_u ≈ 2M: Σ u^-α ≈ (n^(1-α) - 1)/(1-α) + 1.
	s := (math.Pow(float64(n), 1-alpha)-1)/(1-alpha) + 1
	scale := float64(2*spec.M) / s

	lo, hi := ownedRange(c.Rank(), c.P(), n)
	// Presized: Σ w_u over the owned labels lo+1..hi directed edges, plus an
	// eighth of slack.
	share := scale * (math.Pow(float64(hi), 1-alpha) - math.Pow(float64(lo), 1-alpha)) / (1 - alpha)
	edges := presized(dst, int(share*1.125)+64)
	work := 0
	for u0 := lo; u0 < hi; u0++ {
		u := graph.VID(u0 + 1)
		r := rng.Seeded(rng.Hash64(spec.Seed, 0x2467, uint64(u)))
		w := scale * math.Pow(float64(u), -alpha)
		k := int(w / 2)
		if r.Float64() < w/2-float64(k) {
			k++ // probabilistic rounding keeps E[degree] on target
		}
		for i := 0; i < k; i++ {
			var v graph.VID
			if r.Float64() < rhgLocalityMix {
				// Log-uniform label distance in [1, n/2].
				maxDist := float64(n) / 2
				dist := uint64(math.Exp(r.Float64() * math.Log(maxDist)))
				if dist < 1 {
					dist = 1
				}
				if r.Next()&1 == 0 {
					v = graph.VID((u0+dist)%n + 1)
				} else {
					v = graph.VID((u0+n-dist%n)%n + 1)
				}
			} else {
				// Weight-biased global partner: P(v ≤ x) = (x/n)^(1-α).
				x := math.Pow(r.Float64(), 1/(1-alpha)) * float64(n)
				v = graph.VID(uint64(x) + 1)
				if uint64(v) > n {
					v = graph.VID(n)
				}
			}
			if v == u {
				continue
			}
			edges = emitBoth(edges, spec.Seed, u, v)
			work++
		}
	}
	c.ChargeCompute(work * 4)
	return edges
}

package gen

import (
	"math"

	"kamsta/internal/comm"
	"kamsta/internal/graph"
	"kamsta/internal/rng"
)

// genRGG emits a random geometric graph in the unit square (dims=2) or cube
// (dims=3): N points placed uniformly at random, two points adjacent iff
// their Euclidean distance is at most a radius derived from the target
// average degree 2M/N.
//
// Generation is communication-free exactly as in KaGen: the domain is
// divided into grid cells of side ≥ radius, a point's position is a pure
// hash of (seed, cell, index-within-cell), and every PE regenerates the
// points of the cells neighboring its own. Vertex labels are assigned in
// cell order, which is what gives this family its high locality under the
// contiguous 1D edge partition.
func genRGG(c *comm.Comm, spec Spec, dims int) []graph.Edge {
	n := spec.N
	if n == 0 {
		return nil
	}
	deg := float64(2*spec.M) / float64(n)
	var radius float64
	if dims == 2 {
		radius = math.Sqrt(deg / (math.Pi * float64(n)))
	} else {
		radius = math.Cbrt(3 * deg / (4 * math.Pi * float64(n)))
	}
	if radius <= 0 || math.IsNaN(radius) {
		radius = 1
	}
	if radius > 1 {
		radius = 1
	}
	g := newRGGGeom(n, radius, dims)

	loCell, hiCell := ownedRange(c.Rank(), c.P(), g.totalCells)
	// Presized: the 2·M directed edges spread over the cells like the point
	// pairs, plus an eighth of slack.
	share := float64(2*spec.M) * float64(g.pairsBefore(hiCell)-g.pairsBefore(loCell)) / float64(g.pairsBefore(g.totalCells))
	edges := make([]graph.Edge, 0, uint64(share*1.125))
	r2 := radius * radius
	work := 0
	for cell := loCell; cell < hiCell; cell++ {
		own := g.cellPoints(spec.Seed, cell)
		g.forNeighborCells(cell, func(nb uint64) {
			var other []rggPoint
			if nb == cell {
				other = own
			} else {
				other = g.cellPoints(spec.Seed, nb)
			}
			for _, a := range own {
				for _, b := range other {
					if a.id == b.id {
						continue
					}
					d := 0.0
					for k := 0; k < dims; k++ {
						dx := a.pos[k] - b.pos[k]
						d += dx * dx
					}
					work++
					if d <= r2 {
						// One direction per (owner-of-a, b) pair; the other
						// direction is emitted by b's cell owner.
						edges = append(edges, graph.NewEdge(a.id, b.id, graph.RandomWeight(spec.Seed, a.id, b.id)))
					}
				}
			}
		})
	}
	c.ChargeCompute(work)
	return edges
}

// rggPoint is a generated point with its global vertex label.
type rggPoint struct {
	id  graph.VID
	pos [3]float64
}

// rggGeom captures the cell grid of the communication-free generator.
type rggGeom struct {
	n          uint64
	dims       int
	cellsPer   uint64 // cells per dimension
	totalCells uint64
	side       float64 // cell side length
	base       uint64  // points per cell (cells < rem get one more)
	rem        uint64
}

func newRGGGeom(n uint64, radius float64, dims int) rggGeom {
	cp := uint64(1 / radius)
	if cp < 1 {
		cp = 1
	}
	// Keep at least ~2 expected points per cell so cell overhead stays sane.
	for cp > 1 {
		total := cp
		for k := 1; k < dims; k++ {
			total *= cp
		}
		if total <= n/2+1 {
			break
		}
		cp--
	}
	total := cp
	for k := 1; k < dims; k++ {
		total *= cp
	}
	return rggGeom{
		n:          n,
		dims:       dims,
		cellsPer:   cp,
		totalCells: total,
		side:       1 / float64(cp),
		base:       n / total,
		rem:        n % total,
	}
}

// cellCount returns the number of points in cell k (deterministic).
func (g rggGeom) cellCount(k uint64) uint64 {
	if k < g.rem {
		return g.base + 1
	}
	return g.base
}

// cellOffset returns the number of points in cells before k, so labels are
// contiguous in cell order.
func (g rggGeom) cellOffset(k uint64) uint64 {
	extra := k
	if extra > g.rem {
		extra = g.rem
	}
	return k*g.base + extra
}

// pairsBefore returns Σ count² over the cells before k: edges ∝ point pairs.
func (g rggGeom) pairsBefore(k uint64) uint64 {
	dense := min(k, g.rem)
	return dense*(g.base+1)*(g.base+1) + (k-dense)*g.base*g.base
}

// cellPoints regenerates the points of cell k purely from the seed.
func (g rggGeom) cellPoints(seed, k uint64) []rggPoint {
	cnt := g.cellCount(k)
	pts := make([]rggPoint, cnt)
	// Cell coordinates.
	var cc [3]uint64
	rest := k
	for d := 0; d < g.dims; d++ {
		cc[d] = rest % g.cellsPer
		rest /= g.cellsPer
	}
	off := g.cellOffset(k)
	for j := uint64(0); j < cnt; j++ {
		p := rggPoint{id: graph.VID(off + j + 1)}
		for d := 0; d < g.dims; d++ {
			h := rng.Hash64(seed, 0x4667, k, j, uint64(d))
			frac := float64(h>>11) / (1 << 53)
			p.pos[d] = (float64(cc[d]) + frac) * g.side
		}
		pts[j] = p
	}
	return pts
}

// forNeighborCells invokes f for cell k and all existing cells adjacent to
// it (8 in 2D, 26 in 3D).
func (g rggGeom) forNeighborCells(k uint64, f func(uint64)) {
	var cc [3]int64
	rest := k
	for d := 0; d < g.dims; d++ {
		cc[d] = int64(rest % g.cellsPer)
		rest /= g.cellsPer
	}
	var visit func(d int, acc uint64, mult uint64)
	deltas := []int64{-1, 0, 1}
	visit = func(d int, acc uint64, mult uint64) {
		if d == g.dims {
			f(acc)
			return
		}
		for _, dd := range deltas {
			nc := cc[d] + dd
			if nc < 0 || nc >= int64(g.cellsPer) {
				continue
			}
			visit(d+1, acc+uint64(nc)*mult, mult*g.cellsPer)
		}
	}
	visit(0, 0, 1)
}

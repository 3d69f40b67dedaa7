package gen

import (
	"math"
	"slices"

	"kamsta/internal/arena"
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
// hash of (seed, cell, index-within-cell), and every PE decodes the points
// of its own cells plus a halo of the cells around them. Vertex labels are
// assigned in cell order, which is what gives this family its high locality
// under the contiguous 1D edge partition.
//
// Each cell is decoded once. The neighbours of cell k lie within
// 1 + cp (+ cp² in 3D) cell indices of k, so the owned cell range widened by
// that much on each side, clipped to the grid, holds every point an owned
// point can reach, in one flat slice indexed by label. Edges come out in
// (U, V) order: owned points ascending, and for each the rows of adjacent
// cells ascending — a row of up to three adjacent cells is one run of
// consecutive labels. Each PE's output is therefore strictly KeyLex-ascending
// and, as owned ranges ascend with rank, the world's is globally sorted:
// Build verifies that instead of sorting.
func genRGG(c *comm.Comm, spec Spec, dims int, dst []graph.Edge) []graph.Edge {
	n := spec.N
	if n == 0 {
		return dst[:0]
	}
	radius := rggRadius(spec, dims)
	g := newRGGGeom(n, radius, dims)

	loCell, hiCell := ownedRange(c.Rank(), c.P(), g.totalCells)
	// Presized: the 2·M directed edges spread over the cells like the point
	// pairs, plus an eighth of slack.
	share := float64(2*spec.M) * float64(g.pairsBefore(hiCell)-g.pairsBefore(loCell)) / float64(g.pairsBefore(g.totalCells))
	edges := presized(dst, int(share*1.125))
	reach := 1 + g.cellsPer
	if dims == 3 {
		reach += g.cellsPer * g.cellsPer
	}
	haloLo, haloHi := loCell-min(loCell, reach), min(hiCell+reach, g.totalCells)
	pts := g.points(arena.GrabAppend[[3]float64](c.Scratch(), kRGGPoints), spec.Seed, haloLo, haloHi)
	arena.Keep(c.Scratch(), kRGGPoints, pts)
	first := g.cellOffset(haloLo) // pts[i] is the point labelled first+i+1
	r2 := radius * radius
	work := 0
	var rows [9][2]uint64
	for cell := loCell; cell < hiCell; cell++ {
		// The neighbour rows as ranges of pts, and the points they hold.
		nrows := g.neighborRows(cell, &rows)
		span := 0
		for k, r := range rows[:nrows] {
			rows[k] = [2]uint64{g.cellOffset(r[0]) - first, g.cellOffset(r[1]) - first}
			span += int(rows[k][1] - rows[k][0])
		}
		lo, hi := g.cellOffset(cell)-first, g.cellOffset(cell+1)-first
		for i := lo; i < hi; i++ {
			a := &pts[i]
			u := graph.VID(first + i + 1)
			for _, r := range rows[:nrows] {
				for j := r[0]; j < r[1]; j++ {
					if j == i {
						continue
					}
					b := &pts[j]
					dx, dy, dz := a[0]-b[0], a[1]-b[1], a[2]-b[2]
					d := dx * dx
					d += dy * dy
					d += dz * dz
					if d <= r2 {
						// One direction per (owner-of-a, b) pair; the other
						// direction is emitted by b's cell owner.
						v := graph.VID(first + j + 1)
						edges = append(edges, graph.NewEdge(u, v, graph.RandomWeight(spec.Seed, u, v)))
					}
				}
			}
		}
		work += int(hi-lo) * (span - 1)
	}
	c.ChargeCompute(work)
	return edges
}

// rggRadius is the connection radius giving the target average degree 2M/N:
// the disk (ball) of that radius holds 2M/N points in expectation.
func rggRadius(spec Spec, dims int) float64 {
	deg := float64(2*spec.M) / float64(spec.N)
	var radius float64
	if dims == 2 {
		radius = math.Sqrt(deg / (math.Pi * float64(spec.N)))
	} else {
		radius = math.Cbrt(3 * deg / (4 * math.Pi * float64(spec.N)))
	}
	if radius <= 0 || math.IsNaN(radius) {
		radius = 1
	}
	return min(radius, 1)
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

// coords returns the grid coordinates of cell k, lowest dimension first;
// the unused third one of a 2D grid is 0.
func (g rggGeom) coords(k uint64) [3]uint64 {
	var cc [3]uint64
	for d := 0; d < g.dims; d++ {
		cc[d] = k % g.cellsPer
		k /= g.cellsPer
	}
	return cc
}

// kRGGPoints is the arena slot of genRGG's decoded points, which live only
// while it generates.
var kRGGPoints = arena.NewKey()

// points decodes the points of cells [lo, hi) into one slice in label
// order, the point labelled cellOffset(lo)+i+1 at index i (the coordinates
// past dims are 0), in dst's backing when it has room. A position is a pure
// hash of (seed, cell, index within the cell).
func (g rggGeom) points(dst [][3]float64, seed, lo, hi uint64) [][3]float64 {
	n := int(g.cellOffset(hi) - g.cellOffset(lo))
	pts := slices.Grow(dst[:0], n)[:n]
	i := 0
	for k := lo; k < hi; k++ {
		cc := g.coords(k)
		for j := uint64(0); j < g.cellCount(k); j++ {
			pts[i] = [3]float64{}
			for d := 0; d < g.dims; d++ {
				h := rng.Hash64(seed, 0x4667, k, j, uint64(d))
				frac := float64(h>>11) / (1 << 53)
				pts[i][d] = (float64(cc[d]) + frac) * g.side
			}
			i++
		}
	}
	return pts
}

// neighborRows writes cell k and its existing neighbours (8 in 2D, 26 in 3D)
// into rows as half-open cell ranges, one per row along the lowest
// dimension, in ascending cell order, and returns how many it wrote.
func (g rggGeom) neighborRows(k uint64, rows *[9][2]uint64) int {
	cp := g.cellsPer
	cc := g.coords(k)
	near := func(x uint64) (uint64, uint64) { return x - min(x, 1), min(x+2, cp) }
	xlo, xhi := near(cc[0])
	ylo, yhi := near(cc[1])
	zlo, zhi := uint64(0), uint64(1)
	if g.dims == 3 {
		zlo, zhi = near(cc[2])
	}
	n := 0
	for z := zlo; z < zhi; z++ {
		for y := ylo; y < yhi; y++ {
			row := (z*cp + y) * cp
			rows[n] = [2]uint64{row + xlo, row + xhi}
			n++
		}
	}
	return n
}

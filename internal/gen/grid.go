package gen

import (
	"kamsta/internal/comm"
	"kamsta/internal/graph"
	"kamsta/internal/rng"
)

// gridShape rounds N to an R×C mesh with R ≈ C ≈ √N.
func gridShape(n uint64) (rows, cols uint64) {
	if n == 0 {
		return 0, 0
	}
	r := uint64(1)
	for (r+1)*(r+1) <= n {
		r++
	}
	c := (n + r - 1) / r
	return r, c
}

// genGrid2D emits a 2D mesh with the 4-neighborhood. Vertex (r,c) has label
// r*cols+c+1, so striping rows over PEs yields the high-locality numbering
// the paper's 2D-GRID family has. With road=true it becomes the road-network
// stand-in: about 10% of mesh edges are deleted and sparse diagonals are
// added, giving the low, near-constant degree and long paths typical of
// road graphs.
//
// Each PE emits the out-edges of its owned vertices, ascending, and each
// vertex's neighbours in ascending label order, so the world's output is
// globally sorted (Build verifies it). Whether an edge exists and its weight
// are functions of its (min, max) endpoints, so both directions agree.
func genGrid2D(c *comm.Comm, spec Spec, road bool, dst []graph.Edge) []graph.Edge {
	rows, cols := gridShape(spec.N)
	if rows == 0 {
		return dst[:0]
	}
	loRow, hiRow := ownedRange(c.Rank(), c.P(), rows)
	// Presized: the mesh's exact out-degree sum over the owned rows (the
	// road variant deletes more than its diagonals add).
	vertical := 2 * (hiRow - loRow)
	if loRow == 0 && hiRow > 0 {
		vertical-- // the top row has no up edges
	}
	if hiRow == rows && hiRow > loRow {
		vertical-- // the bottom row has no down edges
	}
	edges := presized(dst, int(2*(hiRow-loRow)*(cols-1)+vertical*cols))
	for r := loRow; r < hiRow; r++ {
		for col := uint64(0); col < cols; col++ {
			u := graph.VID(r*cols + col + 1)
			// up-left (road), up, left, right, down, down-right (road)
			nbs := [6]graph.VID{u - cols - 1, u - cols, u - 1, u + 1, u + cols, u + cols + 1}
			have := [6]bool{road && r > 0 && col > 0, r > 0, col > 0, col+1 < cols, r+1 < rows, road && r+1 < rows && col+1 < cols}
			for k, v := range nbs {
				lo, hi := min(u, v), max(u, v)
				diagonal := k == 0 || k == 5
				switch {
				case !have[k]:
				case diagonal && rng.Hash64(spec.Seed, 0xD1A6, uint64(lo), uint64(hi))%100 >= 5:
				case !diagonal && road && roadDrop(spec.Seed, lo, hi):
				default:
					edges = append(edges, graph.NewEdge(u, v, graph.RandomWeight(spec.Seed, lo, hi)))
				}
			}
		}
	}
	c.ChargeCompute(int(hiRow-loRow) * int(cols) * 3)
	return edges
}

// roadDrop deterministically deletes about 10% of the mesh edges for the
// road-network stand-in.
func roadDrop(seed uint64, u, v graph.VID) bool {
	return rng.Hash64(seed, 0x0A0D, uint64(u), uint64(v))%100 < 10
}

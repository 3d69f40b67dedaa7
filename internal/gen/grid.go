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
func genGrid2D(c *comm.Comm, spec Spec, road bool) []graph.Edge {
	rows, cols := gridShape(spec.N)
	if rows == 0 {
		return nil
	}
	loRow, hiRow := ownedRange(c.Rank(), c.P(), rows)
	id := func(r, col uint64) graph.VID { return graph.VID(r*cols + col + 1) }
	// Presized: the mesh's exact directed count for the owned rows (the
	// road variant deletes more than its diagonals add).
	down := hiRow - loRow
	if hiRow == rows && down > 0 {
		down--
	}
	edges := make([]graph.Edge, 0, 2*((hiRow-loRow)*(cols-1)+down*cols))
	for r := loRow; r < hiRow; r++ {
		for col := uint64(0); col < cols; col++ {
			u := id(r, col)
			if col+1 < cols {
				v := id(r, col+1)
				if !road || !roadDrop(spec.Seed, u, v) {
					edges = emitBoth(edges, spec.Seed, u, v)
				}
			}
			if r+1 < rows {
				v := id(r+1, col)
				if !road || !roadDrop(spec.Seed, u, v) {
					edges = emitBoth(edges, spec.Seed, u, v)
				}
			}
			if road && col+1 < cols && r+1 < rows {
				v := id(r+1, col+1)
				if rng.Hash64(spec.Seed, 0xD1A6, uint64(u), uint64(v))%100 < 5 {
					edges = emitBoth(edges, spec.Seed, u, v)
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

package gen

import (
	"math/bits"

	"kamsta/internal/arena"
	"kamsta/internal/comm"
	"kamsta/internal/graph"
	"kamsta/internal/rng"
)

// Arena slots of genGNM's scratch: the cell counts (uint32) and one block's
// unsorted stream (packed keys). Both are dead once genGNM returns.
var kGNMCounts, kGNMKeys = arena.NewKey(), arena.NewKey()

// Hash domains of GNM's binomial splits and cell draws.
const (
	gnmSplitTag = 0x6E6D73
	gnmCellTag  = 0x6E6D63
)

// genGNM emits an Erdős–Renyi G(n,m) graph: M ordered pairs drawn
// uniformly from n × n, self-loops dropped, both directions of each pair
// emitted (the duplicates sampling with replacement makes are removed in
// Finish, so the realized edge count is marginally below M when dense).
//
// The generator is communication-free and KaGen-shaped (Funke et al., IPDPS
// 2018). A grid of B × B vertex blocks fixed by n alone (gnmGrid) cuts
// n × n into cells; the M draws are dealt over the cells by recursive
// binomial splitting, rows first and then the columns of each row (split),
// and cell (I, J)'s draws, u in block I and v in block J, come from a
// stream seeded by (seed, I, J). Every count and draw is a pure function of
// the seed, so the instance does not depend on p.
//
// PE r owns the source blocks ownedRange(r, p, B). For each owned block I
// and J ascending, it draws cell (I, J) and emits (u, v), and draws the
// twin cell (J, I) and emits (v, u): every cell is drawn at most twice and
// never sent. A block's stream of packed keys is cache-sized: a counting
// sort by U and one insertion pass over V, which only draws of the same
// target block can leave inverted, order it (placeBlock) before the edges
// are written out. The chunk is then in global (U, V) order, and Build
// verifies that instead of sorting.
func genGNM(c *comm.Comm, spec Spec, dst []graph.Edge) []graph.Edge {
	if spec.N < 2 {
		return dst[:0]
	}
	g := newGNMGrid(spec.N)
	from, to := ownedRange(c.Rank(), c.P(), g.b)
	if from == to {
		return dst[:0]
	}
	if spec.M >= 1<<32 {
		panic("gen: GNM with m ≥ 2^32 draws: edge IDs are 32-bit")
	}
	seed, b, owned := spec.Seed, g.b, to-from

	// The counts: rows[J] is row J's draws; cols[J·owned + I−from] is cell
	// (J, I)'s, for the owned columns I; cells is one owned row's cells; byU
	// counts one block's sources (a block has ⌊n/B⌋ or ⌊n/B⌋+1 vertices).
	a := c.Scratch()
	maxBlock := g.start(1) + 1
	counts := arena.Grab[uint32](a, kGNMCounts, int(b*(owned+2)+maxBlock+1))
	rows, cols := counts[:b], counts[b:b*(owned+1)]
	cells, byU := counts[b*(owned+1):b*(owned+2)], counts[b*(owned+2):]
	variates := g.split(seed, 0, 0, b, spec.M, 0, b, rows)
	for j := uint64(0); j < b; j++ {
		variates += g.split(seed, j+1, 0, b, uint64(rows[j]), from, to, cols[j*owned:(j+1)*owned])
	}
	total, longest := 0, 0
	for i := from; i < to; i++ {
		l := int(rows[i])
		for j := uint64(0); j < b; j++ {
			l += int(cols[j*owned+i-from])
		}
		total += l
		longest = max(longest, l)
	}
	edges := presized(dst, total) // exact but for the self-loop draws
	keys := arena.Grab[uint64](a, kGNMKeys, 2*longest)

	draws := 0
	for i := from; i < to; i++ {
		variates += g.split(seed, i+1, 0, b, uint64(rows[i]), 0, b, cells)
		si, ni := g.start(i), g.start(i+1)-g.start(i)
		// The block's stream, grouped by target block: u−si above 32 bits,
		// the label of v below; byU[u−si+1] counts its U.
		stream := keys[:0:longest]
		clear(byU[:ni+1])
		for j := uint64(0); j < b; j++ {
			sj, nj := g.start(j), g.start(j+1)-g.start(j)
			if k := cells[j]; k > 0 {
				draws += int(k)
				r := gnmCell(seed, i, j)
				for ; k > 0; k-- {
					u, v := r.Uint64n(ni), sj+r.Uint64n(nj)
					if si+u == v {
						continue
					}
					stream = append(stream, u<<32|(v+1))
					byU[u+1]++
					if i == j { // the diagonal cell is its own twin
						stream = append(stream, (v-si)<<32|(si+u+1))
						byU[v-si+1]++
					}
				}
			}
			if k := cols[j*owned+i-from]; k > 0 && i != j {
				draws += int(k)
				r := gnmCell(seed, j, i)
				for ; k > 0; k-- {
					v, u := sj+r.Uint64n(nj), r.Uint64n(ni)
					stream = append(stream, u<<32|(v+1))
					byU[u+1]++
				}
			}
		}
		edges = placeBlock(edges, stream, keys[longest:][:len(stream)], byU[:ni+1], si, seed)
	}
	// The draws at both owners, the variates of the splits, and one unit per
	// edge for each linear pass: the counting sort's scatter and the
	// insertion pass.
	c.ChargeCompute(draws + variates + 2*len(edges))
	return edges
}

// placeBlock appends one source block's edges to edges in (U, V) order.
// stream holds its keys, u−si above 32 bits and v below, grouped by target
// block; byU[x+1] counts those with u−si = x. A counting sort by U places
// the keys in sorted; within one U the target blocks ascend, so one
// insertion pass finishes V, and the edges are written in one sequential
// pass.
func placeBlock(edges []graph.Edge, stream, sorted []uint64, byU []uint32, si, seed uint64) []graph.Edge {
	for x := 1; x < len(byU); x++ {
		byU[x] += byU[x-1]
	}
	for _, key := range stream {
		sorted[byU[key>>32]] = key
		byU[key>>32]++
	}
	for x := 1; x < len(sorted); x++ {
		key := sorted[x]
		y := x
		for ; y > 0 && sorted[y-1] > key; y-- {
			sorted[y] = sorted[y-1]
		}
		sorted[y] = key
	}
	for _, key := range sorted {
		u, v := si+key>>32+1, key&(1<<32-1)
		edges = append(edges, graph.NewEdge(u, v, graph.RandomWeight(seed, u, v)))
	}
	return edges
}

// gnmGrid is GNM's B × B grid of vertex blocks: block i holds the vertices
// [i·n/B, (i+1)·n/B), 0-based, with B = 2^⌈log₂n / 2⌉, so about n cells.
// It depends on n alone, so the instance does not depend on p; blocks
// differ in size by at most one vertex and are never empty.
type gnmGrid struct{ n, b uint64 }

func newGNMGrid(n uint64) gnmGrid {
	return gnmGrid{n: n, b: 1 << ((bits.Len64(n-1) + 1) / 2)}
}

// start is block i's first vertex, 0-based; start(B) = n.
func (g gnmGrid) start(i uint64) uint64 { return i * g.n / g.b }

// split deals k draws over the blocks [lo, hi) of one tree by recursive
// binomial splitting, each half's share weighted by its vertices, and writes
// the counts of the blocks in [from, to) to out[block−from]. Tree 0 deals M
// over the rows, tree J+1 row J's draws over its columns. A node's variate
// is a pure function of (seed, tree, lo, hi), so every PE that descends to
// it draws the same. It returns the number of variates drawn.
func (g gnmGrid) split(seed, tree, lo, hi, k, from, to uint64, out []uint32) int {
	if hi <= from || to <= lo {
		return 0
	}
	if hi-lo == 1 {
		out[lo-from] = uint32(k)
		return 0
	}
	mid := (lo + hi) / 2
	left, drawn := uint64(0), 0
	if k > 0 {
		r := rng.Seeded(rng.Hash64(seed, gnmSplitTag, tree, lo, hi))
		left = r.Binomial(k, float64(g.start(mid)-g.start(lo))/float64(g.start(hi)-g.start(lo)))
		drawn = 1
	}
	return drawn + g.split(seed, tree, lo, mid, left, from, to, out) + g.split(seed, tree, mid, hi, k-left, from, to, out)
}

// gnmCell is the stream of cell (i, j)'s draws: u in block i, then v in
// block j, per draw.
func gnmCell(seed, i, j uint64) rng.RNG {
	return rng.Seeded(rng.Hash64(seed, gnmCellTag, i, j))
}

// Package kamsta is a Go reproduction of "Engineering Massively Parallel
// MST Algorithms" (Sanders & Schimek, IPDPS 2023): scalable distributed
// minimum-spanning-tree/forest computation with Borůvka and Filter-Borůvka
// over a simulated distributed-memory machine.
//
// The machine is simulated: every processing element (PE) is a goroutine
// with private state, communicating only through MPI-like collectives, and
// an α-β cost model tracks the modeled time the paper's figures plot (see
// internal/comm). Algorithms, graph generators and the published
// competitors are faithful re-implementations; DESIGN.md documents every
// substitution.
//
// Quick start — the persistent Machine API. A Machine owns a reusable
// simulated machine whose PE goroutines stay parked between jobs; each
// Compute runs one job, with cancellation, per-job options and a progress
// observer:
//
//	m, err := kamsta.NewMachine(kamsta.MachineConfig{PEs: 16, Threads: 8})
//	defer m.Close()
//	rep, err := m.Compute(ctx, kamsta.FromSpec(kamsta.GraphSpec{
//		Family: kamsta.GNM, N: 1 << 14, M: 1 << 17, Seed: 42,
//	}), kamsta.WithAlgorithm(kamsta.AlgFilterBoruvka))
//	// rep.TotalWeight, rep.MSTEdges, rep.ModeledSeconds, ...
//
// Sources unify the three input paths — user edges, generated families, and
// files ingested in parallel (every PE reads its own byte range):
//
//	rep, err := m.Compute(ctx, kamsta.FromEdges(edges))
//	rep, err := m.Compute(ctx, kamsta.FromFile("usa-road.gr"))
//
// NewMachine, Machine.Compute and the RunOptions are the only way in: a
// one-off computation builds a Machine, computes once and closes it.
package kamsta

import (
	"kamsta/internal/comm"
	"kamsta/internal/gen"
	"kamsta/internal/graph"
	"kamsta/internal/radix"
)

// Algorithm selects the MST algorithm.
type Algorithm string

// The available algorithms: the paper's two contributions, the two
// published competitors, and a sequential reference.
const (
	// AlgBoruvka is the distributed Borůvka algorithm (Algorithm 1).
	AlgBoruvka Algorithm = "boruvka"
	// AlgFilterBoruvka is the Filter-Borůvka algorithm (Algorithm 2).
	AlgFilterBoruvka Algorithm = "filterBoruvka"
	// AlgMNDMST is the MND-MST competitor baseline.
	AlgMNDMST Algorithm = "mndmst"
	// AlgSparseMatrix is the Awerbuch–Shiloach sparse-matrix competitor
	// baseline.
	AlgSparseMatrix Algorithm = "sparseMatrix"
	// AlgKruskal is the sequential reference (the ground truth): every PE
	// sends its input to PE 0, which runs Kruskal's algorithm. Its modeled
	// time is the gather's; the sequential computation is not charged.
	AlgKruskal Algorithm = "kruskal"
)

// Algorithms lists all supported algorithm names.
func Algorithms() []Algorithm {
	return []Algorithm{AlgBoruvka, AlgFilterBoruvka, AlgMNDMST, AlgSparseMatrix, AlgKruskal}
}

// GraphSpec describes a generated input instance (re-exported from the
// generator package; see gen.Spec).
type GraphSpec = gen.Spec

// Graph families for GraphSpec.
const (
	Grid2D   = gen.Grid2D
	RGG2D    = gen.RGG2D
	RGG3D    = gen.RGG3D
	RHG      = gen.RHG
	GNM      = gen.GNM
	RMAT     = gen.RMAT
	RoadLike = gen.RoadLike
)

// InputEdge is one undirected weighted edge of a user-supplied graph.
// Vertex labels must be in [1, 2^32).
type InputEdge struct {
	U, V uint64
	W    uint32
}

// canonicalEdgeLess is the one report ordering every algorithm path uses:
// lexicographic by (U, V, W) on canonical (U < V) edges. Keeping the weight
// tie-break shared guarantees that Reports from different algorithms for
// the same multigraph list identical edge sequences.
func canonicalEdgeLess(a, b InputEdge) bool {
	if a.U != b.U {
		return a.U < b.U
	}
	if a.V != b.V {
		return a.V < b.V
	}
	return a.W < b.W
}

// mstKey is the report order's radix key: the endpoints (labels are below
// 2^32), canonicalEdgeLess finishing equal (U, V) runs by weight.
func mstKey(e InputEdge) uint64 { return e.U<<32 | e.V }

// reportScratch is a Machine's memory for putting a forest into report
// order: the canonical entries and the radix sort's pairs. Only the job
// slot's holder uses it.
type reportScratch struct {
	all        []InputEdge
	pairs, tmp []radix.KV
}

// reportFromShares returns the forest the PEs' shares hold, in canonical
// (U < V) orientation and canonicalEdgeLess order, in a new slice: the
// entries are gathered into s and radix-sorted from there into the result.
func reportFromShares(shares [][]graph.Edge, s *reportScratch) []InputEdge {
	all := s.all[:0]
	for _, sh := range shares {
		for _, e := range sh {
			u, v := e.OrigPair()
			all = append(all, InputEdge{U: u, V: v, W: e.W})
		}
	}
	n := len(all)
	if cap(s.pairs) < n {
		s.pairs, s.tmp = make([]radix.KV, n), make([]radix.KV, n)
	}
	s.all = all
	out := make([]InputEdge, n)
	radix.SortInto(out, all, mstKey, canonicalEdgeLess, s.pairs[:n], s.tmp[:n])
	return out
}

// Report is the outcome of a computation.
type Report struct {
	// TotalWeight is the MSF weight; NumEdges its edge count.
	TotalWeight uint64
	NumEdges    int
	// MSTEdges lists the forest edges with original endpoints in canonical
	// (U < V) orientation, sorted by (U, V, W).
	MSTEdges []InputEdge
	// InputVertices/InputEdges describe the instance (directed edge count).
	InputVertices int
	InputEdges    int
	// InputModeledSeconds is the modeled time spent materializing the
	// input inside the world — generating, or loading a file and
	// establishing the sorted distributed format. It is excluded from
	// ModeledSeconds, which measures only the algorithm.
	InputModeledSeconds float64
	// WallSeconds is real elapsed time of the simulation; ModeledSeconds
	// is the α-β machine model's makespan — the quantity corresponding to
	// the paper's measured running times.
	WallSeconds    float64
	ModeledSeconds float64
	// EdgesPerSecond is the modeled throughput (directed input edges per
	// modeled second), the unit of the paper's weak-scaling figures.
	EdgesPerSecond float64
	// Phases holds per-phase modeled/wall times (Fig. 6 breakdown) and,
	// per phase, the traffic charged during it (PhaseTime.Stats: messages,
	// bytes and collectives, excluding nested phases, summed over PEs).
	Phases map[string]comm.PhaseTime
	// Stats aggregates the algorithm's communication traffic over all PEs;
	// for AlgKruskal that is the gather of the input to PE 0.
	Stats comm.Stats
	// Rounds and BaseCalls report algorithm structure when available.
	Rounds    int
	BaseCalls int
}

// Package gen generates the distributed input graphs of the paper's
// evaluation (§VII): two-dimensional grids, 2D/3D random geometric graphs,
// hyperbolic-like power-law graphs, Erdős–Renyi G(n,m) graphs, RMAT graphs
// with Graph500 parameters, and synthetic stand-ins for the real-world
// instances of Table I.
//
// Generation is deterministic and communication-free per PE (KaGen style):
// point positions, degrees and weights are pure hash functions of the seed,
// so two PEs independently derive identical values for shared objects.
// Finish establishes the input format of §II-B: edges globally sorted,
// duplicates and self-loops removed, consecutive global IDs, the replicated
// layout. Build generates into the arena slot Finish's result occupies, and
// where the generator already emits in global order (the grids, RGG, GNM —
// as KaGen hands the paper's implementation sorted edges) it verifies that
// order instead of sorting.
//
// Edge weights are uniform in [1, 255) and symmetric per undirected edge,
// following the experimental setup.
package gen

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"kamsta/internal/arena"
	"kamsta/internal/comm"
	"kamsta/internal/dsort"
	"kamsta/internal/graph"
)

// Family enumerates the graph families.
type Family int

const (
	// Grid2D is a two-dimensional mesh (4-neighborhood).
	Grid2D Family = iota
	// RGG2D is a random geometric graph in the unit square.
	RGG2D
	// RGG3D is a random geometric graph in the unit cube.
	RGG3D
	// RHG is the hyperbolic-like family: power-law degrees (Chung–Lu
	// weights) combined with a geometric locality kernel over the vertex
	// ordering. See DESIGN.md for the substitution rationale.
	RHG
	// GNM is the Erdős–Renyi G(n,m) family.
	GNM
	// RMAT is the recursive matrix family with Graph500 probabilities.
	RMAT
	// RoadLike is a grid with random edge deletions and sparse diagonals,
	// the stand-in for road networks (US-road).
	RoadLike
)

// String returns the family name as used in the paper's figures.
func (f Family) String() string {
	switch f {
	case Grid2D:
		return "2D-GRID"
	case RGG2D:
		return "2D-RGG"
	case RGG3D:
		return "3D-RGG"
	case RHG:
		return "RHG"
	case GNM:
		return "GNM"
	case RMAT:
		return "RMAT"
	case RoadLike:
		return "ROAD"
	}
	return fmt.Sprintf("Family(%d)", int(f))
}

// familyNames maps the CLI/API names to families — the single source of
// truth shared by mstgen's -family flag, the mstserve job API, and
// ParseFamily's error message.
var familyNames = []struct {
	name string
	fam  Family
}{
	{"grid2d", Grid2D},
	{"rgg2d", RGG2D},
	{"rgg3d", RGG3D},
	{"rhg", RHG},
	{"gnm", GNM},
	{"rmat", RMAT},
	{"road", RoadLike},
}

// Name returns the family's CLI/API name ("gnm", "rgg2d", ...) — the
// inverse of ParseFamily, unlike String which renders the paper's labels.
func (f Family) Name() string {
	for _, fn := range familyNames {
		if fn.fam == f {
			return fn.name
		}
	}
	return f.String()
}

// FamilyNames lists the accepted family names, sorted, as one
// comma-separated string (flag help text, error messages).
func FamilyNames() string {
	names := make([]string, 0, len(familyNames))
	for _, fn := range familyNames {
		names = append(names, fn.name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// ParseFamily resolves a case-insensitive family name ("gnm", "rgg2d", ...)
// with an error listing the valid names for unknown input.
func ParseFamily(name string) (Family, error) {
	for _, fn := range familyNames {
		if strings.EqualFold(fn.name, name) {
			return fn.fam, nil
		}
	}
	return 0, fmt.Errorf("gen: unknown graph family %q (known: %s)", name, FamilyNames())
}

// Spec describes one input instance.
type Spec struct {
	Family Family
	// N is the target number of vertices (families round to their natural
	// shapes, e.g. a grid rounds to R×C).
	N uint64
	// M is the target number of undirected edges; the directed
	// representation has about 2M entries. Ignored by Grid2D/RoadLike whose
	// M follows from the mesh shape.
	M uint64
	// Seed makes the instance reproducible.
	Seed uint64
	// RMATKeepLocality skips the Graph500 label scrambling; the web-graph
	// stand-ins use this to retain crawl-order locality.
	RMATKeepLocality bool
}

// Label renders the spec like the paper, e.g. "GNM(2^17,2^21)".
func (s Spec) Label() string {
	return fmt.Sprintf("%s(n=%d,m=%d)", s.Family, s.N, s.M)
}

// Generate returns this PE's share of raw directed edges (both directions
// of every undirected edge are emitted across the world) in a slice of its
// own, valid for as long as the caller holds it.
func Generate(c *comm.Comm, spec Spec) []graph.Edge {
	return generate(c, spec, nil)
}

// generate fills dst[:0] with this PE's raw edges, in dst's backing when it
// holds the family's presize.
func generate(c *comm.Comm, spec Spec, dst []graph.Edge) []graph.Edge {
	switch spec.Family {
	case Grid2D:
		return genGrid2D(c, spec, false, dst)
	case RoadLike:
		return genGrid2D(c, spec, true, dst)
	case RGG2D:
		return genRGG(c, spec, 2, dst)
	case RGG3D:
		return genRGG(c, spec, 3, dst)
	case RHG:
		return genRHG(c, spec, dst)
	case GNM:
		return genGNM(c, spec, dst)
	case RMAT:
		return genRMAT(c, spec, dst)
	}
	panic("gen: unknown family " + spec.Family.String())
}

// kFinish is the arena slot of Finish's result, and of Build's raw edges
// before it: its own, so that no dsort call of the job that consumes the
// result grabs it.
var kFinish = arena.NewKey()

// Finish turns raw per-PE edges into the distributed graph input format:
// globally lexicographically sorted, duplicate edges and self-loops
// removed, consecutive global IDs assigned, balanced across PEs, and the
// replicated layout built. raw is filtered in place.
//
// The returned edges live in this PE's scratch arena, in a slot only Finish
// and Build grab: they stay valid — across every sort, round and collective
// of the job that consumes them — until the next Finish or Build on the same
// world. The job that called Finish may hold them to its end; whoever needs
// them after the job returns (the world then belongs to the next job) clones
// them inside the job body, as Collect does.
func Finish(c *comm.Comm, raw []graph.Edge, sortOpt dsort.Options) ([]graph.Edge, *graph.Layout) {
	return finish(c, raw, false, sortOpt)
}

// Build generates an instance straight into Finish's slot and finishes it
// there, with Finish's result and lifetime. The families whose generators
// emit in global (U, V) order — the grids, RGG and GNM — are verified
// instead of sorted (dsort.IsGloballySorted: one local pass, two small
// collectives), and sorted only if that check fails.
func Build(c *comm.Comm, spec Spec, sortOpt dsort.Options) ([]graph.Edge, *graph.Layout) {
	a := c.Scratch()
	raw := generate(c, spec, arena.GrabAppend[graph.Edge](a, kFinish))
	arena.Keep(a, kFinish, raw)
	ordered := spec.Family == Grid2D || spec.Family == RoadLike || spec.Family == RGG2D || spec.Family == RGG3D || spec.Family == GNM
	return finish(c, raw, ordered, sortOpt)
}

// finish is Finish; ordered says raw is expected in global LessLex order,
// which is then verified and, if it holds, not sorted again.
func finish(c *comm.Comm, raw []graph.Edge, ordered bool, sortOpt dsort.Options) ([]graph.Edge, *graph.Layout) {
	// Drop self-loops locally first.
	kept := raw[:0]
	for _, e := range raw {
		if e.U != e.V {
			kept = append(kept, e)
		}
	}
	sorted := kept
	if ordered && dsort.IsGloballySorted(c, kept, graph.LessLex) {
		c.ChargeCompute(len(kept)) // the verifying pass
	} else {
		sorted = dsort.Sort(c, kept, dsort.ByKey(graph.LessLex, graph.KeyLex), sortOpt)
	}

	// Remove duplicates: runs of equal (U,V) are consecutive after the
	// lexicographic sort and the lightest copy leads each run.
	c.ChargeCompute(len(sorted))
	dedup := graph.DedupSorted(c, sorted)

	// Assign consecutive global IDs in sort order.
	offset := comm.ExScan(c, len(dedup), 0, func(a, b int) int { return a + b })
	if uint64(offset)+uint64(len(dedup)) > 1<<32 {
		panic(fmt.Sprintf("gen: Finish: at least %d directed edges, but edge IDs are 32-bit (at most 2^32 edges)", uint64(offset)+uint64(len(dedup))))
	}
	for i := range dedup {
		dedup[i].ID = uint32(offset + i)
	}
	balanced := dsort.RebalanceInto(c, kFinish, dedup)
	return balanced, graph.BuildLayout(c, balanced)
}

// ownedRange splits 0..total-1 contiguously among PEs; returns this PE's
// half-open range.
func ownedRange(rank, p int, total uint64) (uint64, uint64) {
	lo := uint64(rank) * total / uint64(p)
	hi := uint64(rank+1) * total / uint64(p)
	return lo, hi
}

// presized returns dst emptied, with room for n edges: dst's own backing if
// it has the room, otherwise exactly n new ones.
func presized(dst []graph.Edge, n int) []graph.Edge {
	if cap(dst) < n {
		return make([]graph.Edge, 0, n)
	}
	return dst[:0]
}

// emitBoth appends both directions of the undirected edge {u, v} with its
// deterministic weight.
func emitBoth(edges []graph.Edge, seed uint64, u, v graph.VID) []graph.Edge {
	w := graph.RandomWeight(seed, u, v)
	return append(edges, graph.NewEdge(u, v, w), graph.NewEdge(v, u, w))
}

// Collect builds spec on every rank of w as one job and returns the whole
// directed, globally sorted edge sequence, for writing an instance out
// (cmd/mstgen, the file-backed exhibits). The result does not depend on the
// world's size.
func Collect(ctx context.Context, w *comm.World, cfg comm.JobConfig, spec Spec) ([]graph.Edge, error) {
	chunks := make([][]graph.Edge, w.P())
	err := w.RunJobCfg(ctx, cfg, func(c *comm.Comm) {
		edges, _ := Build(c, spec, dsort.Options{})
		chunks[c.Rank()] = slices.Clone(edges) // read after the job: see Finish
	})
	var all []graph.Edge
	for _, ch := range chunks {
		all = append(all, ch...)
	}
	return all, err
}

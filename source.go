package kamsta

import (
	"fmt"

	"kamsta/internal/comm"
	"kamsta/internal/gen"
	"kamsta/internal/graph"
	"kamsta/internal/graphio"
)

// Source is where a computation's input graph comes from. The three
// constructors — FromSpec (generate in-simulation), FromFile (parallel
// ingestion of an on-disk instance) and FromEdges (a user-supplied edge
// list) — all materialize the same distributed input format inside the
// world, so callers pick "generate" or "load" uniformly:
//
//	rep, err := m.Compute(ctx, kamsta.FromFile("usa-road.gr"))
//	rep, err := m.Compute(ctx, kamsta.FromSpec(spec))
type Source interface {
	// Label names the source for reports and error messages.
	Label() string
	// validate runs cheap pre-world checks.
	validate() error
	// provide materializes this PE's share of the §II-B input inside the
	// world. Implementations must return the same error on every PE (or
	// nil everywhere), so the SPMD program stays in lockstep.
	provide(c *comm.Comm, rs runSettings) ([]graph.Edge, *graph.Layout, error)
}

// FromSpec makes a Source that generates one of the paper's graph families
// in-simulation (gen.Build). A zero spec seed is derived from the job's
// WithSeed.
func FromSpec(spec GraphSpec) Source { return specSource{spec} }

type specSource struct{ spec gen.Spec }

func (s specSource) Label() string   { return s.spec.Label() }
func (s specSource) validate() error { return graph.CheckEdgeCount(s.spec.M) }

func (s specSource) provide(c *comm.Comm, rs runSettings) ([]graph.Edge, *graph.Layout, error) {
	spec := s.spec
	if spec.Seed == 0 {
		spec.Seed = rs.seed + 1
	}
	edges, layout := gen.Build(c, spec, rs.core.Sort)
	return edges, layout, nil
}

// FromFile makes a Source that ingests a graph file in parallel (every PE
// reads its own byte range; see internal/graphio). The format is detected
// from the extension: .kg (kamsta binary), .gr (9th-DIMACS), .metis/.graph
// (METIS adjacency), anything else a plain "u v [w]" edge list. Unweighted
// inputs get deterministic weights derived from the job's WithSeed.
func FromFile(path string) Source { return fileSource{path: path} }

// FromFileFormat is FromFile with an explicit format name: "kamsta",
// "edgelist", "gr", "metis" or "auto".
func FromFileFormat(path, format string) Source {
	return fileSource{path: path, format: format}
}

type fileSource struct{ path, format string }

func (f fileSource) Label() string { return f.path }

func (f fileSource) validate() error {
	if f.path == "" {
		return fmt.Errorf("kamsta: empty input path")
	}
	_, err := graphio.ParseFormat(f.format)
	return err
}

func (f fileSource) provide(c *comm.Comm, rs runSettings) ([]graph.Edge, *graph.Layout, error) {
	fm, err := graphio.ParseFormat(f.format)
	if err != nil {
		return nil, nil, err // validate() catches this before the world starts
	}
	return graphio.Load(c, f.path, graphio.Options{
		Format: fm,
		Seed:   rs.seed,
		Sort:   rs.core.Sort,
	})
}

// FromEdges makes a Source from a user-supplied undirected edge list.
// Vertex labels must be in [1, 2^32), and there must be fewer than 2^31
// edges.
func FromEdges(edges []InputEdge) Source { return edgesSource{edges} }

type edgesSource struct{ edges []InputEdge }

func (s edgesSource) Label() string {
	return fmt.Sprintf("edges(m=%d)", len(s.edges))
}

func (s edgesSource) validate() error {
	if err := graph.CheckEdgeCount(uint64(len(s.edges))); err != nil {
		return fmt.Errorf("kamsta: %w", err)
	}
	for _, e := range s.edges {
		if e.U == 0 || e.V == 0 || e.U >= 1<<32 || e.V >= 1<<32 {
			return fmt.Errorf("kamsta: vertex labels must be in [1, 2^32): edge (%d,%d)", e.U, e.V)
		}
		if e.U == e.V {
			return fmt.Errorf("kamsta: self-loop on vertex %d", e.U)
		}
	}
	return nil
}

func (s edgesSource) provide(c *comm.Comm, rs runSettings) ([]graph.Edge, *graph.Layout, error) {
	// PE 0 feeds the edges in; Finish distributes and sorts them.
	var raw []graph.Edge
	if c.Rank() == 0 {
		raw = make([]graph.Edge, 0, 2*len(s.edges))
		for _, e := range s.edges {
			raw = append(raw, graph.NewEdge(e.U, e.V, e.W), graph.NewEdge(e.V, e.U, e.W))
		}
	}
	edges, layout := gen.Finish(c, raw, rs.core.Sort)
	return edges, layout, nil
}

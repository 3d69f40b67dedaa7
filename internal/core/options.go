// Package core implements the paper's primary contribution: the scalable
// distributed-memory Borůvka MST algorithm (Algorithm 1) and the
// Filter-Borůvka algorithm (Algorithm 2), over the simulated machine of
// internal/comm.
//
// The distributed graph follows §II-B: a lexicographically sorted, 1D
// partitioned sequence of directed edges with a replicated minlex array
// (graph.Layout). One Borůvka round (§IV) finds each local vertex's
// lightest incident edge, contracts the induced pseudo-trees by pointer
// doubling over sparse all-to-alls (shared vertices act as component roots
// and never require communication), exchanges new labels for ghost
// vertices, relabels, and redistributes the contracted graph with a
// distributed sort. A replicated-vertex base case (§IV-D, Adler et al.)
// finishes when few vertices remain. Filter-Borůvka wraps this in the
// Filter-Kruskal recursion (§V) using a distributed component-representative
// array P.
package core

import (
	"kamsta/internal/alltoall"
	"kamsta/internal/dsort"
	"kamsta/internal/graph"
)

// Options configures the distributed MST algorithms. The zero value is the
// paper's configuration (§VII): local preprocessing on, parallel edges
// removed wherever the edge set is re-sorted, every threshold at the default
// documented per field.
type Options struct {
	// A2A is the sparse all-to-all strategy for label exchange and pointer
	// doubling (default Auto: direct for large, two-level grid for small
	// messages, §VI-A).
	A2A alltoall.Strategy
	// Sort configures the distributed sorter used by REDISTRIBUTE (default
	// seed: Seed ^ 0x50F7) and by input materialization (seed 0 unless
	// set). Nothing in the program sets it; the benchmark's layer
	// microcalls (benchmark/layers) read DefaultOptions().Sort.
	Sort dsort.Options
	// BaseCaseCap: the distributed rounds stop when the global number of
	// vertices is at most max(2·p, BaseCaseCap) (§VI-C; the paper uses
	// 35000 — scaled down here by default to keep simulator runs quick).
	BaseCaseCap int
	// NoLocalPreprocessing skips the §IV-A contraction of provably-local
	// MST edges before the distributed rounds: the -nopre ablations of
	// Fig. 2 and Fig. 4. Unset, preprocess may still decline.
	NoLocalPreprocessing bool
	// Seed drives pivot sampling and sorter sampling.
	Seed uint64
}

// Tuning constants the paper fixes rather than sweeps.
const (
	// minLocalEdgeFrac: local preprocessing is skipped when the global
	// fraction of local edges is below it (§VI-B: skipped after a quick
	// check when cut edges exceed 90%).
	minLocalEdgeFrac = 0.10
	// sparseDegree: the Filter-Borůvka recursion stops partitioning when
	// directed edges per vertex fall to it or below (§VI-C: average degree
	// 4).
	sparseDegree = 4
	// minEdgesPerPE: the recursion also stops partitioning when the graph
	// has fewer directed edges than this per PE (§VI-C: 1000).
	minEdgesPerPE = 1000
	// mergeBackFraction: a filtered segment that retains fewer than this
	// fraction of minEdgesPerPE·p edges is merged into the next pending
	// segment instead of being processed alone (§VI-C merge-back).
	mergeBackFraction = 0.25
	// pivotSamples is Filter-Borůvka's pivot sample size per PE.
	pivotSamples = 16
)

// withDefaults fills in unset fields.
func (o Options) withDefaults() Options {
	if o.BaseCaseCap <= 0 {
		o.BaseCaseCap = 2048
	}
	if o.Sort.Seed == 0 {
		o.Sort.Seed = o.Seed ^ 0x50F7
	}
	return o
}

// baseThreshold is the global vertex count at which the distributed rounds
// stop on p PEs: max(2·p, BaseCaseCap).
func (o Options) baseThreshold(p int) int { return max(2*p, o.BaseCaseCap) }

// preprocess reports whether LOCALPREPROCESSING runs on the input layout l:
// not when opted out, and not when the input's label span is at most the
// base-case threshold, where the rounds it would shrink cannot run. The span,
// first source to the last non-empty PE's last source (an empty PE's Last is
// the zero edge), bounds n from above without communication.
func (o Options) preprocess(l *graph.Layout) bool {
	lo, hi := l.First(0).U, graph.VID(0)
	for i := range l.P {
		hi = max(hi, l.Last(i).U)
	}
	return !o.NoLocalPreprocessing && hi >= lo && hi-lo >= uint64(o.baseThreshold(l.P))
}

// DefaultOptions returns the zero value, which is the paper's
// configuration. It stays only because the benchmark module calls it.
func DefaultOptions() Options { return Options{} }

// Phase names as reported in the paper's running-time breakdown (Fig. 6).
const (
	PhasePreprocess   = "localPreprocessing"
	PhaseMinEdges     = "graphSetup+minEdges"
	PhaseContract     = "contractComponents"
	PhaseLabels       = "exchangeLabels+relabel"
	PhaseRedistribute = "redistribute"
	PhaseBaseCase     = "basecase+redistributeMST"
	PhaseFilter       = "partition+filter"
)

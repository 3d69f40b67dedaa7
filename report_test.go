package kamsta

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"kamsta/internal/core"
	"kamsta/internal/graph"
	"kamsta/internal/radix"
)

// sharesInReportOrder is what reportFromShares must return: every share
// entry in canonical orientation, in report order.
func sharesInReportOrder(shares [][]graph.Edge) []InputEdge {
	var want []InputEdge
	for _, sh := range shares {
		for _, e := range sh {
			u, v := e.OrigPair()
			want = append(want, InputEdge{U: u, V: v, W: e.W})
		}
	}
	sortMSTEdges(want)
	return want
}

// TestReportFromSharesMatchesSort: the Report's forest equals the shares
// sorted by canonicalEdgeLess — on random multigraphs with parallel edges
// and tied weights and on generated instances, at p ∈ {1, 2, 4, 16}, over
// shm and loopback TCP, for both core algorithms and a baseline, and with
// the entries of each case reversed.
func TestReportFromSharesMatchesSort(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewPCG(5, 6))
	var sources []Source
	for i := 0; i < 3; i++ {
		sources = append(sources, FromEdges(randomCanonicalEdges(r, 150+120*i, uint64(40+30*i))))
	}
	sources = append(sources,
		FromSpec(GraphSpec{Family: GNM, N: 300, M: 1500, Seed: 3}),
		FromSpec(GraphSpec{Family: RGG2D, N: 400, M: 1600, Seed: 4}))
	var s reportScratch
	for _, transport := range []string{TransportSHM, TransportTCP} {
		for _, p := range []int{1, 2, 4, 16} {
			var m *Machine
			if transport == TransportTCP {
				if p == 1 {
					continue // a TCP world spans at least two processes
				}
				m = tcpMachine(t, p, 1)
			} else {
				m = newTestMachine(t, MachineConfig{PEs: p})
			}
			for si, src := range sources {
				for _, alg := range []Algorithm{AlgBoruvka, AlgFilterBoruvka, AlgMNDMST} {
					label := fmt.Sprintf("%s p=%d source %d %s", transport, p, si, alg)
					rs := runSettings{alg: alg, seed: 9, core: core.Options{BaseCaseCap: 2, Seed: 9}}
					j, err := m.runJob(ctx, jobMSF, src, rs)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					want := sharesInReportOrder(j.shares)
					if len(want) != j.rep.NumEdges {
						t.Fatalf("%s: %d share entries, %d forest edges", label, len(want), j.rep.NumEdges)
					}
					if got := reportFromShares(j.shares, &s); !slices.Equal(got, want) {
						t.Errorf("%s: the assembled forest differs from the sorted shares", label)
					}
					reversed := slices.Concat(j.shares...)
					slices.Reverse(reversed)
					if got := reportFromShares([][]graph.Edge{reversed}, &s); !slices.Equal(got, want) {
						t.Errorf("%s: the forest assembled from reversed shares differs from the sorted shares", label)
					}
				}
			}
		}
	}
}

// TestReportOutlivesNextCompute: a Report's forest is its own. The PEs'
// shares it is assembled from lie in the world's arena and the Machine's
// scratch puts them in order, and the next job rewrites both; the first
// Report must not change.
func TestReportOutlivesNextCompute(t *testing.T) {
	for _, transport := range []string{TransportSHM, TransportTCP} {
		var m *Machine
		if transport == TransportTCP {
			m = tcpMachine(t, 4, 1)
		} else {
			m = newTestMachine(t, MachineConfig{PEs: 4})
		}
		for _, alg := range []Algorithm{AlgBoruvka, AlgFilterBoruvka} {
			first := mustCompute(t, m, FromSpec(GraphSpec{Family: RGG2D, N: 2000, M: 8000, Seed: 1}), WithAlgorithm(alg))
			kept := slices.Clone(first.MSTEdges)
			mustCompute(t, m, FromSpec(GraphSpec{Family: GNM, N: 2000, M: 8000, Seed: 2}), WithAlgorithm(alg))
			if !slices.Equal(first.MSTEdges, kept) {
				t.Errorf("%s %s: the first Report's MSTEdges changed under the second Compute", transport, alg)
			}
		}
	}
}

// directedShares deals n random directed edges, in lexicographic order
// with consecutive IDs, to p shares as a core algorithm's REDISTRIBUTEMST
// leaves them; about half run from the larger endpoint.
func directedShares(r *rand.Rand, n, p int) [][]graph.Edge {
	es := make([]graph.Edge, n)
	for i := range es {
		u, v := 1+r.Uint64N(1<<20), 1+r.Uint64N(1<<20)
		for u == v {
			v = 1 + r.Uint64N(1<<20)
		}
		es[i] = graph.NewEdge(u, v, 1+r.Uint32N(254))
	}
	slices.SortFunc(es, radix.CmpOf(graph.LessLex))
	shares := make([][]graph.Edge, p)
	for k := range shares {
		shares[k] = es[k*n/p : (k+1)*n/p]
		for i := range shares[k] {
			shares[k][i].ID = uint32(k*n/p + i)
		}
	}
	return shares
}

// TestReportFromSharesAllocatesOnlyTheReport: with the Machine's scratch
// warm, assembling a forest makes one allocation, the Report's slice.
func TestReportFromSharesAllocatesOnlyTheReport(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	shares := directedShares(rand.New(rand.NewPCG(7, 8)), 1<<12, 4)
	var s reportScratch
	reportFromShares(shares, &s)
	if a := testing.AllocsPerRun(5, func() { reportFromShares(shares, &s) }); a != 1 {
		t.Errorf("a warm assembly made %v allocations, want 1", a)
	}
}

// BenchmarkReportFromShares: the end of a job's Report, 2^17 forest edges
// in 16 directed-order shares, half of them flipped, on warm scratch (the
// Report's own slice is inside the timing).
func BenchmarkReportFromShares(b *testing.B) {
	shares := directedShares(rand.New(rand.NewPCG(3, 4)), 1<<17, 16)
	var s reportScratch
	reportFromShares(shares, &s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reportFromShares(shares, &s)
	}
}

// Ablations for the design choices DESIGN.md calls out, and the Machine
// reuse benchmark EXPERIMENTS.md cites. Wall time is the simulator's cost;
// the paper's quantity is the modeled α-β time, reported as the custom
// metric "modeled-ms" (and throughput as "medges/s"). The paper's figures
// and tables are not here: internal/bench runs them (cmd/mstbench prints
// them, TestExhibitsPinned holds their modeled columns).
package kamsta_test

import (
	"context"
	"fmt"
	"testing"

	"kamsta"
	"kamsta/internal/core"
	"kamsta/internal/gen"
)

// weakSpec mirrors the paper's weak scaling: per-PE budgets times p.
func weakSpec(f gen.Family, p int) kamsta.GraphSpec {
	const vppe, eppe = 1 << 8, 1 << 12
	return kamsta.GraphSpec{Family: f, N: vppe * uint64(p), M: eppe * uint64(p), Seed: 1}
}

// runSpec builds one p-PE machine, executes one job per iteration on it and
// reports modeled time and modeled throughput alongside the wall time.
func runSpec(b *testing.B, spec kamsta.GraphSpec, p, threads int, alg kamsta.Algorithm, opt core.Options) {
	b.Helper()
	m, err := kamsta.NewMachine(kamsta.MachineConfig{PEs: p, Threads: threads})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	src := kamsta.FromSpec(spec)
	var rep *kamsta.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err = m.Compute(context.Background(), src, kamsta.WithAlgorithm(alg), kamsta.WithCoreOptions(opt))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.ModeledSeconds*1e3, "modeled-ms")
	if rep.ModeledSeconds > 0 {
		b.ReportMetric(rep.EdgesPerSecond/1e6, "medges/s")
	}
}

// BenchmarkAblationBaseCap — the base-case threshold trade-off (§VI-C).
func BenchmarkAblationBaseCap(b *testing.B) {
	spec := weakSpec(gen.GNM, 16)
	for _, cap := range []int{1, 1 << 6, 1 << 10, 1 << 14} {
		b.Run(fmt.Sprintf("cap=%d", cap), func(b *testing.B) {
			runSpec(b, spec, 16, 1, kamsta.AlgBoruvka, core.Options{BaseCaseCap: cap})
		})
	}
}

// BenchmarkMachineRepeatedSmallInstances — the service workload the Machine
// API exists for: many small jobs back to back. The reused Machine keeps
// its PE goroutines parked between jobs; a fresh Machine per job rebuilds
// the world (spawns p goroutines, reallocates boards and barrier) each time.
// The delta is the per-job setup cost a server no longer pays; it grows
// with the machine width.
func BenchmarkMachineRepeatedSmallInstances(b *testing.B) {
	var edges []kamsta.InputEdge
	for i := uint64(1); i <= 8; i++ {
		edges = append(edges, kamsta.InputEdge{U: i, V: i + 1, W: uint32(i*7%13 + 1)})
	}
	src := kamsta.FromEdges(edges)
	for _, p := range []int{8, 32} {
		b.Run(fmt.Sprintf("reused-machine/p=%d", p), func(b *testing.B) {
			m, err := kamsta.NewMachine(kamsta.MachineConfig{PEs: p})
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Compute(context.Background(), src); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("fresh-machine/p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := kamsta.NewMachine(kamsta.MachineConfig{PEs: p})
				if err != nil {
					b.Fatal(err)
				}
				_, err = m.Compute(context.Background(), src)
				m.Close()
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

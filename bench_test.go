// Benchmarks regenerating the paper's tables and figures (§VII), one
// Benchmark function per exhibit, plus ablations for the design choices
// DESIGN.md calls out. Wall time is the simulator's cost; the paper's
// quantity is the modeled α-β time, reported as the custom metric
// "modeled-ms" (and throughput as "medges/s" for the weak-scaling runs).
//
// The full suite runs at laptop scale; cmd/mstbench sweeps the same
// experiments with configurable sizes and prints the figures' data series.
package kamsta_test

import (
	"context"
	"fmt"
	"testing"

	"kamsta"
	"kamsta/internal/alltoall"
	"kamsta/internal/core"
	"kamsta/internal/gen"
)

// weakSpec mirrors the paper's weak scaling: per-PE budgets times p.
func weakSpec(f gen.Family, p int) kamsta.GraphSpec {
	const vppe, eppe = 1 << 8, 1 << 12
	return kamsta.GraphSpec{Family: f, N: vppe * uint64(p), M: eppe * uint64(p), Seed: 1}
}

// paperOpts is the paper's default configuration at bench scale.
func paperOpts() core.Options {
	o := core.DefaultOptions()
	o.BaseCaseCap = 1 << 6
	return o
}

// runSpec builds one p-PE machine, executes one job per iteration on it and
// reports modeled time and modeled throughput alongside the wall time. It
// returns the last iteration's report.
func runSpec(b *testing.B, spec kamsta.GraphSpec, p, threads int, alg kamsta.Algorithm, opt core.Options) *kamsta.Report {
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
	return rep
}

// BenchmarkFig2 — one-level vs two-level all-to-all on the component
// contraction of a GNM weak-scaling instance (Fig. 2). The "modeled-ms"
// metric is the series the figure plots; two-level must win as p grows.
func BenchmarkFig2(b *testing.B) {
	for _, p := range []int{16, 64} {
		for _, variant := range []struct {
			name string
			a2a  alltoall.Strategy
		}{{"one-level", alltoall.Direct}, {"two-level", alltoall.Grid}} {
			b.Run(fmt.Sprintf("%s/p=%d", variant.name, p), func(b *testing.B) {
				opt := paperOpts()
				opt.LocalPreprocessing = false // GNM: matches the figure's setup
				opt.A2A = variant.a2a
				runSpec(b, weakSpec(gen.GNM, p), p, 1, kamsta.AlgBoruvka, opt)
			})
		}
	}
}

// BenchmarkFig3 — weak-scaling throughput for all six families and all
// four algorithms (Fig. 3); the headline comparison of the paper.
func BenchmarkFig3(b *testing.B) {
	families := []gen.Family{gen.Grid2D, gen.RGG2D, gen.RGG3D, gen.GNM, gen.RHG, gen.RMAT}
	algs := []struct {
		name string
		alg  kamsta.Algorithm
	}{
		{"boruvka", kamsta.AlgBoruvka},
		{"filterBoruvka", kamsta.AlgFilterBoruvka},
		{"MND-MST", kamsta.AlgMNDMST},
		{"sparseMatrix", kamsta.AlgSparseMatrix},
	}
	const p = 16
	for _, f := range families {
		for _, a := range algs {
			for _, threads := range []int{1, 8} {
				b.Run(fmt.Sprintf("%s/%s-%dt/p=%d", f, a.name, threads, p), func(b *testing.B) {
					runSpec(b, weakSpec(f, p), p, threads, a.alg, paperOpts())
				})
			}
		}
	}
}

// BenchmarkFig4 — the local-preprocessing ablation on high-locality
// families with a denser per-PE edge budget (Fig. 4).
func BenchmarkFig4(b *testing.B) {
	const p = 16
	for _, f := range []gen.Family{gen.Grid2D, gen.RGG2D, gen.RGG3D, gen.RHG} {
		spec := kamsta.GraphSpec{Family: f, N: 1 << 12, M: 1 << 17, Seed: 1}
		b.Run(fmt.Sprintf("%s/preprocess=on", f), func(b *testing.B) {
			runSpec(b, spec, p, 8, kamsta.AlgBoruvka, paperOpts())
		})
		b.Run(fmt.Sprintf("%s/preprocess=off", f), func(b *testing.B) {
			opt := paperOpts()
			opt.LocalPreprocessing = false
			runSpec(b, spec, p, 8, kamsta.AlgBoruvka, opt)
		})
	}
}

// BenchmarkFig5 — strong scaling on the Table I real-world stand-ins
// (Fig. 5): fixed instance, growing machine.
func BenchmarkFig5(b *testing.B) {
	for _, name := range gen.RealWorldNames() {
		spec, err := gen.RealWorldSpec(name, 1<<15, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range []int{4, 16, 64} {
			b.Run(fmt.Sprintf("%s/boruvka-8t/p=%d", name, p), func(b *testing.B) {
				runSpec(b, spec, p, 8, kamsta.AlgBoruvka, paperOpts())
			})
		}
		// Competitors at one machine width for the comparison rows.
		b.Run(fmt.Sprintf("%s/MND-MST/p=16", name), func(b *testing.B) {
			runSpec(b, spec, 16, 1, kamsta.AlgMNDMST, paperOpts())
		})
		b.Run(fmt.Sprintf("%s/sparseMatrix/p=16", name), func(b *testing.B) {
			runSpec(b, spec, 16, 1, kamsta.AlgSparseMatrix, paperOpts())
		})
	}
}

// BenchmarkFig6 — the phase breakdown instances (Fig. 6): each phase's
// modeled share is reported as its own metric.
func BenchmarkFig6(b *testing.B) {
	const p = 16
	for _, f := range []gen.Family{gen.RGG3D, gen.GNM, gen.RMAT} {
		for _, v := range []struct {
			label   string
			alg     kamsta.Algorithm
			threads int
		}{
			{"b1", kamsta.AlgBoruvka, 1}, {"b8", kamsta.AlgBoruvka, 8},
			{"f1", kamsta.AlgFilterBoruvka, 1}, {"f8", kamsta.AlgFilterBoruvka, 8},
		} {
			b.Run(fmt.Sprintf("%s/%s", f, v.label), func(b *testing.B) {
				rep := runSpec(b, weakSpec(f, p), p, v.threads, v.alg, paperOpts())
				total := rep.ModeledSeconds
				if total > 0 {
					for phase, pt := range rep.Phases {
						b.ReportMetric(pt.Modeled/total, phase+"-frac")
					}
				}
			})
		}
	}
}

// BenchmarkTable1 — building the real-world stand-in instances themselves
// (generation + distribution + layout), the inventory of Table I.
func BenchmarkTable1(b *testing.B) {
	for _, name := range gen.RealWorldNames() {
		spec, err := gen.RealWorldSpec(name, 1<<15, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			rep := runSpec(b, spec, 8, 1, kamsta.AlgKruskal, core.Options{})
			b.ReportMetric(float64(rep.InputEdges), "edges")
		})
	}
}

// BenchmarkSharedMemory — §VII-C: the single-node shared-memory baseline
// against the distributed algorithm on the same instance.
func BenchmarkSharedMemory(b *testing.B) {
	spec, err := gen.RealWorldSpec("twitter", 1<<15, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("shared-memory-8t", func(b *testing.B) {
		runSpec(b, spec, 1, 8, kamsta.AlgBoruvka, paperOpts())
	})
	for _, p := range []int{8, 32} {
		b.Run(fmt.Sprintf("distributed-8t/p=%d", p), func(b *testing.B) {
			runSpec(b, spec, p, 8, kamsta.AlgBoruvka, paperOpts())
		})
	}
}

// BenchmarkAblationDedup — REDISTRIBUTE's optional parallel-edge removal
// (§IV-C says it is optional; DESIGN.md calls out the choice).
func BenchmarkAblationDedup(b *testing.B) {
	spec := weakSpec(gen.GNM, 16)
	for _, dedup := range []bool{true, false} {
		b.Run(fmt.Sprintf("dedup=%v", dedup), func(b *testing.B) {
			opt := paperOpts()
			opt.DedupParallel = dedup
			runSpec(b, spec, 16, 1, kamsta.AlgBoruvka, opt)
		})
	}
}

// BenchmarkAblationLocalFilter — the §VI-B recursive edge filtering inside
// local preprocessing.
func BenchmarkAblationLocalFilter(b *testing.B) {
	spec := kamsta.GraphSpec{Family: gen.RGG2D, N: 1 << 12, M: 1 << 16, Seed: 1}
	for _, filter := range []bool{true, false} {
		b.Run(fmt.Sprintf("localFilter=%v", filter), func(b *testing.B) {
			opt := paperOpts()
			opt.LocalFilter = filter
			runSpec(b, spec, 8, 4, kamsta.AlgBoruvka, opt)
		})
	}
}

// BenchmarkAblationHashDedup — §VI-B's hash-table parallel-edge removal
// versus pure sorting inside preprocessing.
func BenchmarkAblationHashDedup(b *testing.B) {
	spec := kamsta.GraphSpec{Family: gen.Grid2D, N: 1 << 14, Seed: 1}
	for _, hash := range []bool{true, false} {
		b.Run(fmt.Sprintf("hashDedup=%v", hash), func(b *testing.B) {
			opt := paperOpts()
			opt.HashDedup = hash
			runSpec(b, spec, 8, 4, kamsta.AlgBoruvka, opt)
		})
	}
}

// BenchmarkAblationBaseCap — the base-case threshold trade-off (§VI-C).
func BenchmarkAblationBaseCap(b *testing.B) {
	spec := weakSpec(gen.GNM, 16)
	for _, cap := range []int{1, 1 << 6, 1 << 10, 1 << 14} {
		b.Run(fmt.Sprintf("cap=%d", cap), func(b *testing.B) {
			opt := paperOpts()
			opt.BaseCaseCap = cap
			runSpec(b, spec, 16, 1, kamsta.AlgBoruvka, opt)
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

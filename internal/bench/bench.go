// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation section (§VII) on the simulated machine
// and prints the same rows/series the paper plots. Absolute numbers come
// from the α-β cost model, so the interesting output is the shape — who
// wins, by what factor, where crossovers fall — as recorded side-by-side
// with the paper's values in EXPERIMENTS.md.
package bench

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"kamsta"
	"kamsta/internal/alltoall"
	"kamsta/internal/comm"
	"kamsta/internal/core"
	"kamsta/internal/gen"
	"kamsta/internal/graph"
	"kamsta/internal/graphio"
)

// Scale holds the simulator-wide workload knobs. The paper uses 2^17
// vertices and 2^21 edges per core on up to 2^16 cores; the defaults here
// are laptop-sized and every knob is a flag in cmd/mstbench.
type Scale struct {
	// Ps is the list of PE counts to sweep.
	Ps []int
	// VPerPE and EPerPE are weak-scaling per-PE vertex/undirected-edge
	// budgets (the paper: 2^17 and 2^21).
	VPerPE, EPerPE uint64
	// DenseEPerPE is the denser setting of Fig. 4 (the paper: 2^23).
	DenseEPerPE uint64
	// RealWorldScale divides Table I instance sizes for strong scaling.
	RealWorldScale uint64
	// Seed for all instances.
	Seed uint64
	// BaseCaseCap is the base-case vertex threshold. The paper uses 35000
	// with 2^17 vertices per core (~1/4 of a PE's vertices); 0 derives the
	// same ratio from VPerPE.
	BaseCaseCap int
	// Timeout, when positive, bounds every job of the sweep: each Compute
	// runs under context.WithTimeout and a job that exceeds it fails the
	// sweep with context.DeadlineExceeded (cmd/mstbench -timeout).
	Timeout time.Duration

	// Transport and Workers select the machine substrate for every pooled
	// machine (kamsta.MachineConfig.Transport/Workers): "" or "shm" runs
	// in-process, "tcp" leads a distributed world over the given mstworker
	// addresses. Modeled results are transport-invariant; wall time is not.
	Transport string
	Workers   []string

	// Metrics, when non-nil, registers every pooled machine's job-level and
	// per-PE substrate series in this registry (cmd/mstbench -metrics).
	Metrics *kamsta.Metrics
	// Trace, when non-nil, records the span stream of every measured job
	// (cmd/mstbench -trace).
	Trace *kamsta.Trace
}

// baseCap resolves the base-case threshold for this scale.
func (s Scale) baseCap() int {
	if s.BaseCaseCap > 0 {
		return s.BaseCaseCap
	}
	return int(s.VPerPE/4) + 2
}

// DefaultScale returns the laptop-sized default workload.
func DefaultScale() Scale {
	return Scale{
		Ps:             []int{4, 8, 16, 32, 64},
		VPerPE:         1 << 9,
		EPerPE:         1 << 13,
		DenseEPerPE:    1 << 14,
		RealWorldScale: 1 << 14,
		Seed:           1,
	}
}

// runCfg is one measured configuration: the machine shape (PEs, Threads,
// Cost — the pool fills in the sweep-wide Metrics/Transport/Workers) and the
// per-job algorithm choice.
type runCfg struct {
	kamsta.MachineConfig
	Algorithm kamsta.Algorithm
	Core      core.Options
}

// runOptions is cfg's job-scoped half as Compute options.
func (cfg runCfg) runOptions() []kamsta.RunOption {
	return []kamsta.RunOption{kamsta.WithAlgorithm(cfg.Algorithm), kamsta.WithCoreOptions(cfg.Core)}
}

// algConfig maps the paper's series names to configurations: the two
// headline series run the zero core.Options, the -nopre ablations opt out of
// local preprocessing.
func algConfig(name string, threads int, s Scale) runCfg {
	cfg := runCfg{MachineConfig: kamsta.MachineConfig{Threads: threads}}
	switch name {
	case "boruvka":
		cfg.Algorithm = kamsta.AlgBoruvka
	case "filterBoruvka":
		cfg.Algorithm = kamsta.AlgFilterBoruvka
	case "boruvka-nopre":
		cfg.Algorithm = kamsta.AlgBoruvka
		cfg.Core.NoLocalPreprocessing = true
	case "filterBoruvka-nopre":
		cfg.Algorithm = kamsta.AlgFilterBoruvka
		cfg.Core.NoLocalPreprocessing = true
	case "MND-MST":
		cfg.Algorithm = kamsta.AlgMNDMST
	case "sparseMatrix":
		cfg.Algorithm = kamsta.AlgSparseMatrix
	default:
		panic("bench: unknown algorithm series " + name)
	}
	cfg.Core.BaseCaseCap = s.baseCap()
	return cfg
}

// seriesOf names the figure series a public algorithm runs as where the
// caller picks algorithms with -alg, in a file-backed run and in a
// verification sweep: the paper's two as their headline series, the
// baselines as published.
var seriesOf = map[kamsta.Algorithm]string{
	kamsta.AlgBoruvka: "boruvka", kamsta.AlgFilterBoruvka: "filterBoruvka",
	kamsta.AlgMNDMST: "MND-MST", kamsta.AlgSparseMatrix: "sparseMatrix",
}

// machinePool keeps one warm kamsta.Machine: consecutive measurements on
// the same shape (PEs, threads, cost model) reuse its parked world, and
// asking for a different shape closes it first. One slot, not one machine
// per shape, because a warm machine retains its grow-only arenas — ≈ 2.2 GB
// for 4 PEs after one 6 M-edge job — and fig5's four shapes together
// exhausted a 16 GB box. Every exhibit, the golden lane, a file run and a
// verification sweep owns a pool for its duration and closes it on exit.
// The pool carries the sweep's context: cancelling it (SIGINT in the
// commands) aborts the in-flight job at its next collective and stops the
// sweep. Of its Scale it reads the harness half: Timeout wraps every
// Compute, Transport/Workers/Metrics configure every pooled machine, Trace
// receives every job's spans.
type machinePool struct {
	ctx context.Context
	s   Scale
	key machineKey
	m   *kamsta.Machine
}

type machineKey struct {
	pes, threads int
	cost         comm.CostModel
}

func newMachinePool(ctx context.Context, s Scale) *machinePool {
	if ctx == nil {
		ctx = context.Background()
	}
	return &machinePool{ctx: ctx, s: s}
}

// benchFailure carries a measurement error out of the panic-style
// experiment bodies; RunExperiment's recover turns it back into an error.
type benchFailure struct{ err error }

// get returns the warm machine if it has cfg's shape, and otherwise
// replaces it with a new one of that shape.
func (mp *machinePool) get(cfg runCfg) (*kamsta.Machine, error) {
	key := machineKey{pes: cfg.PEs, threads: cfg.Threads, cost: cfg.Cost}
	if mp.m != nil && mp.key == key {
		return mp.m, nil
	}
	mp.Close()
	mc := cfg.MachineConfig
	mc.Metrics, mc.Transport, mc.Workers = mp.s.Metrics, mp.s.Transport, mp.s.Workers
	m, err := kamsta.NewMachine(mc)
	if err != nil {
		return nil, err
	}
	mp.key, mp.m = key, m
	return m, nil
}

// Close releases the warm machine's parked PE goroutines.
func (mp *machinePool) Close() {
	if mp.m != nil {
		mp.m.Close()
		mp.m = nil
	}
}

// compute runs one job on a pooled machine, applying the sweep's per-job
// timeout (Scale.Timeout) around the sweep context when one is set.
func (mp *machinePool) compute(m *kamsta.Machine, src kamsta.Source, opts ...kamsta.RunOption) (*kamsta.Report, error) {
	ctx := mp.ctx
	if mp.s.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, mp.s.Timeout)
		defer cancel()
	}
	return m.Compute(ctx, src, opts...)
}

// measure runs one configuration once: the modeled clock is deterministic
// (TestModeledClockDeterminism), so a repeat would report the same bits.
func (mp *machinePool) measure(spec gen.Spec, cfg runCfg) *kamsta.Report {
	return mp.measureSource(kamsta.FromSpec(spec), cfg)
}

// measureSource is measure for any input source (generated or file-backed).
func (mp *machinePool) measureSource(src kamsta.Source, cfg runCfg) *kamsta.Report {
	rep, err := mp.measureSourceErr(src, cfg)
	if err != nil {
		panic(benchFailure{err})
	}
	return rep
}

// measureSourceErr is the error-returning measurement core: one job on the
// pooled machine.
func (mp *machinePool) measureSourceErr(src kamsta.Source, cfg runCfg) (*kamsta.Report, error) {
	m, err := mp.get(cfg)
	if err != nil {
		return nil, err
	}
	return mp.compute(m, src, append(cfg.runOptions(), kamsta.WithTrace(mp.s.Trace))...)
}

// collectEdges materializes a spec in a small world and returns the full
// directed, globally sorted edge sequence (for writing exhibit files).
func collectEdges(spec gen.Spec, pes int) []graph.Edge {
	all, err := gen.Collect(context.Background(), comm.NewWorld(pes), comm.JobConfig{}, spec)
	if err != nil {
		panic(err)
	}
	return all
}

// table returns a tabwriter for aligned output.
func table(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// weakSpec builds the weak-scaling instance for family f at p PEs.
func weakSpec(f gen.Family, s Scale, p int) gen.Spec {
	n := s.VPerPE * uint64(p)
	m := s.EPerPE * uint64(p)
	return gen.Spec{Family: f, N: n, M: m, Seed: s.Seed}
}

// Fig3 reproduces the weak-scaling throughput experiment: six families ×
// {boruvka, filterBoruvka, MND-MST, sparseMatrix} × {1, 8} threads,
// throughput in (directed) input edges per modeled second.
func Fig3(ctx context.Context, w io.Writer, s Scale) {
	mp := newMachinePool(ctx, s)
	defer mp.Close()
	families := []gen.Family{gen.Grid2D, gen.RGG2D, gen.RGG3D, gen.GNM, gen.RHG, gen.RMAT}
	algs := []string{"boruvka", "filterBoruvka", "MND-MST", "sparseMatrix"}
	threads := []int{1, 8}
	fmt.Fprintf(w, "# Fig. 3 — weak scaling, %d vertices and %d undirected edges per PE\n", s.VPerPE, s.EPerPE)
	tw := table(w)
	fmt.Fprintln(tw, "family\talgorithm\tthreads\tp\tn\tm(dir)\tmodeled_s\twall_s\tedges_per_s")
	for _, f := range families {
		for _, alg := range algs {
			for _, t := range threads {
				for _, p := range s.Ps {
					spec := weakSpec(f, s, p)
					cfg := algConfig(alg, t, s)
					cfg.PEs = p
					rep := mp.measure(spec, cfg)
					fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\t%.4e\t%.3f\t%.4e\n",
						f, alg, t, p, rep.InputVertices, rep.InputEdges,
						rep.ModeledSeconds, rep.WallSeconds, rep.EdgesPerSecond)
				}
			}
		}
		tw.Flush()
	}
}

// Fig2 reproduces the two-level all-to-all ablation: accumulated component
// contraction time for one-level (direct) vs two-level (grid) exchanges on
// GNM weak scaling.
func Fig2(ctx context.Context, w io.Writer, s Scale) {
	mp := newMachinePool(ctx, s)
	defer mp.Close()
	fmt.Fprintf(w, "# Fig. 2 — one-level vs two-level all-to-all, contraction phase, GNM weak scaling\n")
	tw := table(w)
	fmt.Fprintln(tw, "p\tvariant\tcontract_modeled_s\ttotal_modeled_s")
	for _, p := range s.Ps {
		spec := weakSpec(gen.GNM, s, p)
		for _, variant := range []struct {
			name string
			a2a  alltoall.Strategy
		}{{"one-level", alltoall.Direct}, {"two-level", alltoall.Grid}} {
			cfg := algConfig("boruvka-nopre", 1, s)
			cfg.PEs = p
			cfg.Core.A2A = variant.a2a
			rep := mp.measure(spec, cfg)
			contract := rep.Phases[core.PhaseContract]
			fmt.Fprintf(tw, "%d\t%s\t%.4e\t%.4e\n", p, variant.name, contract.Modeled, rep.ModeledSeconds)
		}
	}
	tw.Flush()
}

// Fig4 reproduces the local-preprocessing ablation on the high-locality
// families with the denser per-PE setting, including the fastest
// preprocessing-enabled variant as baseline.
func Fig4(ctx context.Context, w io.Writer, s Scale) {
	mp := newMachinePool(ctx, s)
	defer mp.Close()
	families := []gen.Family{gen.Grid2D, gen.RGG2D, gen.RGG3D, gen.RHG}
	fmt.Fprintf(w, "# Fig. 4 — disabled local preprocessing, %d vertices and %d undirected edges per PE\n", s.VPerPE, s.DenseEPerPE)
	tw := table(w)
	fmt.Fprintln(tw, "family\talgorithm\tp\tmodeled_s\twall_s")
	series := []struct {
		name    string
		threads int
	}{
		{"boruvka-nopre", 1}, {"boruvka-nopre", 8},
		{"filterBoruvka-nopre", 1}, {"filterBoruvka-nopre", 8},
		{"boruvka", 8}, // = local-boruvka-8, the preprocessing-on baseline
	}
	for _, f := range families {
		for _, sr := range series {
			for _, p := range s.Ps {
				spec := gen.Spec{Family: f, N: s.VPerPE * uint64(p), M: s.DenseEPerPE * uint64(p), Seed: s.Seed}
				cfg := algConfig(sr.name, sr.threads, s)
				cfg.PEs = p
				rep := mp.measure(spec, cfg)
				label := sr.name
				if sr.name == "boruvka" {
					label = "local-boruvka"
				}
				fmt.Fprintf(tw, "%s\t%s-%d\t%d\t%.4e\t%.3f\n", f, label, sr.threads, p, rep.ModeledSeconds, rep.WallSeconds)
			}
		}
		tw.Flush()
	}
}

// Fig5 reproduces the strong-scaling experiment on the Table I stand-ins.
func Fig5(ctx context.Context, w io.Writer, s Scale) {
	mp := newMachinePool(ctx, s)
	defer mp.Close()
	algs := []string{"boruvka", "filterBoruvka", "MND-MST", "sparseMatrix"}
	threads := []int{1, 8}
	fmt.Fprintf(w, "# Fig. 5 — strong scaling on real-world stand-ins (scale 1/%d)\n", s.RealWorldScale)
	tw := table(w)
	fmt.Fprintln(tw, "graph\talgorithm\tthreads\tp\tmodeled_s\twall_s")
	for _, name := range gen.RealWorldNames() {
		spec, err := gen.RealWorldSpec(name, s.RealWorldScale, s.Seed)
		if err != nil {
			panic(err)
		}
		for _, alg := range algs {
			for _, t := range threads {
				for _, p := range s.Ps {
					cfg := algConfig(alg, t, s)
					cfg.PEs = p
					rep := mp.measure(spec, cfg)
					fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%.4e\t%.3f\n",
						name, alg, t, p, rep.ModeledSeconds, rep.WallSeconds)
				}
			}
		}
		tw.Flush()
	}
}

// Fig6 reproduces the normalized phase breakdown for 3D-RGG, GNM and RMAT
// across the b1/b8/f1/f8 variants.
func Fig6(ctx context.Context, w io.Writer, s Scale) {
	mp := newMachinePool(ctx, s)
	defer mp.Close()
	families := []gen.Family{gen.RGG3D, gen.GNM, gen.RMAT}
	variants := []struct {
		label   string
		alg     string
		threads int
	}{
		{"b1", "boruvka", 1}, {"b8", "boruvka", 8},
		{"f1", "filterBoruvka", 1}, {"f8", "filterBoruvka", 8},
	}
	phases := []string{
		core.PhasePreprocess, core.PhaseMinEdges, core.PhaseContract, core.PhaseLabels,
		core.PhaseRedistribute, core.PhaseBaseCase, core.PhaseFilter,
	}
	fmt.Fprintf(w, "# Fig. 6 — normalized running-time breakdown\n")
	tw := table(w)
	fmt.Fprintf(tw, "family\tp\tvariant\ttotal_s")
	for _, ph := range phases {
		fmt.Fprintf(tw, "\t%s", ph)
	}
	fmt.Fprintln(tw, "\tmisc")
	for _, f := range families {
		for _, p := range s.Ps {
			spec := weakSpec(f, s, p)
			for _, v := range variants {
				cfg := algConfig(v.alg, v.threads, s)
				cfg.PEs = p
				rep := mp.measure(spec, cfg)
				total := rep.ModeledSeconds
				fmt.Fprintf(tw, "%s\t%d\t%s\t%.4e", f, p, v.label, total)
				accounted := 0.0
				for _, ph := range phases {
					t := rep.Phases[ph].Modeled
					accounted += t
					fmt.Fprintf(tw, "\t%.3f", safeFrac(t, total))
				}
				fmt.Fprintf(tw, "\t%.3f\n", safeFrac(total-accounted, total))
			}
		}
		tw.Flush()
	}
}

func safeFrac(x, total float64) float64 {
	if total <= 0 {
		return 0
	}
	f := x / total
	if f < 0 {
		return 0
	}
	return f
}

// Table1 prints the real-world instance inventory with both the paper's
// original sizes and the stand-in sizes at the configured scale.
func Table1(ctx context.Context, w io.Writer, s Scale) {
	mp := newMachinePool(ctx, s)
	defer mp.Close()
	fmt.Fprintf(w, "# Table I — real-world instances and their stand-ins (scale 1/%d)\n", s.RealWorldScale)
	tw := table(w)
	fmt.Fprintln(tw, "graph\ttype\tpaper_n\tpaper_m(dir)\tstandin\tn\tm(dir)")
	for _, name := range gen.RealWorldNames() {
		info, err := gen.RealWorldInfo(name)
		if err != nil {
			panic(err)
		}
		spec, err := gen.RealWorldSpec(name, s.RealWorldScale, s.Seed)
		if err != nil {
			panic(err)
		}
		cfg := algConfig("boruvka", 1, s)
		cfg.PEs = 4
		rep := mp.measure(spec, cfg)
		fmt.Fprintf(tw, "%s\t%s\t%.3e\t%.3e\t%s\t%d\t%d\n",
			name, info.Type, float64(info.PaperN), float64(info.PaperM),
			spec.Family, rep.InputVertices, rep.InputEdges)
	}
	tw.Flush()
}

// SharedMemory reproduces the §VII-C comparison: the shared-memory baseline
// (our local MSF with t threads, standing in for MASTIFF) against the
// distributed algorithms at increasing PE counts on the same instance.
func SharedMemory(ctx context.Context, w io.Writer, s Scale) {
	mp := newMachinePool(ctx, s)
	defer mp.Close()
	fmt.Fprintf(w, "# §VII-C — shared-memory baseline vs distributed algorithms\n")
	specs := []struct {
		name string
		spec gen.Spec
	}{}
	for _, name := range []string{"twitter", "friendster", "US-road"} {
		spec, err := gen.RealWorldSpec(name, s.RealWorldScale, s.Seed)
		if err != nil {
			panic(err)
		}
		specs = append(specs, struct {
			name string
			spec gen.Spec
		}{name, spec})
	}
	tw := table(w)
	fmt.Fprintln(tw, "graph\tconfig\tmodeled_s\twall_s")
	for _, it := range specs {
		// Shared-memory baseline: one PE, many threads (node-local work
		// only; the modeled time has no communication terms).
		cfg := algConfig("boruvka", 8, s)
		cfg.PEs = 1
		rep := mp.measure(it.spec, cfg)
		fmt.Fprintf(tw, "%s\tshared-memory-8t\t%.4e\t%.3f\n", it.name, rep.ModeledSeconds, rep.WallSeconds)
		for _, p := range s.Ps {
			cfg := algConfig("boruvka", 8, s)
			cfg.PEs = p
			rep := mp.measure(it.spec, cfg)
			fmt.Fprintf(tw, "%s\tboruvka-8 p=%d\t%.4e\t%.3f\n", it.name, p, rep.ModeledSeconds, rep.WallSeconds)
		}
	}
	tw.Flush()
}

// FileBackedTable1 reproduces the Table I runs the way the paper's own
// pipeline works — graphs come from files, not from in-simulation
// generators: every stand-in is generated once, written to a cached binary
// kamsta file, and each measurement re-ingests that file with parallel
// per-PE byte-range reads before running the algorithm. load_s is the
// modeled time of ingestion + global sort (Report.InputModeledSeconds);
// modeled_s the algorithm itself.
func FileBackedTable1(ctx context.Context, w io.Writer, s Scale) {
	mp := newMachinePool(ctx, s)
	defer mp.Close()
	dir, err := os.MkdirTemp("", "kamsta-bench-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	fmt.Fprintf(w, "# Table I, file-backed — instances written once to binary files, re-ingested per run (scale 1/%d)\n", s.RealWorldScale)
	tw := table(w)
	fmt.Fprintln(tw, "graph\tfile_bytes\talgorithm\tp\tload_s\tmodeled_s\twall_s")
	for _, name := range gen.RealWorldNames() {
		spec, err := gen.RealWorldSpec(name, s.RealWorldScale, s.Seed)
		if err != nil {
			panic(err)
		}
		path := filepath.Join(dir, name+".kg")
		if err := graphio.WriteFile(path, graphio.FormatKamsta, collectEdges(spec, 4)); err != nil {
			panic(err)
		}
		st, err := os.Stat(path)
		if err != nil {
			panic(err)
		}
		src := kamsta.FromFile(path)
		for _, alg := range []string{"boruvka", "filterBoruvka"} {
			for _, p := range s.Ps {
				cfg := algConfig(alg, 1, s)
				cfg.PEs = p
				rep := mp.measureSource(src, cfg)
				fmt.Fprintf(tw, "%s\t%d\t%s\t%d\t%.4e\t%.4e\t%.3f\n",
					name, st.Size(), alg, p, rep.InputModeledSeconds, rep.ModeledSeconds, rep.WallSeconds)
			}
		}
		tw.Flush()
	}
}

// RunFile benchmarks the paper's algorithms on a user-supplied graph file
// across the configured PE counts (cmd/mstbench -input).
func RunFile(ctx context.Context, w io.Writer, path, format string, algs []kamsta.Algorithm, s Scale) error {
	mp := newMachinePool(ctx, s)
	defer mp.Close()
	src := kamsta.FromFileFormat(path, format)
	fmt.Fprintf(w, "# file-backed run — %s\n", path)
	tw := table(w)
	fmt.Fprintln(tw, "algorithm\tp\tn\tm(dir)\tload_s\tmodeled_s\twall_s\tedges_per_s")
	if len(algs) == 0 {
		algs = kamsta.DistributedAlgorithms()
	}
	// Per algorithm, keep the report at the largest PE count for the
	// per-phase breakdown printed after the main table.
	type phaseRep struct {
		alg kamsta.Algorithm
		p   int
		rep *kamsta.Report
	}
	var breakdown []phaseRep
	for _, alg := range algs {
		var last *kamsta.Report
		lastP := 0
		for _, p := range s.Ps {
			cfg := algConfig(seriesOf[alg], 1, s)
			cfg.PEs = p
			rep, err := mp.measureSourceErr(src, cfg)
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%.4e\t%.4e\t%.3f\t%.4e\n",
				alg, p, rep.InputVertices, rep.InputEdges,
				rep.InputModeledSeconds, rep.ModeledSeconds, rep.WallSeconds, rep.EdgesPerSecond)
			if p >= lastP {
				last, lastP = rep, p
			}
		}
		if last != nil && len(last.Phases) > 0 {
			breakdown = append(breakdown, phaseRep{alg, lastP, last})
		}
	}
	tw.Flush()
	for _, br := range breakdown {
		fmt.Fprintf(w, "\n# phase breakdown — %s, p=%d\n", br.alg, br.p)
		ptw := table(w)
		fmt.Fprintln(ptw, "phase\tmodeled_s\twall_s\tmsgs\tbytes\tcollectives")
		names := make([]string, 0, len(br.rep.Phases))
		for ph := range br.rep.Phases {
			names = append(names, ph)
		}
		sort.Strings(names)
		for _, ph := range names {
			pt := br.rep.Phases[ph]
			fmt.Fprintf(ptw, "%s\t%.4e\t%.3f\t%d\t%d\t%d\n",
				ph, pt.Modeled, pt.Wall.Seconds(), pt.Stats.Messages, pt.Stats.Bytes, pt.Stats.Collectives)
		}
		ptw.Flush()
	}
	return nil
}

// Experiment is one runnable figure/table reproduction. Cancelling ctx
// aborts the in-flight job at its next collective boundary; the resulting
// failure surfaces through RunExperiment.
type Experiment func(ctx context.Context, w io.Writer, s Scale)

// RunExperiment executes one named experiment, converting measurement
// failures — including cancellation of ctx — into an error instead of a
// panic trace.
func RunExperiment(ctx context.Context, id string, w io.Writer, s Scale) error {
	run, ok := Experiments()[id]
	if !ok {
		return fmt.Errorf("bench: unknown experiment %q (have %s)", id, strings.Join(ExperimentNames(), ", "))
	}
	return runCaptured(func() { run(ctx, w, s) })
}

// runCaptured converts a benchFailure panic back into the error it wraps;
// any other panic (a harness bug) propagates.
func runCaptured(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if bf, ok := r.(benchFailure); ok {
				err = bf.err
				return
			}
			panic(r)
		}
	}()
	f()
	return nil
}

// Experiments maps experiment ids to runners.
func Experiments() map[string]Experiment {
	return map[string]Experiment{
		"fig2":       Fig2,
		"fig3":       Fig3,
		"fig4":       Fig4,
		"fig5":       Fig5,
		"fig6":       Fig6,
		"table1":     Table1,
		"table1file": FileBackedTable1,
		"shared":     SharedMemory,
	}
}

// ExperimentNames lists experiment ids in order.
func ExperimentNames() []string {
	names := make([]string, 0)
	for k := range Experiments() {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Command mstbench regenerates the paper's tables and figures on the
// simulated machine. Each experiment prints the rows/series of the
// corresponding figure; EXPERIMENTS.md records the comparison with the
// paper's reported shapes.
//
// Usage:
//
//	mstbench -experiment fig3 -ps 4,8,16,32,64 -vppe 512 -eppe 8192
//	mstbench -experiment all
//	mstbench -input g.kg -ps 4,8,16                  # benchmark a graph file
//	mstbench -input g.kg -alg boruvka,filterBoruvka  # selected algorithms only
//
// The modeled columns are the exhibit; wall_s is printed for orientation
// only — wall-clock claims are benchmark/'s job (benchmark/README.md).
//
// Observability: -metrics - dumps the substrate and job metrics on exit,
// -trace trace.json records a Chrome-loadable span trace, and -pprof addr
// serves live profiles and /metrics over HTTP:
//
//	mstbench -metrics - -trace trace.json -input g.kg -ps 8
//
// Exit status: 0, 1 on a failed job or golden mismatch, 2 on a bad flag,
// 130 on ^C; -metrics/-trace are written in all but the 2.
//
// Distributed runs: -transport tcp leads a world whose remote ranks live in
// mstworker processes, and -golden verifies the pinned reference bits on
// whatever transport is selected (the multi-process smoke check):
//
//	mstworker -listen 127.0.0.1:9021 &
//	mstbench -golden -transport tcp -workers 127.0.0.1:9021
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"kamsta/internal/bench"
	"kamsta/internal/cliobs"
)

func main() {
	def := bench.DefaultScale()
	experiment := flag.String("experiment", "all",
		"experiment to run: "+strings.Join(bench.ExperimentNames(), ", ")+", or all")
	vppe := flag.Uint64("vppe", def.VPerPE, "weak scaling: vertices per PE")
	eppe := flag.Uint64("eppe", def.EPerPE, "weak scaling: undirected edges per PE")
	dense := flag.Uint64("dense-eppe", def.DenseEPerPE, "Fig. 4: denser edges per PE")
	rwScale := flag.Uint64("rw-scale", def.RealWorldScale, "real-world stand-in downscale divisor")
	seed := flag.Uint64("seed", def.Seed, "instance seed")
	reps := flag.Int("reps", def.Reps, "repetitions per measurement (min modeled time kept)")
	cap := flag.Int("basecap", 0, "base-case vertex threshold (0 = VPerPE/4)")
	golden := flag.Bool("golden", false,
		"run the pinned golden cases instead of an experiment and verify their modeled bits (the multi-process smoke check)")
	sweep := cliobs.RegisterSweep(def.Ps...)
	flag.Parse()

	cliobs.Run("mstbench", sweep.Flags, func(ctx context.Context) error {
		scale, algs, err := sweep.Scale()
		if err != nil {
			return err
		}
		scale.VPerPE, scale.EPerPE, scale.DenseEPerPE = *vppe, *eppe, *dense
		scale.RealWorldScale, scale.Seed, scale.Reps, scale.BaseCaseCap = *rwScale, *seed, *reps, *cap
		switch {
		case *golden:
			return bench.RunGolden(ctx, os.Stdout, scale)
		case sweep.Input != "":
			return bench.RunFile(ctx, os.Stdout, sweep.Input, sweep.Format, algs, scale)
		case *experiment == "all":
			for _, name := range bench.ExperimentNames() {
				if err := bench.RunExperiment(ctx, name, os.Stdout, scale); err != nil {
					return err
				}
				fmt.Println()
			}
			return nil
		}
		if _, ok := bench.Experiments()[*experiment]; !ok {
			return cliobs.Usagef("unknown experiment %q (have %s)",
				*experiment, strings.Join(bench.ExperimentNames(), ", "))
		}
		return bench.RunExperiment(ctx, *experiment, os.Stdout, scale)
	})
}

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
// Distributed runs: -transport tcp leads a world whose remote ranks live in
// mstworker processes, and -golden verifies the pinned reference bits on
// whatever transport is selected (the multi-process smoke check):
//
//	mstworker -listen 127.0.0.1:9021 &
//	mstbench -golden -transport tcp -workers 127.0.0.1:9021
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"kamsta"
	"kamsta/internal/bench"
	"kamsta/internal/cliobs"
)

func main() {
	def := bench.DefaultScale()
	experiment := flag.String("experiment", "all",
		"experiment to run: "+strings.Join(bench.ExperimentNames(), ", ")+", or all")
	ps := flag.String("ps", join(def.Ps), "comma-separated PE counts")
	vppe := flag.Uint64("vppe", def.VPerPE, "weak scaling: vertices per PE")
	eppe := flag.Uint64("eppe", def.EPerPE, "weak scaling: undirected edges per PE")
	dense := flag.Uint64("dense-eppe", def.DenseEPerPE, "Fig. 4: denser edges per PE")
	rwScale := flag.Uint64("rw-scale", def.RealWorldScale, "real-world stand-in downscale divisor")
	seed := flag.Uint64("seed", def.Seed, "instance seed")
	reps := flag.Int("reps", def.Reps, "repetitions per measurement (min modeled time kept)")
	cap := flag.Int("basecap", 0, "base-case vertex threshold (0 = VPerPE/4)")
	input := flag.String("input", "", "benchmark a graph file instead of a generated experiment")
	informat := flag.String("format", "auto", "input format: kamsta, edgelist, gr, metis, auto")
	algNames := flag.String("alg", "", "comma-separated algorithms for -input runs, from: "+
		kamsta.AlgorithmNames()+" (default: all distributed algorithms)")
	timeout := flag.Duration("timeout", 0,
		"per-job deadline: each measurement runs under context.WithTimeout (0 = none)")
	golden := flag.Bool("golden", false,
		"run the pinned golden cases instead of an experiment and verify their modeled bits (the multi-process smoke check)")
	obsFlags := cliobs.Register()
	tpFlags := cliobs.RegisterTransport()
	flag.Parse()

	algs, err := cliobs.ParseDistributedAlgs(*algNames)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mstbench: bad -alg: %v\n", err)
		os.Exit(2)
	}
	if err := obsFlags.Activate(); err != nil {
		fmt.Fprintf(os.Stderr, "mstbench: %v\n", err)
		os.Exit(2)
	}

	scale := bench.Scale{
		VPerPE:         *vppe,
		EPerPE:         *eppe,
		DenseEPerPE:    *dense,
		RealWorldScale: *rwScale,
		Seed:           *seed,
		Reps:           *reps,
		BaseCaseCap:    *cap,
		Timeout:        *timeout,
		Transport:      tpFlags.Transport,
		Workers:        tpFlags.Workers(),
		Metrics:        obsFlags.Registry,
		Trace:          obsFlags.Trace,
	}
	scale.Ps, err = cliobs.ParsePEs(*ps)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mstbench: bad -ps: %v\n", err)
		os.Exit(2)
	}
	// flush writes the -metrics/-trace outputs; every exit path that has
	// measured something calls it.
	flush := func() {
		if err := obsFlags.Flush(); err != nil {
			fmt.Fprintf(os.Stderr, "mstbench: %v\n", err)
			os.Exit(1)
		}
	}

	// SIGINT cancels ctx: the in-flight job unwinds at its next collective
	// boundary, the sweep stops, and the command exits with a one-line
	// message instead of a panic trace.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *golden {
		if err := bench.RunGolden(ctx, os.Stdout, scale); err != nil {
			fail(err)
		}
		flush()
		return
	}
	if *input != "" {
		if err := bench.RunFile(ctx, os.Stdout, *input, *informat, algs, scale); err != nil {
			fail(err)
		}
		flush()
		return
	}
	if *experiment == "all" {
		for _, name := range bench.ExperimentNames() {
			if err := bench.RunExperiment(ctx, name, os.Stdout, scale); err != nil {
				fail(err)
			}
			fmt.Println()
		}
		flush()
		return
	}
	if _, ok := bench.Experiments()[*experiment]; !ok {
		fmt.Fprintf(os.Stderr, "mstbench: unknown experiment %q (have %s)\n",
			*experiment, strings.Join(bench.ExperimentNames(), ", "))
		os.Exit(2)
	}
	if err := bench.RunExperiment(ctx, *experiment, os.Stdout, scale); err != nil {
		fail(err)
	}
	flush()
}

// fail prints one line and exits non-zero; an interrupt gets its own
// message so ^C doesn't read like a harness failure.
func fail(err error) {
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "mstbench: interrupted")
		os.Exit(130)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "mstbench: job exceeded -timeout")
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "mstbench: %v\n", err)
	os.Exit(1)
}

func join(xs []int) string {
	parts := make([]string, len(xs))
	for i, v := range xs {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, ",")
}

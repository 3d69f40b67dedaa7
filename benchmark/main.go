// Command benchmark is the repository's benchmark: four workloads, each a
// closed loop of checked jobs measured from outside the program.
//
//	benchmark -workload gnm-boruvka -seed 42 -seconds 20 -trace 0
//	benchmark -seed 42 -reps 10 -trace 1 -json out.json     (every workload)
//	benchmark compare a.json b.json
//
// One workload run prints every metric by name with its unit and, as its
// last line, one JSON object {correct, attempted, failed, metrics}: the
// end-to-end metrics with -trace 0, the per-layer metrics with -trace 1.
// Without -workload every workload runs in a child process of its own,
// -reps times with seeds seed, seed+1, ..., and -json keeps all runs with
// a record of the box. See README.md.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	var cfg runConfig
	var trace, reps int
	var jsonPath string
	flag.StringVar(&cfg.workload, "workload", "", "run this one workload in this process (default: all, one child process each)")
	flag.Uint64Var(&cfg.seed, "seed", 42, "workload seed; instance seeds derive from it")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured window per run, seconds")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&cfg.scale, "scale", "full", "full, or smoke for the harness self-tests")
	flag.StringVar(&cfg.layersBin, "layers", "", "path of the built benchmark/layers program (needed by -trace 1)")
	flag.StringVar(&cfg.outDir, "outdir", ".", "directory for trace files")
	flag.IntVar(&reps, "reps", 1, "all workloads: untraced runs per workload, with seeds seed, seed+1, ...")
	flag.StringVar(&jsonPath, "json", "", "all workloads: write the result file here")
	flag.Parse()
	if flag.Arg(0) == "compare" {
		os.Exit(compareMain(flag.Args()[1:], os.Stdout))
	}
	if flag.NArg() > 0 || trace < 0 || trace > 1 || cfg.seconds <= 0 || reps < 1 {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-reps n] [-json file] | benchmark compare a.json b.json")
		os.Exit(2)
	}
	cfg.trace = trace == 1

	if cfg.workload == "" {
		os.Exit(runAll(cfg, reps, jsonPath))
	}
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	os.Exit(res.exitCode())
}

// Command mstgen generates one of the paper's graph families and writes it
// to a file (or stdout) in any of the supported interchange formats, or
// prints instance statistics. Expensive instances are generated once,
// cached on disk, and fed back to mstbench/mstverify via -input.
//
// Usage:
//
//	mstgen -family gnm -n 1024 -m 8192 -seed 7 -stats
//	mstgen -family rgg2d -n 4096 -m 32768 > edges.txt
//	mstgen -family rgg2d -n 65536 -m 1048576 -o rgg.kg          # binary
//	mstgen -realworld US-road -rw-scale 16384 -format gr -o road.gr
//
// Formats: kamsta (binary, .kg), edgelist ("u v w" text), gr (9th-DIMACS),
// metis (adjacency). -format auto picks by the -o extension.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"kamsta/internal/cliobs"
	"kamsta/internal/comm"
	"kamsta/internal/gen"
	"kamsta/internal/graph"
	"kamsta/internal/graphio"
)

func main() {
	family := flag.String("family", "gnm", "graph family: "+gen.FamilyNames())
	n := flag.Uint64("n", 1024, "target vertex count")
	m := flag.Uint64("m", 8192, "target undirected edge count")
	seed := flag.Uint64("seed", 1, "instance seed")
	pes := flag.Int("p", 4, "PEs used for generation (result is p-independent)")
	realworld := flag.String("realworld", "", "generate a Table I stand-in instead (e.g. twitter, US-road)")
	rwScale := flag.Uint64("rw-scale", 1<<14, "real-world downscale divisor")
	stats := flag.Bool("stats", false, "print instance statistics instead of edges")
	out := flag.String("o", "", "output file (default: write text to stdout)")
	format := flag.String("format", "auto", "output format: kamsta, edgelist, gr, metis, auto (by -o extension)")
	obsFlags := cliobs.Register()
	flag.Parse()

	cliobs.Run("mstgen", obsFlags, func(ctx context.Context) error {
		if *pes < 1 || *pes > 1<<12 {
			return cliobs.Usagef("bad -p %d: need between 1 and %d PEs", *pes, 1<<12)
		}
		spec := gen.Spec{N: *n, M: *m, Seed: *seed}
		var err error
		if *realworld != "" {
			spec, err = gen.RealWorldSpec(*realworld, *rwScale, *seed)
		} else {
			spec.Family, err = gen.ParseFamily(*family)
		}
		if err != nil {
			return cliobs.Usagef("%v", err)
		}
		fm, err := graphio.ParseFormat(*format)
		if err != nil {
			return cliobs.Usagef("%v", err)
		}

		// An interrupt cancels generation at the next collective boundary.
		w := comm.NewWorld(*pes, comm.WithMetrics(obsFlags.Registry))
		all, err := gen.Collect(ctx, w, comm.JobConfig{Trace: obsFlags.Trace}, spec)
		if err != nil {
			return fmt.Errorf("generating: %w", err)
		}

		switch {
		case *stats:
			printStats(spec, all)
			return nil
		case *out != "":
			if err := graphio.WriteFile(*out, fm, all); err != nil {
				return fmt.Errorf("writing %s: %w", *out, err)
			}
			return nil
		}
		if fm == graphio.FormatAuto {
			fm = graphio.FormatEdgeList
		}
		bw := bufio.NewWriterSize(os.Stdout, 1<<20)
		if err := graphio.Write(bw, fm, all); err != nil {
			return fmt.Errorf("writing stdout: %w", err)
		}
		if err := bw.Flush(); err != nil {
			return fmt.Errorf("writing stdout: %w", err)
		}
		return nil
	})
}

func printStats(spec gen.Spec, all []graph.Edge) {
	deg := map[graph.VID]int{}
	local := 0
	for _, e := range all {
		deg[e.U]++
		d := int64(e.U) - int64(e.V)
		if d < 0 {
			d = -d
		}
		if spec.N > 0 && d <= int64(spec.N)/16 {
			local++
		}
	}
	var ds []int
	for _, d := range deg {
		ds = append(ds, d)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(ds)))
	maxDeg, med := 0, 0
	if len(ds) > 0 {
		maxDeg, med = ds[0], ds[len(ds)/2]
	}
	fmt.Printf("instance      %s\n", spec.Label())
	fmt.Printf("vertices      %d\n", len(deg))
	fmt.Printf("edges (dir)   %d\n", len(all))
	fmt.Printf("avg degree    %.2f\n", float64(len(all))/float64(max(1, len(deg))))
	fmt.Printf("max degree    %d\n", maxDeg)
	fmt.Printf("median degree %d\n", med)
	fmt.Printf("near edges    %.1f%% (|u-v| <= n/16)\n", 100*float64(local)/float64(max(1, len(all))))
}

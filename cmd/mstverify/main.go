// Command mstverify cross-checks every distributed algorithm against
// sequential Kruskal, either on a sweep of generated instances or on a
// graph file — the repository's end-to-end smoke test in executable form.
// One persistent Machine per PE count is reused across the whole sweep.
//
// Usage:
//
//	mstverify                  # default generated sweep
//	mstverify -n 2000 -m 12000 -ps 2,4,8 -seeds 5
//	mstverify -input g.kg -ps 1,4,8   # file-backed cross-check
//	mstverify -alg boruvka,mndmst     # restrict the checked algorithms
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"kamsta"
	"kamsta/internal/cliobs"
)

func main() {
	n := flag.Uint64("n", 600, "vertices per instance")
	m := flag.Uint64("m", 3000, "undirected edges per instance")
	ps := flag.String("ps", "1,3,4,8", "PE counts to verify")
	seeds := flag.Uint64("seeds", 3, "number of seeds per configuration")
	threads := flag.Int("threads", 2, "threads per PE")
	input := flag.String("input", "", "verify a graph file instead of the generated sweep")
	format := flag.String("format", "auto", "input format: kamsta, edgelist, gr, metis, auto")
	algNames := flag.String("alg", "", "comma-separated algorithms to check, from: "+
		kamsta.AlgorithmNames()+" (default: all distributed algorithms)")
	timeout := flag.Duration("timeout", 0,
		"per-job deadline: each check runs under context.WithTimeout (0 = none)")
	obsFlags := cliobs.Register()
	tpFlags := cliobs.RegisterTransport()
	flag.Parse()

	peList, err := cliobs.ParsePEs(*ps)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mstverify: %v\n", err)
		os.Exit(2)
	}
	algs, err := cliobs.ParseDistributedAlgs(*algNames)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mstverify: bad -alg: %v\n", err)
		os.Exit(2)
	}
	if len(algs) == 0 {
		algs = kamsta.DistributedAlgorithms()
	}
	if err := obsFlags.Activate(); err != nil {
		fmt.Fprintf(os.Stderr, "mstverify: %v\n", err)
		os.Exit(2)
	}
	// SIGINT cancels the shared ctx: the in-flight job unwinds at its next
	// collective boundary and the sweep stops with a one-line message.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	v, err := newVerifier(ctx, peList, *threads, *timeout, obsFlags, tpFlags)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mstverify: %v\n", err)
		os.Exit(2)
	}
	defer v.Close()
	var failures int
	if *input != "" {
		failures = v.runFile(*input, *format, algs)
	} else {
		failures = v.run(*n, *m, *seeds, algs)
	}
	if err := obsFlags.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "mstverify: %v\n", err)
		os.Exit(1)
	}
	if failures > 0 {
		os.Exit(1)
	}
}

// checkInterrupt turns a context-cancellation error into a clean exit; any
// other error is left for the caller's FAIL accounting.
func checkInterrupt(err error) {
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "mstverify: interrupted")
		os.Exit(130)
	}
}

// verifier holds one persistent Machine per PE count, reused for every
// (family, seed, algorithm) data point of the sweep.
type verifier struct {
	ctx      context.Context
	peList   []int
	machines map[int]*kamsta.Machine
	trace    *kamsta.Trace
	timeout  time.Duration
}

func newVerifier(ctx context.Context, peList []int, threads int, timeout time.Duration, obsFlags *cliobs.Flags, tpFlags *cliobs.TransportFlags) (*verifier, error) {
	v := &verifier{
		ctx:      ctx,
		peList:   peList,
		machines: make(map[int]*kamsta.Machine),
		trace:    obsFlags.Trace,
		timeout:  timeout,
	}
	for _, p := range peList {
		if v.machines[p] == nil {
			m, err := kamsta.NewMachine(kamsta.MachineConfig{
				PEs: p, Threads: threads, Metrics: obsFlags.Registry,
				Transport: tpFlags.Transport, Workers: tpFlags.Workers(),
			})
			if err != nil {
				v.Close()
				return nil, err
			}
			v.machines[p] = m
		}
	}
	return v, nil
}

// opts assembles per-job options, appending the trace sink when active.
func (v *verifier) opts(ro ...kamsta.RunOption) []kamsta.RunOption {
	if v.trace != nil {
		ro = append(ro, kamsta.WithTrace(v.trace))
	}
	return ro
}

// compute runs one job, wrapping it in the -timeout deadline when set (the
// job unwinds at its next collective boundary and reports
// context.DeadlineExceeded as a FAIL, not a hang).
func (v *verifier) compute(m *kamsta.Machine, src kamsta.Source, ro ...kamsta.RunOption) (*kamsta.Report, error) {
	ctx := v.ctx
	if v.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, v.timeout)
		defer cancel()
	}
	return m.Compute(ctx, src, ro...)
}

func (v *verifier) Close() {
	for _, m := range v.machines {
		m.Close()
	}
}

// oracle computes the sequential Kruskal reference on the first machine.
func (v *verifier) oracle(src kamsta.Source) (*kamsta.Report, error) {
	return v.compute(v.machines[v.peList[0]], src,
		v.opts(kamsta.WithAlgorithm(kamsta.AlgKruskal))...)
}

// runFile cross-checks the selected algorithms against Kruskal on a
// file-backed instance, loaded in parallel at each PE count. Returns the
// failure count (so main can still flush -metrics/-trace before exiting
// non-zero).
func (v *verifier) runFile(path, format string, algs []kamsta.Algorithm) int {
	src := kamsta.FromFileFormat(path, format)
	want, err := v.oracle(src)
	if err != nil {
		checkInterrupt(err)
		fmt.Fprintf(os.Stderr, "mstverify: oracle failed on %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Printf("oracle %s: vertices=%d edges(dir)=%d weight=%d msf_edges=%d\n",
		path, want.InputVertices, want.InputEdges, want.TotalWeight, want.NumEdges)
	failures, checks := 0, 0
	for _, alg := range algs {
		for _, p := range v.peList {
			got, err := v.compute(v.machines[p], src, v.opts(kamsta.WithAlgorithm(alg))...)
			checks++
			if err != nil {
				checkInterrupt(err)
				fmt.Printf("FAIL %-14s p=%-3d: %v\n", alg, p, err)
				failures++
				continue
			}
			if got.TotalWeight != want.TotalWeight || got.NumEdges != want.NumEdges {
				fmt.Printf("FAIL %-14s p=%-3d: weight %d/%d want %d/%d\n",
					alg, p, got.TotalWeight, got.NumEdges, want.TotalWeight, want.NumEdges)
				failures++
				continue
			}
			fmt.Printf("ok   %-14s p=%-3d weight=%d edges=%d\n", alg, p, got.TotalWeight, got.NumEdges)
		}
	}
	fmt.Printf("\n%d checks, %d failures\n", checks, failures)
	return failures
}

func (v *verifier) run(n, m, seeds uint64, algs []kamsta.Algorithm) int {
	fams := []struct {
		name string
		spec func(seed uint64) kamsta.GraphSpec
	}{
		{"2D-GRID", func(s uint64) kamsta.GraphSpec { return kamsta.GraphSpec{Family: kamsta.Grid2D, N: n, Seed: s} }},
		{"2D-RGG", func(s uint64) kamsta.GraphSpec { return kamsta.GraphSpec{Family: kamsta.RGG2D, N: n, M: m, Seed: s} }},
		{"3D-RGG", func(s uint64) kamsta.GraphSpec { return kamsta.GraphSpec{Family: kamsta.RGG3D, N: n, M: m, Seed: s} }},
		{"RHG", func(s uint64) kamsta.GraphSpec { return kamsta.GraphSpec{Family: kamsta.RHG, N: n, M: m, Seed: s} }},
		{"GNM", func(s uint64) kamsta.GraphSpec { return kamsta.GraphSpec{Family: kamsta.GNM, N: n, M: m, Seed: s} }},
		{"RMAT", func(s uint64) kamsta.GraphSpec { return kamsta.GraphSpec{Family: kamsta.RMAT, N: n, M: m, Seed: s} }},
	}
	failures := 0
	checks := 0
	for _, fam := range fams {
		for seed := uint64(1); seed <= seeds; seed++ {
			spec := fam.spec(seed)
			want, err := v.oracle(kamsta.FromSpec(spec))
			if err != nil {
				checkInterrupt(err)
				fmt.Fprintf(os.Stderr, "mstverify: oracle failed on %s: %v\n", fam.name, err)
				os.Exit(1)
			}
			for _, alg := range algs {
				for _, p := range v.peList {
					got, err := v.compute(v.machines[p], kamsta.FromSpec(spec),
						v.opts(kamsta.WithAlgorithm(alg))...)
					checks++
					if err != nil {
						checkInterrupt(err)
						fmt.Printf("FAIL %-8s %-14s p=%-3d seed=%d: %v\n", fam.name, alg, p, seed, err)
						failures++
						continue
					}
					if got.TotalWeight != want.TotalWeight || got.NumEdges != want.NumEdges {
						fmt.Printf("FAIL %-8s %-14s p=%-3d seed=%d: weight %d/%d want %d/%d\n",
							fam.name, alg, p, seed, got.TotalWeight, got.NumEdges, want.TotalWeight, want.NumEdges)
						failures++
					}
				}
			}
			fmt.Printf("ok   %-8s seed=%d weight=%d edges=%d\n", fam.name, seed, want.TotalWeight, want.NumEdges)
		}
	}
	fmt.Printf("\n%d checks, %d failures\n", checks, failures)
	return failures
}

package bench

import (
	"context"
	"fmt"
	"io"

	"kamsta"
)

// instance is one input of a verification sweep and, once the oracle has
// run, the sequential Kruskal report every distributed result must match.
type instance struct {
	label string
	src   kamsta.Source
	want  *kamsta.Report
}

// Verify cross-checks algs (nil = every distributed algorithm) against
// sequential Kruskal on the generated sweep — the six graph families at n
// vertices and m undirected edges, seeds 1..seeds — at every PE count of
// s.Ps with the given threads per PE (cmd/mstverify). It prints one line
// per (PE count, instance) and a closing "N checks, F failures". A failed
// check is counted and the sweep goes on; the error is nil only when every
// check passed.
func Verify(ctx context.Context, w io.Writer, s Scale, threads int, algs []kamsta.Algorithm, n, m, seeds uint64) error {
	var insts []instance
	for _, f := range []kamsta.GraphSpec{
		{Family: kamsta.Grid2D}, {Family: kamsta.RGG2D, M: m}, {Family: kamsta.RGG3D, M: m},
		{Family: kamsta.RHG, M: m}, {Family: kamsta.GNM, M: m}, {Family: kamsta.RMAT, M: m},
	} {
		for seed := uint64(1); seed <= seeds; seed++ {
			f.N, f.Seed = n, seed
			insts = append(insts, instance{label: fmt.Sprintf("%-8s seed=%d", f.Family, seed), src: kamsta.FromSpec(f)})
		}
	}
	return verify(ctx, w, s, threads, algs, insts)
}

// VerifyFile is Verify on one graph file, ingested in parallel at each PE
// count (cmd/mstverify -input).
func VerifyFile(ctx context.Context, w io.Writer, s Scale, threads int, algs []kamsta.Algorithm, path, format string) error {
	return verify(ctx, w, s, threads, algs, []instance{{label: path, src: kamsta.FromFileFormat(path, format)}})
}

func verify(ctx context.Context, w io.Writer, s Scale, threads int, algs []kamsta.Algorithm, insts []instance) error {
	mp := newMachinePool(ctx, s)
	defer mp.Close()
	if len(algs) == 0 {
		algs = kamsta.DistributedAlgorithms()
	}
	if err := mp.oracle(w, threads, insts); err != nil {
		return err
	}
	checks, failures, err := mp.crossCheck(w, threads, algs, insts)
	fmt.Fprintf(w, "\n%d checks, %d failures\n", checks, failures)
	if err == nil && failures > 0 {
		err = fmt.Errorf("%d of %d checks failed", failures, checks)
	}
	return err
}

// oracle fills in every instance's Kruskal report. The reference is
// sequential, so any machine will do: it runs on the sweep's first shape,
// which crossCheck then finds warm.
func (mp *machinePool) oracle(w io.Writer, threads int, insts []instance) error {
	cfg := runCfg{MachineConfig: kamsta.MachineConfig{PEs: mp.s.Ps[0], Threads: threads}, Algorithm: kamsta.AlgKruskal}
	for i := range insts {
		in := &insts[i]
		rep, err := mp.measureSourceErr(in.src, cfg, 1)
		if err != nil {
			return fmt.Errorf("oracle failed on %s: %w", in.label, err)
		}
		in.want = rep
		fmt.Fprintf(w, "oracle %s: vertices=%d edges(dir)=%d weight=%d msf_edges=%d\n",
			in.label, rep.InputVertices, rep.InputEdges, rep.TotalWeight, rep.NumEdges)
	}
	return nil
}

// crossCheck runs every algorithm on every instance at every PE count, in
// the configuration its figure series runs (algConfig), and compares MSF
// weight and size with the instance's oracle report. The PE count is the
// outermost loop, so the pool's one warm machine is rebuilt once per PE
// count, not once per check. A job that fails (a contained fault, -timeout)
// is a failed check; only cancellation of the sweep's context stops it.
func (mp *machinePool) crossCheck(w io.Writer, threads int, algs []kamsta.Algorithm, insts []instance) (checks, failures int, err error) {
	for _, p := range mp.s.Ps {
		for _, in := range insts {
			failed := 0
			for _, alg := range algs {
				cfg := algConfig(seriesOf[alg], threads, mp.s)
				cfg.PEs = p
				got, err := mp.measureSourceErr(in.src, cfg, 1)
				if cerr := mp.ctx.Err(); cerr != nil {
					return checks, failures, cerr
				}
				checks++
				if err != nil {
					fmt.Fprintf(w, "FAIL p=%-3d %-14s %s: %v\n", p, alg, in.label, err)
					failed++
				} else if got.TotalWeight != in.want.TotalWeight || got.NumEdges != in.want.NumEdges {
					fmt.Fprintf(w, "FAIL p=%-3d %-14s %s: weight %d/%d want %d/%d\n", p, alg, in.label,
						got.TotalWeight, got.NumEdges, in.want.TotalWeight, in.want.NumEdges)
					failed++
				}
			}
			if failed == 0 {
				fmt.Fprintf(w, "ok   p=%-3d %s weight=%d edges=%d\n", p, in.label, in.want.TotalWeight, in.want.NumEdges)
			}
			failures += failed
		}
	}
	return checks, failures, nil
}

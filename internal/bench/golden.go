package bench

import (
	"context"
	"fmt"
	"io"
	"math"

	"kamsta"
)

// GoldenCase pins one reference computation: the modeled clock bits, MSF
// weight and traffic stats captured on the original in-process substrate.
// The table duplicates the repo's golden tests so the same bits gate the
// multi-process smoke lane (mstbench -golden -transport tcp -workers ...):
// every transport backend must reproduce them verbatim — the wire is
// allowed to change wall time only.
type GoldenCase struct {
	Name        string
	Spec        kamsta.GraphSpec
	Alg         kamsta.Algorithm
	PEs         int
	ModeledBits uint64
	Weight      uint64
	MSFEdges    int
}

// GoldenCases lists the pinned reference computations.
func GoldenCases() []GoldenCase {
	return []GoldenCase{
		{
			Name:        "gnm-boruvka",
			Spec:        kamsta.GraphSpec{Family: kamsta.GNM, N: 1 << 10, M: 1 << 13, Seed: 42},
			Alg:         kamsta.AlgBoruvka,
			PEs:         8,
			ModeledBits: 0x3f453980b2cb7769,
			Weight:      19837,
			MSFEdges:    1023,
		},
		{
			Name:        "rgg2d-filter",
			Spec:        kamsta.GraphSpec{Family: kamsta.RGG2D, N: 1 << 10, M: 1 << 13, Seed: 7},
			Alg:         kamsta.AlgFilterBoruvka,
			PEs:         8,
			ModeledBits: 0x3f68ca7d4d6ed9eb,
			Weight:      22137,
			MSFEdges:    1023,
		},
	}
}

// RunGolden computes every golden case on the Scale's transport and checks
// the bits, printing one PASS/FAIL line per case. A mismatch or a failed
// job returns an error after the remaining cases have still been tried.
func RunGolden(ctx context.Context, w io.Writer, s Scale) error {
	mp := newMachinePool(ctx, s)
	defer mp.Close()
	var firstErr error
	for _, gc := range GoldenCases() {
		cfg := runCfg{MachineConfig: kamsta.MachineConfig{PEs: gc.PEs}, Algorithm: gc.Alg}
		err := runGoldenCase(mp, gc, cfg)
		if err == nil {
			fmt.Fprintf(w, "PASS %-14s modeled bits %#x, weight %d\n", gc.Name, gc.ModeledBits, gc.Weight)
			continue
		}
		fmt.Fprintf(w, "FAIL %-14s %v\n", gc.Name, err)
		if firstErr == nil {
			firstErr = fmt.Errorf("golden case %s: %w", gc.Name, err)
		}
	}
	return firstErr
}

func runGoldenCase(mp *machinePool, gc GoldenCase, cfg runCfg) error {
	m, err := mp.get(cfg)
	if err != nil {
		return err
	}
	rep, err := mp.compute(m, kamsta.FromSpec(gc.Spec), cfg.runOptions()...)
	if err != nil {
		return err
	}
	if got := math.Float64bits(rep.ModeledSeconds); got != gc.ModeledBits {
		return fmt.Errorf("modeled %v (bits %#x), want bits %#x (%v)",
			rep.ModeledSeconds, got, gc.ModeledBits, math.Float64frombits(gc.ModeledBits))
	}
	if rep.TotalWeight != gc.Weight || rep.NumEdges != gc.MSFEdges {
		return fmt.Errorf("MSF weight/edges %d/%d, want %d/%d", rep.TotalWeight, rep.NumEdges, gc.Weight, gc.MSFEdges)
	}
	return nil
}

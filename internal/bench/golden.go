package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"

	"kamsta"
)

// GoldenCase pins one reference computation: the modeled clock bits, MSF
// weight and traffic stats captured on the original in-process mutex+cond
// substrate. The modeled clock is a deterministic function of the
// algorithm's communication structure and the cost model, so it must not
// move when the substrate's wall-clock implementation is reworked. This is
// the one table: the root package's TestModeledTimeGolden iterates it, and
// so does the multi-process smoke lane (mstbench -golden -transport tcp
// -workers ...) — every transport backend must reproduce it verbatim; the
// wire is allowed to change wall time only.
type GoldenCase struct {
	Name        string
	Spec        kamsta.GraphSpec
	Alg         kamsta.Algorithm
	PEs         int
	ModeledBits uint64
	Weight      uint64
	MSFEdges    int
	// Traffic totals of the job (Report.Stats).
	Msgs, Bytes, Collectives int64
}

// GoldenCases lists the pinned reference computations.
func GoldenCases() []GoldenCase {
	return []GoldenCase{
		{
			Name:        "gnm-boruvka",
			Spec:        kamsta.GraphSpec{Family: kamsta.GNM, N: 1 << 10, M: 1 << 13, Seed: 42},
			Alg:         kamsta.AlgBoruvka,
			PEs:         8,
			ModeledBits: 0x3f477e5d0e5f2490, // 0.0007169680000000001 s
			Weight:      20394,
			MSFEdges:    1023,
			Msgs:        336,
			Bytes:       1639168,
			Collectives: 96,
		},
		{
			Name:        "rgg2d-filter",
			Spec:        kamsta.GraphSpec{Family: kamsta.RGG2D, N: 1 << 10, M: 1 << 13, Seed: 7},
			Alg:         kamsta.AlgFilterBoruvka,
			PEs:         8,
			ModeledBits: 0x3f5d6c924f786342, // 0.0017959050000000009 s
			Weight:      22137,
			MSFEdges:    1023,
			Msgs:        1224,
			Bytes:       1718504,
			Collectives: 352,
		},
	}
}

// RunGolden computes every golden case on the Scale's transport and checks
// bits, MSF and traffic, printing one PASS/FAIL line per case. A mismatch
// or a failed job returns an error after the remaining cases have still
// been tried.
func RunGolden(ctx context.Context, w io.Writer, s Scale) error {
	mp := newMachinePool(ctx, s)
	defer mp.Close()
	var firstErr error
	for _, gc := range GoldenCases() {
		cfg := runCfg{MachineConfig: kamsta.MachineConfig{PEs: gc.PEs}, Algorithm: gc.Alg}
		rep, err := mp.measureSourceErr(kamsta.FromSpec(gc.Spec), cfg)
		if err == nil {
			err = gc.Check(rep)
		}
		if err == nil {
			fmt.Fprintf(w, "PASS %-14s modeled bits %#x, weight %d, msgs/bytes/collectives %d/%d/%d\n",
				gc.Name, gc.ModeledBits, gc.Weight, gc.Msgs, gc.Bytes, gc.Collectives)
			continue
		}
		fmt.Fprintf(w, "FAIL %-14s %v\n", gc.Name, err)
		if firstErr == nil {
			firstErr = fmt.Errorf("golden case %s: %w", gc.Name, err)
		}
	}
	return firstErr
}

// Check reports every way rep departs from the pinned case: clock bits, MSF
// weight and size, traffic totals. Nil means it reproduces the case.
func (gc GoldenCase) Check(rep *kamsta.Report) error {
	var errs []error
	if got := math.Float64bits(rep.ModeledSeconds); got != gc.ModeledBits {
		errs = append(errs, fmt.Errorf("modeled %v (bits %#x), want bits %#x (%v)",
			rep.ModeledSeconds, got, gc.ModeledBits, math.Float64frombits(gc.ModeledBits)))
	}
	if rep.TotalWeight != gc.Weight || rep.NumEdges != gc.MSFEdges {
		errs = append(errs, fmt.Errorf("MSF weight/edges %d/%d, want %d/%d",
			rep.TotalWeight, rep.NumEdges, gc.Weight, gc.MSFEdges))
	}
	if st := rep.Stats; st.Messages != gc.Msgs || st.Bytes != gc.Bytes || st.Collectives != gc.Collectives {
		errs = append(errs, fmt.Errorf("msgs/bytes/collectives %d/%d/%d, want %d/%d/%d",
			st.Messages, st.Bytes, st.Collectives, gc.Msgs, gc.Bytes, gc.Collectives))
	}
	return errors.Join(errs...)
}

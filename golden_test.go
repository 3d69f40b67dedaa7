package kamsta_test

import (
	"context"
	"testing"

	"kamsta"
	"kamsta/internal/bench"
)

// TestModeledTimeGolden pins the α-β accounting of the communication
// substrate to the bit, and the job's traffic totals with it: any drift
// means a change moved the machine model, not just its speed. The reference
// values live in bench.GoldenCases, the table mstbench -golden verifies on
// every transport.
func TestModeledTimeGolden(t *testing.T) {
	machines := sharedMachines(t)
	for _, gc := range bench.GoldenCases() {
		t.Run(gc.Name, func(t *testing.T) {
			rep, err := machines(gc.PEs).Compute(context.Background(), kamsta.FromSpec(gc.Spec), kamsta.WithAlgorithm(gc.Alg))
			if err != nil {
				t.Fatal(err)
			}
			if err := gc.Check(rep); err != nil {
				t.Error(err)
			}
		})
	}
}

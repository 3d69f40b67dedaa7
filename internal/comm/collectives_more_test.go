package comm

import (
	"fmt"
	"testing"
)

// TestExScanNonCommutative pins the rank ordering of the scan: string
// concatenation is associative but not commutative, so any reordering of
// contributions would corrupt the result.
func TestExScanNonCommutative(t *testing.T) {
	w := NewWorld(5)
	w.Run(func(c *Comm) {
		got := ExScan(c, fmt.Sprintf("%d.", c.Rank()), "", func(a, b string) string { return a + b })
		want := ""
		for i := 0; i < c.Rank(); i++ {
			want += fmt.Sprintf("%d.", i)
		}
		if got != want {
			t.Errorf("rank %d: ExScan=%q want %q", c.Rank(), got, want)
		}
	})
}

// TestAllreduceVecOddWorld exercises the fold/unfold path for non-power-of-
// two worlds specifically (extra ranks fold into the cube and read back).
func TestAllreduceVecOddWorld(t *testing.T) {
	for _, p := range []int{3, 5, 6, 9, 11} {
		w := NewWorld(p)
		w.Run(func(c *Comm) {
			xs := []int{c.Rank() + 1, 2 * (c.Rank() + 1)}
			got := AllreduceVec(c, nil, xs, func(a, b int) int { return a + b })
			sum := p * (p + 1) / 2
			if got[0] != sum || got[1] != 2*sum {
				t.Errorf("p=%d rank=%d: got %v want [%d %d]", p, c.Rank(), got, sum, 2*sum)
			}
		})
	}
}

// TestClockMonotone ensures no collective ever rewinds a PE's clock.
func TestClockMonotone(t *testing.T) {
	w := NewWorld(4)
	w.Run(func(c *Comm) {
		last := c.Clock()
		step := func(name string) {
			if c.Clock() < last {
				t.Errorf("clock went backwards after %s", name)
			}
			last = c.Clock()
		}
		Barrier(c)
		step("barrier")
		Allgather(c, c.Rank())
		step("allgather")
		Alltoall(c, []int(nil), make([]int32, 5))
		step("alltoall")
		AllreduceVec(c, nil, []int{1, 2}, func(a, b int) int { return a + b })
		step("allreducevec")
		ExScan(c, 1, 0, func(a, b int) int { return a + b })
		step("exscan")
	})
}

// TestResetLocalMetricsInsidePhasePanics documents the guard.
func TestResetLocalMetricsInsidePhasePanics(t *testing.T) {
	w := NewWorld(1)
	w.Run(func(c *Comm) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
			c.PhaseEnd()
		}()
		c.PhaseBegin("x")
		c.ResetLocalMetrics()
	})
}

// TestWithThreadsClamped pins option validation.
func TestWithThreadsClamped(t *testing.T) {
	w := NewWorld(1, WithThreads(0))
	w.Run(func(c *Comm) {
		if c.Threads() != 1 {
			t.Errorf("Threads=%d want 1", c.Threads())
		}
	})
}

// TestGroupAllreduceManyGroups runs disjoint groups of unequal size in the
// same superstep.
func TestGroupAllreduceManyGroups(t *testing.T) {
	w := NewWorld(7)
	w.Run(func(c *Comm) {
		var members []int
		switch {
		case c.Rank() < 3:
			members = []int{0, 1, 2}
		case c.Rank() < 5:
			members = []int{3, 4}
		default:
			members = []int{5, 6}
		}
		got := GroupAllreduce(c, members, 1, func(a, b int) int { return a + b })
		if got != len(members) {
			t.Errorf("rank %d: group count %d want %d", c.Rank(), got, len(members))
		}
	})
}

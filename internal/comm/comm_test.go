package comm

import (
	"math"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"
)

var worldSizes = []int{1, 2, 3, 4, 7, 8, 16}

func TestWorldRunRanks(t *testing.T) {
	for _, p := range worldSizes {
		w := NewWorld(p)
		var mu sync.Mutex
		seen := map[int]bool{}
		w.Run(func(c *Comm) {
			mu.Lock()
			seen[c.Rank()] = true
			mu.Unlock()
			if c.P() != p {
				t.Errorf("P()=%d want %d", c.P(), p)
			}
		})
		if len(seen) != p {
			t.Fatalf("p=%d: only %d ranks ran", p, len(seen))
		}
	}
}

func TestNewWorldPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWorld(0) should panic")
		}
	}()
	NewWorld(0)
}

func TestBarrierSynchronizes(t *testing.T) {
	const p = 8
	w := NewWorld(p)
	var phase [p]int32
	w.Run(func(c *Comm) {
		phase[c.Rank()] = 1
		Barrier(c)
		// After the barrier, every PE must observe everyone in phase 1.
		for i := 0; i < p; i++ {
			if phase[i] != 1 {
				t.Errorf("rank %d saw rank %d not yet at barrier", c.Rank(), i)
			}
		}
	})
}

func TestAllreduceSum(t *testing.T) {
	for _, p := range worldSizes {
		w := NewWorld(p)
		want := p * (p - 1) / 2
		w.Run(func(c *Comm) {
			got := Allreduce(c, c.Rank(), func(a, b int) int { return a + b })
			if got != want {
				t.Errorf("p=%d rank=%d: Allreduce=%d want %d", p, c.Rank(), got, want)
			}
		})
	}
}

func TestAllreduceMax(t *testing.T) {
	w := NewWorld(5)
	w.Run(func(c *Comm) {
		got := Allreduce(c, (c.Rank()*3)%5, func(a, b int) int {
			if a > b {
				return a
			}
			return b
		})
		if got != 4 {
			t.Errorf("Allreduce max=%d want 4", got)
		}
	})
}

func TestAllreduceVec(t *testing.T) {
	for _, p := range worldSizes {
		for _, n := range []int{0, 1, 5, 100} {
			w := NewWorld(p)
			w.Run(func(c *Comm) {
				xs := make([]int, n)
				for j := range xs {
					xs[j] = c.Rank() + j
				}
				got := AllreduceVec(c, nil, xs, func(a, b int) int { return a + b })
				for j := range got {
					want := p*j + p*(p-1)/2
					if got[j] != want {
						t.Errorf("p=%d n=%d rank=%d: got[%d]=%d want %d", p, n, c.Rank(), j, got[j], want)
					}
				}
			})
		}
	}
}

func TestAllreduceVecMin(t *testing.T) {
	type slot struct{ W, Owner int }
	for _, p := range worldSizes {
		w := NewWorld(p)
		w.Run(func(c *Comm) {
			xs := make([]slot, 8)
			for j := range xs {
				xs[j] = slot{W: (c.Rank()*7+j*3)%13 + 1, Owner: c.Rank()}
			}
			got := AllreduceVec(c, nil, xs, func(a, b slot) slot {
				if a.W < b.W || (a.W == b.W && a.Owner < b.Owner) {
					return a
				}
				return b
			})
			// Recompute expectation directly.
			for j := range got {
				best := slot{W: 1 << 30}
				for r := 0; r < p; r++ {
					s := slot{W: (r*7+j*3)%13 + 1, Owner: r}
					if s.W < best.W || (s.W == best.W && s.Owner < best.Owner) {
						best = s
					}
				}
				if got[j] != best {
					t.Errorf("p=%d slot %d: got %+v want %+v", p, j, got[j], best)
				}
			}
		})
	}
}

func TestExScan(t *testing.T) {
	for _, p := range worldSizes {
		w := NewWorld(p)
		w.Run(func(c *Comm) {
			got := ExScan(c, c.Rank()+1, 0, func(a, b int) int { return a + b })
			want := 0
			for i := 0; i < c.Rank(); i++ {
				want += i + 1
			}
			if got != want {
				t.Errorf("p=%d rank=%d: ExScan=%d want %d", p, c.Rank(), got, want)
			}
		})
	}
}

func TestAllgather(t *testing.T) {
	for _, p := range worldSizes {
		w := NewWorld(p)
		w.Run(func(c *Comm) {
			got := Allgather(c, c.Rank()*c.Rank())
			for i := range got {
				if got[i] != i*i {
					t.Errorf("p=%d: Allgather[%d]=%d want %d", p, i, got[i], i*i)
				}
			}
		})
	}
}

func TestAllgatherConcat(t *testing.T) {
	for _, p := range worldSizes {
		w := NewWorld(p)
		w.Run(func(c *Comm) {
			xs := make([]int, c.Rank()) // rank r contributes r copies of r
			for j := range xs {
				xs[j] = c.Rank()
			}
			got := AllgatherConcat(c, xs)
			want := p * (p - 1) / 2
			if len(got) != want {
				t.Fatalf("p=%d: concat length %d want %d", p, len(got), want)
			}
			k := 0
			for r := 0; r < p; r++ {
				for j := 0; j < r; j++ {
					if got[k] != r {
						t.Fatalf("p=%d: concat[%d]=%d want %d", p, k, got[k], r)
					}
					k++
				}
			}
		})
	}
}

// TestAllgatherConcatInto checks the arena-destination variant: the result
// is appended after dst's existing contents, a recycled buffer grows only
// while the working set does, and the modeled charge equals the plain
// AllgatherConcat.
func TestAllgatherConcatInto(t *testing.T) {
	p := 4
	w := NewWorld(p)
	clocks := make([]float64, 2)
	w.Run(func(c *Comm) {
		xs := []int{c.Rank(), c.Rank()}
		dst := make([]int, 1, 16)
		dst[0] = -1
		got := AllgatherConcatInto(c, dst, xs)
		if len(got) != 1+2*p || got[0] != -1 {
			t.Fatalf("rank %d: got %v", c.Rank(), got)
		}
		for r := 0; r < p; r++ {
			if got[1+2*r] != r || got[2+2*r] != r {
				t.Fatalf("rank %d: concat misordered: %v", c.Rank(), got)
			}
		}
		if c.Rank() == 0 {
			clocks[0] = c.Clock()
		}
	})
	w2 := NewWorld(p)
	w2.Run(func(c *Comm) {
		xs := []int{c.Rank(), c.Rank()}
		AllgatherConcat(c, xs)
		if c.Rank() == 0 {
			clocks[1] = c.Clock()
		}
	})
	if clocks[0] != clocks[1] {
		t.Errorf("Into variant charged %v, plain %v", clocks[0], clocks[1])
	}
}

func TestAlltoallRouting(t *testing.T) {
	for _, p := range worldSizes {
		w := NewWorld(p)
		w.Run(func(c *Comm) {
			send := make([][]int, p)
			for d := 0; d < p; d++ {
				// rank r sends d+1 copies of r*100+d to PE d
				for j := 0; j <= d; j++ {
					send[d] = append(send[d], c.Rank()*100+d)
				}
			}
			recv := alltoallBuckets(c, send)
			for s := 0; s < p; s++ {
				if len(recv[s]) != c.Rank()+1 {
					t.Errorf("p=%d rank=%d: from %d got %d items want %d", p, c.Rank(), s, len(recv[s]), c.Rank()+1)
					continue
				}
				for _, v := range recv[s] {
					if v != s*100+c.Rank() {
						t.Errorf("p=%d rank=%d: from %d got value %d", p, c.Rank(), s, v)
					}
				}
			}
		})
	}
}

// alltoallBuckets packs buckets back to back, the frame layout an exchange
// call site builds, and sends them with the charged flat exchange.
func alltoallBuckets[T any](c *Comm, send [][]T) [][]T {
	off := make([]int32, len(send)+1)
	for j, b := range send {
		off[j+1] = off[j] + int32(len(b))
	}
	return Alltoall(c, slices.Concat(send...), off)
}

// TestAlltoallReceivedDataIsOwned: what a PE keeps of what it received is
// what it copied before its next collective. The received slot aliases the
// sender's frame, which the sender poisons once that collective has
// returned; the copy must come through untouched (and, under -race, no read
// may race the poisoning).
func TestAlltoallReceivedDataIsOwned(t *testing.T) {
	w := NewWorld(2)
	var got [2][]int
	w.Run(func(c *Comm) {
		peer := 1 - c.Rank()
		data, off := []int{c.Rank() + 10}, []int32{0, 1, 1}
		if peer == 1 {
			off[1] = 0
		}
		recv := Alltoall(c, data, off)
		got[c.Rank()] = slices.Clone(recv[peer])
		Barrier(c)
		data[0] = -1 // the frame is the sender's again
		got[c.Rank()][0] += 100
	})
	if got[0][0] != 111 || got[1][0] != 110 {
		t.Fatalf("kept copies %v %v, want [111] [110]", got[0], got[1])
	}
}

func TestPairExchange(t *testing.T) {
	for _, p := range []int{2, 4, 8} {
		w := NewWorld(p)
		w.Run(func(c *Comm) {
			partner := c.Rank() ^ 1
			out := PairExchange(c, partner, []int{c.Rank(), c.Rank() * 2})
			if len(out) != 2 || out[0] != partner || out[1] != partner*2 {
				t.Errorf("p=%d rank=%d: PairExchange got %v", p, c.Rank(), out)
			}
		})
	}
}

func TestPairExchangeNoPartner(t *testing.T) {
	w := NewWorld(3)
	w.Run(func(c *Comm) {
		partner := -1
		if c.Rank() < 2 {
			partner = c.Rank() ^ 1
		}
		out := PairExchange(c, partner, []int{c.Rank()})
		if c.Rank() == 2 && out != nil {
			t.Errorf("lonely rank received %v", out)
		}
		if c.Rank() < 2 && (len(out) != 1 || out[0] != partner) {
			t.Errorf("rank %d got %v", c.Rank(), out)
		}
	})
}

func TestGroupAllreduce(t *testing.T) {
	w := NewWorld(8)
	w.Run(func(c *Comm) {
		var members []int
		if c.Rank() < 4 {
			members = []int{0, 1, 2, 3}
		} else {
			members = []int{4, 5, 6, 7}
		}
		got := GroupAllreduce(c, members, c.Rank(), func(a, b int) int { return a + b })
		want := 0 + 1 + 2 + 3
		if c.Rank() >= 4 {
			want = 4 + 5 + 6 + 7
		}
		if got != want {
			t.Errorf("rank %d: group sum %d want %d", c.Rank(), got, want)
		}
	})
}

func TestGroupAllreduceNonMember(t *testing.T) {
	w := NewWorld(4)
	w.Run(func(c *Comm) {
		var members []int
		if c.Rank() < 2 {
			members = []int{0, 1}
		}
		got := GroupAllreduce(c, members, c.Rank()+1, func(a, b int) int { return a + b })
		if c.Rank() < 2 && got != 3 {
			t.Errorf("member rank %d got %d want 3", c.Rank(), got)
		}
		if c.Rank() >= 2 && got != 0 {
			t.Errorf("non-member rank %d got %d want zero value", c.Rank(), got)
		}
	})
}

func TestModeledClockAdvances(t *testing.T) {
	w := NewWorld(4)
	w.Run(func(c *Comm) {
		before := c.Clock()
		Barrier(c)
		Allreduce(c, 1, func(a, b int) int { return a + b })
		if c.Clock() <= before {
			t.Errorf("rank %d: clock did not advance over collectives", c.Rank())
		}
	})
	if w.MaxClock() <= 0 {
		t.Fatal("world MaxClock should be positive after a run")
	}
}

func TestClockBSPSync(t *testing.T) {
	// A straggler's modeled time must propagate to everyone at a barrier.
	w := NewWorld(4)
	w.Run(func(c *Comm) {
		if c.Rank() == 2 {
			c.ChargeCompute(1_000_000_000) // 1e9 ops ≈ 2s modeled
		}
		Barrier(c)
		if c.Clock() < 1.0 {
			t.Errorf("rank %d clock %.3f did not sync with straggler", c.Rank(), c.Clock())
		}
	})
}

func TestChargeComputeDividesByThreads(t *testing.T) {
	w1 := NewWorld(1, WithThreads(1))
	w8 := NewWorld(1, WithThreads(8))
	var t1, t8 float64
	w1.Run(func(c *Comm) { c.ChargeCompute(1000000); t1 = c.Clock() })
	w8.Run(func(c *Comm) { c.ChargeCompute(1000000); t8 = c.Clock() })
	if t8 >= t1 {
		t.Fatalf("8-thread compute charge %.9f not below 1-thread %.9f", t8, t1)
	}
	if ratio := t1 / t8; ratio < 7.9 || ratio > 8.1 {
		t.Fatalf("thread speedup ratio %.2f want 8", ratio)
	}
}

func TestAlltoallCostScalesWithP(t *testing.T) {
	// The direct all-to-all's startup term must grow linearly in p.
	cost := func(p int) float64 {
		w := NewWorld(p)
		var clk float64
		w.Run(func(c *Comm) {
			Alltoall(c, []int(nil), make([]int32, p+1)) // empty payload: pure startup cost
			if c.Rank() == 0 {
				clk = c.Clock()
			}
		})
		return clk
	}
	c4, c16 := cost(4), cost(16)
	if c16 < 3*c4 {
		t.Fatalf("alltoall startup cost p=16 (%.2e) not ~5x p=4 (%.2e)", c16, c4)
	}
}

func TestPhaseTimers(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		c.Phase("alpha", func() {
			c.ChargeCompute(1000)
		})
		c.Phase("beta", func() {
			c.ChargeCompute(3000)
		})
	})
	ph := w.Phases()
	a, b := ph["alpha"], ph["beta"]
	if a.Modeled <= 0 || b.Modeled <= 0 {
		t.Fatalf("phases not recorded: %+v", ph)
	}
	if b.Modeled <= a.Modeled {
		t.Fatalf("beta (%.2e) should cost more than alpha (%.2e)", b.Modeled, a.Modeled)
	}
}

func TestNestedPhasesDisjoint(t *testing.T) {
	w := NewWorld(1)
	w.Run(func(c *Comm) {
		c.Phase("outer", func() {
			c.ChargeCompute(1000)
			c.Phase("inner", func() {
				c.ChargeCompute(5000)
			})
		})
	})
	ph := w.Phases()
	outer, inner := ph["outer"], ph["inner"]
	if inner.Modeled <= 0 {
		t.Fatal("inner phase not recorded")
	}
	// Outer must exclude inner's time.
	if outer.Modeled >= inner.Modeled {
		t.Fatalf("outer %.2e should be smaller than inner %.2e after exclusion", outer.Modeled, inner.Modeled)
	}
}

func TestPhaseNamesSorted(t *testing.T) {
	w := NewWorld(1)
	w.Run(func(c *Comm) {
		c.Phase("zz", func() {})
		c.Phase("aa", func() {})
	})
	var names []string
	for name := range w.Phases() {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) != 2 || names[0] != "aa" || names[1] != "zz" {
		t.Fatalf("phase names = %v", names)
	}
}

// TestCompleteFoldsClocks pins the board clock fold every superstep
// completion performs: the slot carries the maximum deposited clock, and
// the fold is order-independent (negative zero and +Inf included), so every
// process of a distributed world derives bit-identical clocks.
func TestCompleteFoldsClocks(t *testing.T) {
	NewWorld(1).Run(func(c *Comm) {
		fold := func(clocks ...float64) float64 {
			board := make([]deposit, len(clocks))
			for i, clk := range clocks {
				board[i].Clock = clk
			}
			return c.complete(board, verdictRun).ClockMax
		}
		if got := fold(1.5, 3.25, 2.0); got != 3.25 {
			t.Errorf("fold = %v, want 3.25", got)
		}
		negZero := math.Copysign(0, -1)
		x, y := fold(negZero, 0, math.Inf(1)), fold(math.Inf(1), 0, negZero)
		if math.Float64bits(x) != math.Float64bits(y) {
			t.Errorf("fold order-dependent: %x vs %x", math.Float64bits(x), math.Float64bits(y))
		}
	})
}

func TestStatsAccumulate(t *testing.T) {
	w := NewWorld(4)
	w.Run(func(c *Comm) {
		send := make([][]byte, 4)
		for i := range send {
			send[i] = []byte{1, 2, 3}
		}
		alltoallBuckets(c, send)
	})
	s := w.TotalStats()
	if s.Collectives != 4 {
		t.Fatalf("Collectives=%d want 4", s.Collectives)
	}
	if s.Bytes <= 0 || s.Messages <= 0 {
		t.Fatalf("stats not counted: %+v", s)
	}
}

func TestResetMetrics(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) { Barrier(c) })
	w.ResetMetrics()
	if w.MaxClock() != 0 {
		t.Fatal("MaxClock not reset")
	}
	if s := w.TotalStats(); s.Collectives != 0 {
		t.Fatal("stats not reset")
	}
	// World must remain usable after reset.
	w.Run(func(c *Comm) { Barrier(c) })
	if w.MaxClock() <= 0 {
		t.Fatal("world unusable after ResetMetrics")
	}
}

// TestWarmJobPhasesAllocateNothing: each rank's phase timers are the
// world's, cleared per job, so once warm a job's nested phases allocate
// nothing: a job at p = 4 that opens and closes them, resetting the rank's
// and the world's timers as a Machine job does, allocates no more than the
// same job without them.
func TestWarmJobPhasesAllocateNothing(t *testing.T) {
	w := NewWorld(4)
	w.Start()
	defer w.Close()
	job := func(phased bool) func() {
		return func() {
			w.Run(func(c *Comm) {
				c.ResetLocalMetrics()
				if c.Rank() == 0 {
					w.ResetMetrics()
				}
				if phased {
					c.PhaseBegin("outer")
					c.PhaseBegin("inner")
				}
				Barrier(c)
				if phased {
					c.PhaseEnd()
					c.PhaseBegin("second")
				}
				Barrier(c)
				if phased {
					c.PhaseEnd()
					c.PhaseEnd()
				}
			})
		}
	}
	plain, phased := job(false), job(true)
	phased()
	if got := w.Phases(); len(got) != 3 {
		t.Fatalf("phases %v, want outer, inner and second", got)
	}
	base := testing.AllocsPerRun(50, plain)
	if n := testing.AllocsPerRun(50, phased); n > base {
		t.Fatalf("a warm job with phases allocates %v times, without %v", n, base)
	}
}

func TestRepeatedRuns(t *testing.T) {
	w := NewWorld(3)
	for i := 0; i < 3; i++ {
		w.Run(func(c *Comm) {
			v := Allreduce(c, 1, func(a, b int) int { return a + b })
			if v != 3 {
				t.Errorf("run %d: allreduce=%d", i, v)
			}
		})
	}
}

func TestManyCollectivesStress(t *testing.T) {
	w := NewWorld(8)
	done := make(chan struct{})
	go func() {
		w.Run(func(c *Comm) {
			for i := 0; i < 200; i++ {
				x := Allreduce(c, i, func(a, b int) int { return a + b })
				if x != 8*i {
					t.Errorf("iteration %d: got %d", i, x)
					return
				}
			}
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("collective stress test deadlocked")
	}
}

func BenchmarkBarrier8(b *testing.B) {
	w := NewWorld(8)
	w.Run(func(c *Comm) {
		for i := 0; i < b.N; i++ {
			Barrier(c)
		}
	})
}

func BenchmarkAlltoall16(b *testing.B) {
	w := NewWorld(16)
	data, off := make([]int, 16*64), make([]int32, 17)
	for i := range off {
		off[i] = int32(i * 64)
	}
	w.Run(func(c *Comm) {
		for i := 0; i < b.N; i++ {
			Alltoall(c, data, off)
		}
	})
}

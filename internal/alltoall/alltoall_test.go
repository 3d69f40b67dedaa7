package alltoall

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"kamsta/internal/comm"
	"kamsta/internal/rng"
)

// randomWorkload builds, for each rank, deterministic per-destination
// buckets of varying sizes (including empty ones).
func randomWorkload(p, rank int, seed uint64) [][]int {
	r := rng.New(seed).Split(uint64(rank))
	send := make([][]int, p)
	for d := 0; d < p; d++ {
		n := r.Intn(5) // 0..4 items
		for k := 0; k < n; k++ {
			send[d] = append(send[d], rank*1_000_000+d*1000+k)
		}
	}
	return send
}

func runExchange(t *testing.T, p int, s Strategy) [][][]int {
	t.Helper()
	w := comm.NewWorld(p)
	results := make([][][]int, p)
	w.Run(func(c *comm.Comm) {
		send := randomWorkload(p, c.Rank(), 42)
		results[c.Rank()] = Exchange(c, s, send)
	})
	return results
}

func checkDelivery(t *testing.T, p int, got [][][]int) {
	t.Helper()
	for rank := 0; rank < p; rank++ {
		for src := 0; src < p; src++ {
			want := randomWorkload(p, src, 42)[rank]
			have := got[rank][src]
			if len(have) != len(want) {
				t.Fatalf("p=%d: rank %d received %d items from %d, want %d", p, rank, len(have), src, len(want))
			}
			for i := range want {
				if have[i] != want[i] {
					t.Fatalf("p=%d: rank %d item %d from %d: got %d want %d", p, rank, i, src, have[i], want[i])
				}
			}
		}
	}
}

func TestDirectDelivery(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8, 16} {
		checkDelivery(t, p, runExchange(t, p, Direct))
	}
}

func TestGridDelivery(t *testing.T) {
	// Includes sizes where the last grid row is incomplete (p not c*r).
	for _, p := range []int{1, 2, 3, 5, 6, 7, 8, 11, 12, 13, 16, 23, 25, 31} {
		checkDelivery(t, p, runExchange(t, p, Grid))
	}
}

func TestAutoDelivery(t *testing.T) {
	for _, p := range []int{1, 3, 8, 13} {
		checkDelivery(t, p, runExchange(t, p, Auto))
	}
}

func TestStrategiesAgree(t *testing.T) {
	for _, p := range []int{4, 8, 16} {
		d := runExchange(t, p, Direct)
		g := runExchange(t, p, Grid)
		for rank := 0; rank < p; rank++ {
			for src := 0; src < p; src++ {
				if fmt.Sprint(d[rank][src]) != fmt.Sprint(g[rank][src]) {
					t.Fatalf("p=%d: direct and grid disagree at [%d][%d]", p, rank, src)
				}
			}
		}
	}
}

func TestGridGeometry(t *testing.T) {
	for p := 1; p <= 64; p++ {
		g := newGridGeom(p)
		if g.c < 1 || g.c*g.c > p {
			t.Fatalf("p=%d: c=%d violates c=floor(sqrt(p))", p, g.c)
		}
		if (g.c+1)*(g.c+1) <= p {
			t.Fatalf("p=%d: c=%d is not the floor of sqrt", p, g.c)
		}
		if g.r != (p+g.c-1)/g.c {
			t.Fatalf("p=%d: r=%d want ceil(p/c)", p, g.r)
		}
		// Paper invariant: c <= r <= c+2.
		if g.r < g.c || g.r > g.c+2 {
			t.Fatalf("p=%d: r=%d outside [c, c+2] with c=%d", p, g.r, g.c)
		}
		// Every intermediate must exist and lie in the sender's column.
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				tm := g.intermediate(i, j)
				if tm < 0 || tm >= p {
					t.Fatalf("p=%d: intermediate(%d,%d)=%d out of range", p, i, j, tm)
				}
				if g.col(tm) != g.col(i) {
					t.Fatalf("p=%d: intermediate(%d,%d)=%d not in sender's column", p, i, j, tm)
				}
			}
		}
	}
}

func TestColSizeSumsToP(t *testing.T) {
	for p := 1; p <= 40; p++ {
		g := newGridGeom(p)
		sum := 0
		for k := 0; k < g.c; k++ {
			sum += g.colSize(k)
		}
		if sum != p {
			t.Fatalf("p=%d: column sizes sum to %d", p, sum)
		}
	}
}

// startupCost measures the modeled time of one empty-payload exchange.
func startupCost(p int, s Strategy) float64 {
	w := comm.NewWorld(p)
	w.Run(func(c *comm.Comm) {
		send := make([][]int, p)
		for d := range send {
			send[d] = []int{d} // one tiny item per destination
		}
		Exchange(c, s, send)
	})
	return w.MaxClock()
}

func TestGridBeatsDirectStartupAtScale(t *testing.T) {
	// The whole point of the two-level exchange (Fig. 2): for small
	// messages the startup term α·p of the direct exchange dominates, while
	// the grid pays only O(α·√p).
	p := 256
	direct := startupCost(p, Direct)
	grid := startupCost(p, Grid)
	if grid >= direct {
		t.Fatalf("p=%d small messages: grid %.3e should beat direct %.3e", p, grid, direct)
	}
	if direct/grid < 3 {
		t.Fatalf("p=%d: expected a large startup gap, got direct/grid = %.1f", p, direct/grid)
	}
}

// TestStartupCostOrdering verifies the §VI-A trade-off chain for tiny
// messages at scale: indirection buys a smaller startup term, and Auto
// takes it.
func TestStartupCostOrdering(t *testing.T) {
	p := 256
	direct := startupCost(p, Direct)
	grid := startupCost(p, Grid)
	auto := startupCost(p, Auto)
	if grid >= direct {
		t.Fatalf("grid %.3e should beat direct %.3e", grid, direct)
	}
	if auto >= direct {
		t.Fatalf("auto %.3e should beat direct %.3e on tiny messages", auto, direct)
	}
}

func TestDirectBeatsGridForBigMessages(t *testing.T) {
	// With large messages the doubled volume of the grid should lose.
	p := 16
	big := make([]int, 1<<16)
	run := func(s Strategy) float64 {
		w := comm.NewWorld(p)
		w.Run(func(c *comm.Comm) {
			send := make([][]int, p)
			for d := range send {
				send[d] = big
			}
			Exchange(c, s, send)
		})
		return w.MaxClock()
	}
	direct, grid := run(Direct), run(Grid)
	if direct >= grid {
		t.Fatalf("p=%d big messages: direct %.3e should beat grid %.3e", p, direct, grid)
	}
}

func TestAutoPicksGridForTinyMessages(t *testing.T) {
	p := 64
	auto := startupCost(p, Auto)
	grid := startupCost(p, Grid)
	direct := startupCost(p, Direct)
	if auto > grid*1.5 {
		t.Fatalf("auto (%.3e) should be close to grid (%.3e), not direct (%.3e)", auto, grid, direct)
	}
}

func TestStrategyString(t *testing.T) {
	for s, want := range map[Strategy]string{Direct: "direct", Grid: "grid", Auto: "auto"} {
		if s.String() != want {
			t.Fatalf("String(%d)=%q want %q", int(s), s.String(), want)
		}
	}
}

// TestWarmCollectivesAllocateNothing: once a rank's slots are warm, a
// collective allocates nothing — neither its bookkeeping (deposits, hop
// tables, result headers, combine results) nor a copy of the data it moves.
// Each exchange carries 1 Ki elements per destination, so a copy would cost
// 8 KiB per call or more. A call's bytes are the difference between a run
// of 2n calls and one of n, which leaves the run's own set-up out, at best
// of three; the bound leaves room for the barrier's wake-up channel, which a
// superstep makes when some PE had to park in it. It holds at p = 4 and at
// p = 16: nothing grows with p.
func TestWarmCollectivesAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const per, calls, bound = 1024, 40, 512 // bound: bytes per warm call
	k := NewSendKey()
	sum := func(a, b int) int { return a + b }
	for _, p := range []int{4, 16} {
		buckets := make([][][]int, p) // per rank: one bucket of per elements per PE
		cat := make([][]int, p)       // per rank: AllgatherConcatInto's destination
		for r := range buckets {
			buckets[r] = make([][]int, p)
			for d := range buckets[r] {
				buckets[r][d] = make([]int, per)
			}
			cat[r] = make([]int, 0, p*per)
		}
		halves := [2][]int{} // GroupAllreduce's groups: the two halves of the world
		for r := 0; r < p; r++ {
			halves[2*r/p] = append(halves[2*r/p], r)
		}
		builder := func(s Strategy) func(c *comm.Comm) {
			return func(c *comm.Comm) {
				b := NewBuilder[int](c, k)
				for d := p - 1; d >= 0; d-- { // scattered: both frame slots are used
					b.Append(d, buckets[c.Rank()][d])
				}
				b.Exchange(s)
				comm.Barrier(c) // the frame's slots are the call site's again
			}
		}
		ops := []struct {
			name string
			call func(c *comm.Comm)
		}{
			{"builder/direct", builder(Direct)},
			{"builder/grid", builder(Grid)},
			{"rawalltoall", func(c *comm.Comm) { comm.RawAlltoall(c, buckets[c.Rank()]) }},
			{"pairexchange", func(c *comm.Comm) {
				comm.PairExchange(c, c.Rank()^1, buckets[c.Rank()][0])
				comm.Barrier(c)
			}},
			{"allreduce", func(c *comm.Comm) { comm.Allreduce(c, c.Rank()+1000, sum) }},
			{"allgather", func(c *comm.Comm) { comm.Allgather(c, c.Rank()+1000) }},
			{"allgatherconcatinto", func(c *comm.Comm) {
				comm.AllgatherConcatInto(c, cat[c.Rank()][:0], buckets[c.Rank()][0])
			}},
			{"groupallreduce", func(c *comm.Comm) { comm.GroupAllreduce(c, halves[2*c.Rank()/p], c.Rank()+1000, sum) }},
			{"exscan", func(c *comm.Comm) { comm.ExScan(c, c.Rank()+1000, 0, sum) }},
		}
		for _, op := range ops {
			w := comm.NewWorld(p)
			run := func(n int) uint64 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				w.Run(func(c *comm.Comm) {
					for i := 0; i < n; i++ {
						op.call(c)
					}
				})
				runtime.ReadMemStats(&after)
				return after.TotalAlloc - before.TotalAlloc
			}
			run(calls) // warm the slots
			perCall := math.Inf(1)
			for range 3 {
				perCall = min(perCall, (float64(run(2*calls))-float64(run(calls)))/calls)
			}
			t.Logf("p=%d %s: %.0f bytes per warm call", p, op.name, perCall)
			if perCall > bound {
				t.Errorf("p=%d %s: a warm call allocates %.0f bytes, want ≤ %d", p, op.name, perCall, bound)
			}
		}
	}
}

func BenchmarkDirect64(b *testing.B) { benchStrategy(b, 64, Direct) }
func BenchmarkGrid64(b *testing.B)   { benchStrategy(b, 64, Grid) }

func benchStrategy(b *testing.B, p int, s Strategy) {
	w := comm.NewWorld(p)
	w.Run(func(c *comm.Comm) {
		send := randomWorkload(p, c.Rank(), 7)
		for i := 0; i < b.N; i++ {
			Exchange(c, s, send)
		}
	})
}

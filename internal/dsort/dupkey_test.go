package dsort

import (
	"math"
	"math/big"
	"math/bits"
	"testing"

	"kamsta/internal/comm"
	"kamsta/internal/graph"
	"kamsta/internal/rng"
)

// weightOnlyLess is the duplicate-heavy weak order of an unweighted ingest
// before weight assignment: edges compare by weight alone, so an all-equal-
// weight graph is one giant tie class.
func weightOnlyLess(a, b graph.Edge) bool { return a.W < b.W }

func weightOnlyKey(e graph.Edge) uint64 { return uint64(e.W) }

// makeDupEdges builds per-rank edges over a ring graph whose weights cycle
// through the given values (len 1 → all equal, len 2 → two tie classes).
func makeDupEdges(rank, per int, weights []graph.Weight) []graph.Edge {
	out := make([]graph.Edge, per)
	for i := range out {
		u := graph.VID(rank*per + i + 1)
		v := u%graph.VID(per*64) + 1
		if v == u {
			v = u + 1
		}
		out[i] = graph.NewEdge(u, v, weights[(rank+i)%len(weights)])
		out[i].ID = uint32(rank*per + i)
	}
	return out
}

// runDupSort sorts per duplicate-heavy edges per PE on a fresh p-PE world and
// returns each rank's output and the modeled makespan.
func runDupSort(t *testing.T, p, per int, weights []graph.Weight, ord Order[graph.Edge], opt Options) ([][]graph.Edge, float64) {
	t.Helper()
	w := comm.NewWorld(p)
	outs := make([][]graph.Edge, p)
	w.Run(func(c *comm.Comm) {
		local := makeDupEdges(c.Rank(), per, weights)
		outs[c.Rank()] = Sort(c, local, ord, opt)
		if !IsGloballySorted(c, outs[c.Rank()], ord.Less) {
			t.Errorf("p=%d: not globally sorted", p)
		}
	})
	return outs, w.MaxClock()
}

// TestDuplicateKeyRegression pushes all-equal-weight and two-distinct-
// weight inputs through both sorters at p ∈ {2, 8, 16} (hypercube quicksort
// at hypercubePer edges per PE, sample sort at sampleSortPer): the result
// must be globally sorted, perfectly balanced, lossless, and the modeled
// clock must be bit-identical across runs.
func TestDuplicateKeyRegression(t *testing.T) {
	weightSets := map[string][]graph.Weight{
		"all-equal":    {7},
		"two-distinct": {3, 200},
	}
	ord := ByKey(weightOnlyLess, weightOnlyKey)
	for _, p := range []int{2, 8, 16} {
		for _, per := range []int{sampleSortPer, hypercubePer} {
			for wname, ws := range weightSets {
				var outs [][]graph.Edge
				var clk float64
				if hypercubeRan(func() { outs, clk = runDupSort(t, p, per, ws, ord, Options{Seed: 11}) }) != (per == hypercubePer) {
					t.Errorf("p=%d per=%d %s: the other sorter ran", p, per, wname)
				}
				total, lo := 0, math.MaxInt
				hi := 0
				for _, o := range outs {
					total += len(o)
					lo = min(lo, len(o))
					hi = max(hi, len(o))
				}
				if total != per*p {
					t.Errorf("p=%d per=%d %s: lost elements: %d of %d", p, per, wname, total, per*p)
				}
				if hi-lo > 1 {
					t.Errorf("p=%d per=%d %s: final chunks unbalanced: %d..%d", p, per, wname, lo, hi)
				}
				outs2, clk2 := runDupSort(t, p, per, ws, ord, Options{Seed: 11})
				if math.Float64bits(clk) != math.Float64bits(clk2) {
					t.Errorf("p=%d per=%d %s: modeled clock not bit-identical: %x vs %x",
						p, per, wname, math.Float64bits(clk), math.Float64bits(clk2))
				}
				for r := range outs {
					if len(outs[r]) != len(outs2[r]) {
						t.Errorf("p=%d per=%d %s: rank %d chunk size differs across runs", p, per, wname, r)
					}
				}
			}
		}
	}
}

// TestHypercubeDuplicateLoadBalance asserts the tie-splitting fix: on an
// all-equal-key input no PE may exceed ~2× the average load at ANY point of
// the hypercube recursion (the former all-ties-high partition collapsed
// nearly the whole input onto one PE, i.e. ~p× the average by the last
// level). Two-distinct-weight inputs cannot meet 2×: when the pivot lands
// on one class, global sortedness FORCES the whole other class onto one
// subcube, so only ties are splittable and the load drifts by a constant
// factor per level — asserted bounded at 6×, far below the old ~p×.
func TestHypercubeDuplicateLoadBalance(t *testing.T) {
	for _, p := range []int{2, 8, 16} {
		for _, tc := range []struct {
			name    string
			weights []graph.Weight
			factor  int
		}{
			{"all-equal", []graph.Weight{9}, 2},
			{"two-distinct", []graph.Weight{9, 10}, 6},
		} {
			per := 200
			perRank := make([]int, p) // each PE goroutine writes only its slot
			hqsLoadProbe = func(rank, level, n int) {
				perRank[rank] = max(perRank[rank], n)
			}
			w := comm.NewWorld(p)
			w.Run(func(c *comm.Comm) {
				local := makeDupEdges(c.Rank(), per, tc.weights)
				Sort(c, local, ByKey(weightOnlyLess, weightOnlyKey), Options{Seed: 3})
			})
			hqsLoadProbe = nil
			maxLoad := 0
			for _, n := range perRank {
				maxLoad = max(maxLoad, n)
			}
			if maxLoad == 0 {
				t.Fatalf("p=%d %s: hypercube quicksort did not run", p, tc.name)
			}
			if limit := tc.factor*per + 64; maxLoad > limit {
				t.Errorf("p=%d %s: mid-recursion load %d exceeds %d×average+64 = %d", p, tc.name, maxLoad, tc.factor, limit)
			}
		}
	}
}

// TestHypercubeDistinctKeysUnchanged pins that the tie alternation is
// invisible under a total order: ints are made distinct world-wide, and the
// sorted outcome must equal the reference exactly (this is the regime the
// golden modeled-time bits run in).
func TestHypercubeDistinctKeysUnchanged(t *testing.T) {
	p := 8
	w := comm.NewWorld(p)
	outs := make([][]int, p)
	if !hypercubeRan(func() {
		w.Run(func(c *comm.Comm) {
			r := rng.New(77).Split(uint64(c.Rank()))
			local := make([]int, 100)
			for i := range local {
				local[i] = r.Intn(1<<20)<<4 | c.Rank() // distinct across the world
			}
			outs[c.Rank()] = Sort(c, local, ByKey(intLess, intKey), Options{})
		})
	}) {
		t.Fatal("hypercube quicksort did not run")
	}
	k := 0
	prev := -1
	for _, o := range outs {
		for _, v := range o {
			if v <= prev {
				t.Fatalf("position %d: %d after %d", k, v, prev)
			}
			prev = v
			k++
		}
	}
	if k != 100*p {
		t.Fatalf("lost elements: %d", k)
	}
}

// TestRebalanceBoundOverflow pins the 128-bit boundary arithmetic against
// big.Int ground truth at counts where the former (g·p)/total and
// ((j+1)·total)/p expressions wrap int64.
func TestRebalanceBoundOverflow(t *testing.T) {
	cases := []struct{ total, p int }{
		{(1 << 61) + 12345, 64},      // total·p = 2^67
		{(1 << 62) - 1, 3},           // just below the int64 edge
		{(1 << 55) + 7, 1 << 9},      // total·p = 2^64
		{math.MaxInt64 / 2, 100_000}, // heavily overflowing
		{12345, 7},                   // sanity: small values
		{1, 1024},                    // fewer elements than PEs
	}
	for _, tc := range cases {
		for _, j := range []int{0, 1, tc.p / 2, tc.p - 1, tc.p} {
			got := rebalanceBound(j, tc.total, tc.p)
			want := new(big.Int).Mul(big.NewInt(int64(j)), big.NewInt(int64(tc.total)))
			want.Div(want, big.NewInt(int64(tc.p)))
			if !want.IsInt64() || got != int(want.Int64()) {
				t.Errorf("rebalanceBound(%d, %d, %d) = %d, want %s", j, tc.total, tc.p, got, want)
			}
			// Demonstrate the former formulation really wraps here.
			if hi, _ := bits.Mul64(uint64(j), uint64(tc.total)); hi != 0 {
				naive := j * tc.total / tc.p
				if naive == got {
					t.Errorf("case (%d,%d,%d): expected naive int arithmetic to differ, both %d", j, tc.total, tc.p, got)
				}
			}
		}
	}
}

// TestRebalanceBoundsCoverPositions checks the boundary invariants the
// redistribution loop relies on: bounds are monotone, start at 0, end at
// total, and adjacent targets differ by ⌊total/p⌋ or ⌈total/p⌉.
func TestRebalanceBoundsCoverPositions(t *testing.T) {
	for _, tc := range []struct{ total, p int }{
		{0, 4}, {1, 4}, {17, 4}, {1 << 61, 64}, {math.MaxInt64 - 1, 3},
	} {
		prev := rebalanceBound(0, tc.total, tc.p)
		if prev != 0 {
			t.Fatalf("bounds must start at 0, got %d", prev)
		}
		lo := tc.total / tc.p
		hi := lo
		if tc.total%tc.p != 0 {
			hi++ // avoid (total+p-1) overflow near MaxInt64
		}
		for j := 1; j <= tc.p; j++ {
			b := rebalanceBound(j, tc.total, tc.p)
			if d := b - prev; d < lo || d > hi {
				t.Fatalf("total=%d p=%d: chunk %d has size %d, want %d..%d", tc.total, tc.p, j-1, d, lo, hi)
			}
			prev = b
		}
		if prev != tc.total {
			t.Fatalf("bounds must end at total=%d, got %d", tc.total, prev)
		}
	}
}

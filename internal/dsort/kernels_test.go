package dsort

import (
	"slices"
	"testing"

	"kamsta/internal/arena"
	"kamsta/internal/comm"
	"kamsta/internal/graph"
	"kamsta/internal/radix"
	"kamsta/internal/rng"
)

// rec is a merge element whose key is only a prefix of its order: Tag is
// left to the comparator, Run and Pos say where the element came from.
type rec struct{ K, Tag, Run, Pos int }

func recKey(x rec) uint64 { return uint64(x.K) }

func recTotal(a, b rec) bool { return a.K < b.K || (a.K == b.K && a.Tag < b.Tag) }

// makeRuns builds k runs sorted under less, about a third of them empty,
// with keys drawn from so few values that runs share them.
func makeRuns(r *rng.RNG, k int, less func(a, b rec) bool) [][]rec {
	runs := make([][]rec, k)
	for i := range runs {
		if r.Intn(3) == 0 {
			continue
		}
		run := make([]rec, r.Intn(40))
		for j := range run {
			run[j] = rec{K: r.Intn(6), Tag: r.Intn(4), Run: i}
		}
		slices.SortStableFunc(run, radix.CmpOf(less))
		for j := range run {
			run[j].Pos = j
		}
		runs[i] = run
	}
	return runs
}

// makeInOrderRuns cuts one sorted sequence of k·10 records into k runs at
// random points, about a third of them empty, so the runs already follow one
// another and equal keys straddle the cuts. With overlap, the head of one
// non-empty run after the first is lowered just below the last element of
// the non-empty run before it: that boundary is out of order and the merge
// must not concatenate.
func makeInOrderRuns(r *rng.RNG, k int, less func(a, b rec) bool, overlap bool) [][]rec {
	all := make([]rec, 10*k)
	for i := range all {
		all[i] = rec{K: 1 + r.Intn(4), Tag: r.Intn(3)}
	}
	slices.SortStableFunc(all, radix.CmpOf(less))
	runs := make([][]rec, k)
	var nonEmpty []int
	for i := range runs {
		n := 0
		if r.Intn(3) != 0 {
			n = r.Intn(21)
		}
		if i == k-1 {
			n = len(all)
		}
		n = min(n, len(all))
		runs[i], all = all[:n:n], all[n:]
		for j := range runs[i] {
			runs[i][j].Run, runs[i][j].Pos = i, j
		}
		if n > 0 {
			nonEmpty = append(nonEmpty, i)
		}
	}
	if overlap && len(nonEmpty) > 1 {
		at := 1 + r.Intn(len(nonEmpty)-1)
		before := runs[nonEmpty[at-1]]
		runs[nonEmpty[at]][0].K = before[len(before)-1].K - 1
	}
	return runs
}

// TestKwayMerge holds the loser tree to its reference — a stable sort of the
// runs' concatenation, which is "ties to the lowest run, then run order" —
// for 0 to 33 runs (powers of two and not, empty runs, nothing but empty
// runs), keys shared across runs and finished by the comparator, and a
// weak order in which everything ties. Runs that already
// follow one another (equal elements across a boundary under the weak
// orders, empty runs in between) merge to their concatenation, which is
// then the reference; one overlapping boundary among them falls back to
// the tree.
func TestKwayMerge(t *testing.T) {
	orders := map[string]Order[rec]{
		"keyed":     ByKey(recTotal, recKey),
		"weak":      ByKey(func(a, b rec) bool { return a.K < b.K }, recKey),
		"all-equal": ByKey(func(a, b rec) bool { return false }, func(rec) uint64 { return 9 }),
	}
	comm.NewWorld(1).Run(func(c *comm.Comm) {
		ks := keysFor[rec]()
		r := rng.New(17)
		check := func(name string, runs [][]rec, ord Order[rec]) {
			t.Helper()
			want := slices.Concat(runs...)
			slices.SortStableFunc(want, radix.CmpOf(ord.Less))
			if got := kwayMerge(c, ks, runs, ord); !slices.Equal(got, want) {
				t.Fatalf("%s, %d runs: merged\n%v\nwant\n%v", name, len(runs), got, want)
			}
		}
		for name, ord := range orders {
			for k := 0; k <= 33; k++ {
				runs := makeRuns(r, k, ord.Less)
				if k%11 == 5 {
					runs = make([][]rec, k) // all empty
				}
				check(name, runs, ord)
				if k == 0 {
					continue
				}
				runs = makeInOrderRuns(r, k, ord.Less, false)
				if concat := slices.Concat(runs...); !slices.IsSortedFunc(concat, radix.CmpOf(ord.Less)) {
					t.Fatalf("%s, %d runs: in-order runs out of order", name, k)
				}
				check(name+", in order", runs, ord)
				check(name+", one overlap", makeInOrderRuns(r, k, ord.Less, true), ord)
			}
		}
	})
}

// TestPartitionedInputSortsLikeShuffled: under sample sort, a globally
// partitioned input — every PE's elements sorted and after the previous
// PE's, parallel edges straddling the PE boundaries — and the same elements
// shuffled within each PE sort to identical chunks with identical modeled
// clocks: the radix sort's sorted exit and the merge's concatenation change
// no element and no charge. (Hypercube quicksort draws its pivots from
// positions of the unsorted local data, so its clock depends on the order.)
func TestPartitionedInputSortsLikeShuffled(t *testing.T) {
	ord := ByKey(graph.LessLex, graph.KeyLex)
	for _, p := range []int{2, 3, 5, 8} {
		for _, per := range []int{sampleSortPer, 3 * sampleSortPer} {
			// Three parallel copies of each edge, so copies straddle the
			// cuts at multiples of per.
			sorted := make([]graph.Edge, p*per)
			r := rng.New(uint64(p))
			for i := range sorted {
				u := graph.VID(i/3 + 1)
				sorted[i] = graph.NewEdge(u, u+1, graph.Weight(1+r.Intn(200)))
				sorted[i].ID = uint32(i)
			}
			slices.SortFunc(sorted, radix.CmpOf(graph.LessLex))
			local := func(rank int, shuffle bool) []graph.Edge {
				out := slices.Clone(sorted[rank*per : (rank+1)*per])
				sr := rng.New(uint64(rank))
				for i := len(out) - 1; shuffle && i > 0; i-- {
					j := sr.Intn(i + 1)
					out[i], out[j] = out[j], out[i]
				}
				return out
			}
			var outs [2][][]graph.Edge
			var clocks [2][]float64
			for s, shuffle := range []bool{false, true} {
				w := comm.NewWorld(p)
				outs[s] = make([][]graph.Edge, p)
				w.Run(func(c *comm.Comm) {
					outs[s][c.Rank()] = slices.Clone(Sort(c, local(c.Rank(), shuffle), ord, Options{Seed: 3}))
				})
				clocks[s] = w.Clocks()
			}
			for rank := range outs[0] {
				if !slices.Equal(outs[0][rank], outs[1][rank]) {
					t.Errorf("p=%d per=%d rank %d: partitioned and shuffled inputs sort to different chunks", p, per, rank)
				}
			}
			if !slices.Equal(clocks[0], clocks[1]) {
				t.Errorf("p=%d per=%d: modeled clocks %v (partitioned) vs %v (shuffled)", p, per, clocks[0], clocks[1])
			}
		}
	}
}

// TestRebalanceKeepsOwnShare checks Rebalance against gather-and-cut: the
// world's elements are 0, 1, 2, … in rank order, so rank r must end with
// exactly [bound(r), bound(r+1)). Counts are skewed (empty ranks, one rank
// holding most), and the input lies outside the arena, at the start of the
// output slot, or inside it — the slot sized to the input, so a rank that
// gains elements grows it mid-call and reads its own share from the old
// backing, while a rank that loses some moves its share over itself.
func TestRebalanceKeepsOwnShare(t *testing.T) {
	private := arena.NewKey()
	for _, p := range []int{1, 2, 3, 16} {
		for trial := 0; trial < 24; trial++ {
			r := rng.New(uint64(100*p + trial))
			counts := make([]int, p)
			for i := range counts {
				switch r.Intn(4) {
				case 0: // empty
				case 1:
					counts[i] = 1 + r.Intn(400)
				default:
					counts[i] = 1 + r.Intn(40)
				}
			}
			total := 0
			for _, n := range counts {
				total += n
			}
			comm.NewWorld(p).Run(func(c *comm.Comm) {
				rank, n := c.Rank(), counts[c.Rank()]
				first := 0
				for _, m := range counts[:rank] {
					first += m
				}
				slot, lead := keysFor[int]().out, 0
				var data []int
				switch trial % 4 {
				case 0: // caller-owned memory
					data = make([]int, n)
				case 1: // a Sort result as it stands
					data = arena.Grab[int](c.Scratch(), slot, n)
				case 2: // a Sort result that lost its head to a dedup
					lead = 1 + trial%5
					data = arena.Grab[int](c.Scratch(), slot, lead+n)[lead:]
				case 3: // the same, rebalanced into a slot of the caller's
					slot, lead = private, 3
					data = arena.Grab[int](c.Scratch(), slot, lead+n)[lead:]
				}
				for i := range data {
					data[i] = first + i
				}
				var got []int
				if slot == private {
					got = RebalanceInto(c, slot, data)
				} else {
					got = Rebalance(c, data)
				}
				lo, hi := rebalanceBound(rank, total, p), rebalanceBound(rank+1, total, p)
				if len(got) != hi-lo {
					t.Errorf("p=%d trial %d rank %d: %d elements, want %d", p, trial, rank, len(got), hi-lo)
					return
				}
				for i, v := range got {
					if v != lo+i {
						t.Errorf("p=%d trial %d rank %d: position %d holds %d, want %d (counts %v)", p, trial, rank, i, v, lo+i, counts)
						return
					}
				}
			})
		}
	}
}

// BenchmarkKwayMerge merges 16 runs of 2^12 keyed records on one PE — the
// shape of a sample-sort receive on the benchmark's 16-PE worlds.
func BenchmarkKwayMerge(b *testing.B) {
	comm.NewWorld(1).Run(func(c *comm.Comm) {
		r := rng.New(3)
		ord := ByKey(recTotal, recKey)
		runs := make([][]rec, 16)
		for i := range runs {
			runs[i] = make([]rec, 1<<12)
			for j := range runs[i] {
				runs[i][j] = rec{K: r.Intn(1 << 30), Tag: r.Intn(4)}
			}
			slices.SortFunc(runs[i], radix.CmpOf(recTotal))
		}
		ks := keysFor[rec]()
		kwayMerge(c, ks, runs, ord)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			kwayMerge(c, ks, runs, ord)
		}
	})
}

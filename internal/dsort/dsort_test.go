package dsort

import (
	"sort"
	"testing"

	"kamsta/internal/alltoall"
	"kamsta/internal/comm"
	"kamsta/internal/graph"
	"kamsta/internal/rng"
	"kamsta/internal/sizeof"
)

// The per-rank sizes that put makeLocal's skewed input on either side of the
// hypercubeBelow rule: sampleSortPer averages above it on every world, and
// hypercubePer below it, where a power-of-two world takes hypercube quicksort.
const sampleSortPer, hypercubePer = 1000, 100

func intLess(a, b int) bool { return a < b }

// makeLocal builds deterministic per-rank data with duplicates and skew.
func makeLocal(p, rank, per int, seed uint64) []int {
	r := rng.New(seed).Split(uint64(rank))
	n := per
	if rank%3 == 1 {
		n = per / 4 // skewed sizes
	}
	out := make([]int, n)
	for i := range out {
		out[i] = r.Intn(per * p / 2) // deliberately includes duplicates
	}
	return out
}

// intKey is the full-order radix key for the non-negative test ints.
func intKey(v int) uint64 { return uint64(v) }

// runSort executes Sort on a p-PE world and returns the per-rank outputs
// and the sorted union of the inputs.
func runSort(t *testing.T, p, per int, opt Options) ([][]int, []int) {
	t.Helper()
	w := comm.NewWorld(p)
	outs := make([][]int, p)
	var want []int
	for r := 0; r < p; r++ {
		want = append(want, makeLocal(p, r, per, 5)...)
	}
	sort.Ints(want)
	w.Run(func(c *comm.Comm) {
		local := makeLocal(p, c.Rank(), per, 5)
		outs[c.Rank()] = Sort(c, local, ByKey(intLess, intKey), opt)
		if !IsGloballySorted(c, outs[c.Rank()], intLess) {
			t.Errorf("p=%d: IsGloballySorted=false after Sort", p)
		}
	})
	return outs, want
}

func checkSorted(t *testing.T, p int, outs [][]int, want []int) {
	t.Helper()
	var got []int
	for _, o := range outs {
		got = append(got, o...)
	}
	if len(got) != len(want) {
		t.Fatalf("p=%d: element count changed: got %d want %d", p, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("p=%d: position %d: got %d want %d", p, i, got[i], want[i])
		}
	}
	// Balance: sizes differ by at most one.
	lo, hi := len(want)/p, (len(want)+p-1)/p
	for r, o := range outs {
		if len(o) < lo || len(o) > hi {
			t.Fatalf("p=%d: rank %d holds %d elements, want %d..%d", p, r, len(o), lo, hi)
		}
	}
}

// hypercubeRan runs f with the hypercube recursion's load probe armed and
// reports whether the recursion ran.
func hypercubeRan(f func()) bool {
	ran := make(chan struct{}, 1)
	hqsLoadProbe = func(rank, level, n int) {
		select {
		case ran <- struct{}{}:
		default:
		}
	}
	defer func() { hqsLoadProbe = nil }()
	f()
	return len(ran) > 0
}

func TestSampleSort(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8, 13} {
		var outs [][]int
		var want []int
		if hypercubeRan(func() { outs, want = runSort(t, p, sampleSortPer, Options{}) }) {
			t.Fatalf("p=%d: %d per PE took hypercube quicksort", p, sampleSortPer)
		}
		checkSorted(t, p, outs, want)
	}
}

func TestHypercubeQuicksort(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8, 16} {
		var outs [][]int
		var want []int
		if !hypercubeRan(func() { outs, want = runSort(t, p, hypercubePer, Options{}) }) && p > 1 {
			t.Fatalf("p=%d: %d per PE did not take hypercube quicksort", p, hypercubePer)
		}
		checkSorted(t, p, outs, want)
	}
}

// TestHypercubeFallsBackOnOddWorld: input small enough for hypercube
// quicksort on a world that is not a power of two goes to sample sort.
func TestHypercubeFallsBackOnOddWorld(t *testing.T) {
	var outs [][]int
	var want []int
	if hypercubeRan(func() { outs, want = runSort(t, 6, 50, Options{}) }) {
		t.Fatal("hypercube quicksort ran on a 6-PE world")
	}
	checkSorted(t, 6, outs, want)
}

func TestAutoSelection(t *testing.T) {
	// Small input on a power-of-two world → hypercube path; large → sample.
	for _, per := range []int{20, 2000} {
		var outs [][]int
		var want []int
		if hypercubeRan(func() { outs, want = runSort(t, 8, per, Options{}) }) != (per == 20) {
			t.Fatalf("%d per PE on 8 PEs took the other sorter", per)
		}
		checkSorted(t, 8, outs, want)
	}
}

// TestSortWithGridAlltoall: on an odd world, sample sort's delivery of an
// input this small averages under alltoall.DefaultGridThreshold bytes per PE
// pair even if every element left its PE, so Auto routes it over the grid.
// On the 3×3 grid each PE pays (3-1)+(3+1) message startups for the delivery
// where the direct exchange a sampleSortPer input takes pays p-1; the two
// sorts charge the same startups everywhere else.
func TestSortWithGridAlltoall(t *testing.T) {
	const p, per = 9, 400
	if bytes := p * per * 8 / (p * (p - 1)); bytes >= alltoall.DefaultGridThreshold {
		t.Fatalf("%d bytes per PE pair: too large for the grid delivery", bytes)
	}
	outs, want := runSort(t, p, per, Options{})
	checkSorted(t, p, outs, want)
	messages := func(per int) int64 {
		w := comm.NewWorld(p)
		w.Run(func(c *comm.Comm) { Sort(c, makeLocal(p, c.Rank(), per, 5), ByKey(intLess, intKey), Options{}) })
		return w.TotalStats().Messages
	}
	if grid, direct := messages(per), messages(sampleSortPer); direct-grid != p*((p-1)-(2+4)) {
		t.Fatalf("%d per PE: %d messages, %d per PE: %d; want the grid's %d fewer", per, grid, sampleSortPer, direct, p*((p-1)-(2+4)))
	}
}

func TestSortEmptyInput(t *testing.T) {
	w := comm.NewWorld(4)
	w.Run(func(c *comm.Comm) {
		out := Sort(c, nil, ByKey(intLess, intKey), Options{})
		if len(out) != 0 {
			t.Errorf("rank %d: sorted empty input to %d elements", c.Rank(), len(out))
		}
	})
}

func TestSortSingleElementTotal(t *testing.T) {
	w := comm.NewWorld(4)
	w.Run(func(c *comm.Comm) {
		var local []int
		if c.Rank() == 2 {
			local = []int{42}
		}
		out := Sort(c, local, ByKey(intLess, intKey), Options{})
		n := comm.Allreduce(c, len(out), func(a, b int) int { return a + b })
		if n != 1 {
			t.Errorf("total elements %d want 1", n)
		}
	})
}

func TestSortAllEqualKeys(t *testing.T) {
	w := comm.NewWorld(8)
	w.Run(func(c *comm.Comm) {
		local := make([]int, sampleSortPer)
		for i := range local {
			local[i] = 7
		}
		out := Sort(c, local, ByKey(intLess, intKey), Options{})
		total := comm.Allreduce(c, len(out), func(a, b int) int { return a + b })
		if total != 8*sampleSortPer {
			t.Errorf("lost elements: total %d want %d", total, 8*sampleSortPer)
		}
		for _, v := range out {
			if v != 7 {
				t.Errorf("element corrupted: %d", v)
			}
		}
	})
}

func TestSortAlreadySorted(t *testing.T) {
	p := 4
	w := comm.NewWorld(p)
	outs := make([][]int, p)
	w.Run(func(c *comm.Comm) {
		local := make([]int, sampleSortPer)
		for i := range local {
			local[i] = c.Rank()*sampleSortPer + i
		}
		outs[c.Rank()] = Sort(c, local, ByKey(intLess, intKey), Options{})
	})
	k := 0
	for _, o := range outs {
		for _, v := range o {
			if v != k {
				t.Fatalf("position %d: got %d", k, v)
			}
			k++
		}
	}
}

func TestSortReverseSorted(t *testing.T) {
	p := 4
	w := comm.NewWorld(p)
	outs := make([][]int, p)
	w.Run(func(c *comm.Comm) {
		local := make([]int, sampleSortPer)
		for i := range local {
			local[i] = p*sampleSortPer - (c.Rank()*sampleSortPer + i)
		}
		outs[c.Rank()] = Sort(c, local, ByKey(intLess, intKey), Options{})
	})
	var got []int
	for _, o := range outs {
		got = append(got, o...)
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("not sorted at %d: %d < %d", i, got[i], got[i-1])
		}
	}
}

func TestSortStructsByCustomOrder(t *testing.T) {
	type kv struct{ K, V int }
	p := 4
	w := comm.NewWorld(p)
	outs := make([][]kv, p)
	w.Run(func(c *comm.Comm) {
		r := rng.New(9).Split(uint64(c.Rank()))
		local := make([]kv, sampleSortPer)
		for i := range local {
			local[i] = kv{K: r.Intn(100), V: c.Rank()}
		}
		outs[c.Rank()] = Sort(c, local, ByKey(func(a, b kv) bool {
			if a.K != b.K {
				return a.K < b.K
			}
			return a.V < b.V
		}, func(x kv) uint64 { return uint64(x.K) }), Options{})
	})
	prev := kv{-1, -1}
	for _, o := range outs {
		for _, x := range o {
			if x.K < prev.K || (x.K == prev.K && x.V < prev.V) {
				t.Fatalf("order violated: %+v after %+v", x, prev)
			}
			prev = x
		}
	}
}

func TestRebalance(t *testing.T) {
	for _, p := range []int{1, 2, 4, 7} {
		w := comm.NewWorld(p)
		outs := make([][]int, p)
		w.Run(func(c *comm.Comm) {
			// Rank r holds r*10 consecutive values (globally ordered).
			start := 0
			for i := 0; i < c.Rank(); i++ {
				start += i * 10
			}
			local := make([]int, c.Rank()*10)
			for i := range local {
				local[i] = start + i
			}
			outs[c.Rank()] = Rebalance(c, local)
		})
		total := 0
		for i := 0; i < p; i++ {
			total += i * 10
		}
		k := 0
		for r, o := range outs {
			if len(o) < total/p || len(o) > (total+p-1)/p {
				t.Fatalf("p=%d rank %d: %d elements after rebalance, total %d", p, r, len(o), total)
			}
			for _, v := range o {
				if v != k {
					t.Fatalf("p=%d: order broken at %d: got %d", p, k, v)
				}
				k++
			}
		}
		if k != total {
			t.Fatalf("p=%d: lost elements: %d of %d", p, k, total)
		}
	}
}

func TestRebalanceEmpty(t *testing.T) {
	w := comm.NewWorld(3)
	w.Run(func(c *comm.Comm) {
		out := Rebalance(c, []int(nil))
		if len(out) != 0 {
			t.Errorf("rebalancing nothing produced %d elements", len(out))
		}
	})
}

func TestIsGloballySortedDetectsViolation(t *testing.T) {
	w := comm.NewWorld(3)
	w.Run(func(c *comm.Comm) {
		local := []int{c.Rank()} // 0,1,2 → sorted
		if !IsGloballySorted(c, local, intLess) {
			t.Error("sorted data reported unsorted")
		}
		bad := []int{10 - c.Rank()} // 10,9,8 → unsorted across ranks
		if IsGloballySorted(c, bad, intLess) {
			t.Error("unsorted data reported sorted")
		}
	})
}

func TestSortDeterministic(t *testing.T) {
	a1, _ := runSort(t, 8, 200, Options{Seed: 3})
	a2, _ := runSort(t, 8, 200, Options{Seed: 3})
	for r := range a1 {
		if len(a1[r]) != len(a2[r]) {
			t.Fatalf("rank %d: nondeterministic chunk size", r)
		}
		for i := range a1[r] {
			if a1[r][i] != a2[r][i] {
				t.Fatalf("rank %d: nondeterministic content", r)
			}
		}
	}
}

func BenchmarkSampleSort8x10k(b *testing.B) {
	w := comm.NewWorld(8)
	w.Run(func(c *comm.Comm) {
		local := makeLocal(8, c.Rank(), 10000, 1)
		for i := 0; i < b.N; i++ {
			Sort(c, local, ByKey(intLess, intKey), Options{})
		}
	})
}

func BenchmarkHypercube8x500(b *testing.B) {
	w := comm.NewWorld(8)
	w.Run(func(c *comm.Comm) {
		local := makeLocal(8, c.Rank(), 500, 1)
		for i := 0; i < b.N; i++ {
			Sort(c, local, ByKey(intLess, intKey), Options{})
		}
	})
}

// TestBoundaryModeledBytes: IsGloballySorted's allgather element charges
// First and Last at their declared size, 88 bytes for graph.Edge as before
// the record was packed, and its in-memory size for a plain T.
func TestBoundaryModeledBytes(t *testing.T) {
	for name, c := range map[string]struct{ got, want int }{
		"graph.Edge": {sizeof.Of[boundary[graph.Edge]](), 88},
		"uint32":     {sizeof.Of[boundary[uint32]](), 12},
		"int":        {sizeof.Of[boundary[int]](), 24},
	} {
		if c.got != c.want {
			t.Errorf("sizeof.Of[boundary[%s]] = %d, want %d", name, c.got, c.want)
		}
	}
}

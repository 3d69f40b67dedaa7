package par

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func pools() []*Pool {
	return []*Pool{nil, NewPool(1), NewPool(2), NewPool(4), NewPool(8), NewPool(0)}
}

func TestThreadsClamp(t *testing.T) {
	if NewPool(0).Threads() != 1 {
		t.Fatal("NewPool(0) should clamp to 1 thread")
	}
	if NewPool(-3).Threads() != 1 {
		t.Fatal("negative thread count should clamp to 1")
	}
	if (*Pool)(nil).Threads() != 1 {
		t.Fatal("nil pool should report 1 thread")
	}
	if NewPool(7).Threads() != 7 {
		t.Fatal("Threads should report the configured value")
	}
}

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, p := range pools() {
		for _, n := range []int{0, 1, 7, grainSize, 4*grainSize + 3} {
			hits := make([]int32, n)
			p.For(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("threads=%d n=%d: index %d visited %d times", p.Threads(), n, i, h)
				}
			}
		}
	}
}

func TestPrefixSumMatchesSequential(t *testing.T) {
	for _, p := range pools() {
		for _, n := range []int{0, 1, 5, grainSize, 5*grainSize + 1} {
			xs := make([]int, n)
			for i := range xs {
				xs[i] = i%7 - 3
			}
			out := make([]int, n)
			total := PrefixSum(p, xs, out)
			sum := 0
			for i, v := range xs {
				if out[i] != sum {
					t.Fatalf("threads=%d n=%d: out[%d]=%d want %d", p.Threads(), n, i, out[i], sum)
				}
				sum += v
			}
			if total != sum {
				t.Fatalf("threads=%d n=%d: total=%d want %d", p.Threads(), n, total, sum)
			}
		}
	}
}

func TestPrefixSumInPlace(t *testing.T) {
	p := NewPool(4)
	n := 3 * grainSize
	xs := make([]int, n)
	for i := range xs {
		xs[i] = 1
	}
	total := PrefixSum(p, xs, xs)
	if total != n {
		t.Fatalf("total=%d want %d", total, n)
	}
	for i := range xs {
		if xs[i] != i {
			t.Fatalf("in-place prefix sum wrong at %d: %d", i, xs[i])
		}
	}
}

func TestPrefixSumLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	PrefixSum(NewPool(2), make([]int, 3), make([]int, 2))
}

func TestFilterPreservesOrder(t *testing.T) {
	for _, p := range pools() {
		for _, n := range []int{0, 1, 10, 4 * grainSize} {
			xs := make([]int, n)
			for i := range xs {
				xs[i] = i
			}
			got := Filter(p, xs, func(v int) bool { return v%3 == 0 })
			want := 0
			for _, v := range got {
				if v != want {
					t.Fatalf("threads=%d: got %d want %d", p.Threads(), v, want)
				}
				want += 3
			}
			if cnt := (n + 2) / 3; len(got) != cnt {
				t.Fatalf("threads=%d n=%d: filtered %d elements, want %d", p.Threads(), n, len(got), cnt)
			}
		}
	}
}

func TestFilterProperty(t *testing.T) {
	p := NewPool(4)
	f := func(xs []int16) bool {
		ys := make([]int, len(xs))
		for i, v := range xs {
			ys[i] = int(v)
		}
		got := Filter(p, ys, func(v int) bool { return v > 0 })
		var want []int
		for _, v := range ys {
			if v > 0 {
				want = append(want, v)
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestForBlocksNumbersAscendingBlocks: the blocks tile [0, n) exactly, block
// w+1 starts where block w ends, the count returned is the number run, and a
// loop below the grain (or on one thread) is one inline block.
func TestForBlocksNumbersAscendingBlocks(t *testing.T) {
	for _, threads := range []int{1, 2, 8} {
		p := NewPool(threads)
		for _, n := range []int{0, 1, 2*grainSize - 1, 2 * grainSize, 5*grainSize + 3} {
			los, his := make([]int, threads), make([]int, threads)
			got := p.ForBlocks(n, func(w, lo, hi int) { los[w], his[w] = lo, hi })
			if want := min(1, n) * p.width(n); got != want {
				t.Fatalf("threads=%d n=%d: ran %d blocks, want %d", threads, n, got, want)
			}
			end := 0
			for w := 0; w < got; w++ {
				if los[w] != end || his[w] <= los[w] {
					t.Fatalf("threads=%d n=%d: block %d is [%d, %d), previous ended at %d", threads, n, w, los[w], his[w], end)
				}
				end = his[w]
			}
			if end != n {
				t.Fatalf("threads=%d n=%d: blocks end at %d", threads, n, end)
			}
		}
	}
}

// TestFilterAllocatesExactly: count first, then one allocation of exactly the
// survivors, at width 1 as at any other.
func TestFilterAllocatesExactly(t *testing.T) {
	xs := make([]int, 10*grainSize)
	for i := range xs {
		xs[i] = i
	}
	for _, threads := range []int{1, 4} {
		got := Filter(NewPool(threads), xs, func(v int) bool { return v%10 == 0 })
		if len(got) != grainSize || cap(got) != len(got) {
			t.Errorf("threads=%d: len %d cap %d, want both %d", threads, len(got), cap(got), grainSize)
		}
	}
}

func BenchmarkPrefixSum(b *testing.B) {
	p := NewPool(8)
	xs := make([]int, 1<<20)
	for i := range xs {
		xs[i] = 1
	}
	out := make([]int, len(xs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PrefixSum(p, xs, out)
	}
}

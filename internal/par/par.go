// Package par provides the intra-PE shared-memory parallel primitives the
// paper takes from the parlay library: parallel for over index ranges,
// blocked reductions, parallel prefix sums and parallel filtering.
//
// A Pool models the paper's "OpenMP threads per MPI process": the world
// builds one with t workers for every PE it hosts (comm.Comm.Pool). With
// t == 1 the loops run inline, with no goroutine.
package par

import "sync"

// Pool executes data-parallel loops on up to Threads concurrent workers.
// The zero value behaves like a single-threaded pool.
type Pool struct {
	threads int
}

// NewPool returns a pool with the given number of worker threads.
// Values below 1 are treated as 1.
func NewPool(threads int) *Pool {
	if threads < 1 {
		threads = 1
	}
	return &Pool{threads: threads}
}

// Threads reports the pool's degree of parallelism.
func (p *Pool) Threads() int {
	if p == nil || p.threads < 1 {
		return 1
	}
	return p.threads
}

// grainSize is the minimum number of loop iterations per worker below which
// spawning goroutines is not worth it.
const grainSize = 512

// width reports how many blocks a loop over [0, n) is split into: 1 — run
// it inline — on a single-threaded pool or below 2·grainSize iterations,
// otherwise at most Threads() blocks of at least grainSize iterations.
func (p *Pool) width(n int) int {
	t := p.Threads()
	if t == 1 || n < 2*grainSize {
		return 1
	}
	return min(t, n/grainSize)
}

// ForBlocks splits [0, n) into width(n) contiguous blocks, runs f(w, lo, hi)
// on block w — inline when there is one, concurrently otherwise — and returns
// the number of blocks once all are done. It holds the package's one go
// statement: every parallel primitive below is this loop. The split depends
// on n and Threads() alone, so two loops over the same n hand worker w the
// same block, and blocks ascend with w: a body that packs its survivors to
// the front of its block leaves runs the caller closes up in block order.
func (p *Pool) ForBlocks(n int, f func(w, lo, hi int)) int {
	if n <= 0 {
		return 0
	}
	t := p.width(n)
	if t == 1 {
		f(0, 0, n)
		return 1
	}
	chunk := (n + t - 1) / t
	var wg sync.WaitGroup
	for w := 0; w < t; w++ {
		lo := w * chunk
		hi := min(lo+chunk, n)
		if lo >= hi {
			t = w
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			f(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	return t
}

// For runs f over the index range [0, n) split into contiguous blocks, one
// block per worker. f must be safe to call concurrently on disjoint ranges.
func (p *Pool) For(n int, f func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if p.width(n) == 1 {
		f(0, n)
		return
	}
	p.ForBlocks(n, func(_, lo, hi int) { f(lo, hi) })
}

// PrefixSum computes the exclusive prefix sum of xs in parallel and returns
// the total. After the call, out[i] holds the sum of xs[0..i), and out must
// have len(xs). xs and out may alias.
func PrefixSum(p *Pool, xs, out []int) int {
	n := len(xs)
	if len(out) != n {
		panic("par: PrefixSum output length mismatch")
	}
	t := p.width(n)
	if t == 1 {
		sum := 0
		for i, v := range xs {
			out[i] = sum
			sum += v
		}
		return sum
	}
	blockSum := make([]int, t)
	p.ForBlocks(n, func(w, lo, hi int) {
		s := 0
		for i := lo; i < hi; i++ {
			s += xs[i]
		}
		blockSum[w] = s
	})
	total := 0
	for w := range blockSum {
		blockSum[w], total = total, total+blockSum[w]
	}
	p.ForBlocks(n, func(w, lo, hi int) {
		s := blockSum[w]
		for i := lo; i < hi; i++ {
			v := xs[i]
			out[i] = s
			s += v
		}
	})
	return total
}

// Filter writes the elements of xs satisfying keep into a fresh slice of
// exactly their number, preserving order. It runs in two passes (count, then
// pack) at every width, so nothing is grown and re-copied.
func Filter[T any](p *Pool, xs []T, keep func(T) bool) []T {
	n := len(xs)
	offsets := make([]int, p.width(n))
	p.ForBlocks(n, func(w, lo, hi int) {
		c := 0
		for i := lo; i < hi; i++ {
			if keep(xs[i]) {
				c++
			}
		}
		offsets[w] = c
	})
	total := 0
	for w := range offsets {
		offsets[w], total = total, total+offsets[w]
	}
	out := make([]T, total)
	p.ForBlocks(n, func(w, lo, hi int) {
		o := offsets[w]
		for i := lo; i < hi; i++ {
			if keep(xs[i]) {
				out[o] = xs[i]
				o++
			}
		}
	})
	return out
}

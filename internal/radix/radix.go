// Package radix provides the serial LSD radix sort behind the distributed
// sorter's local phases (and the sequential ground-truth algorithms): data
// is ordered by a uint64 key extracted once per element, with any remaining
// equal-key runs finished by a comparator.
//
// The key contract is order consistency, not completeness: Key(a) < Key(b)
// must imply less(a, b). Elements whose keys collide are left to less, so a
// key may encode only a prefix of the order (e.g. graph.KeyLex packs the
// (U, V) endpoints and leaves (W, TB, ID) to the comparator). The sort is
// performed on (key, index) pairs — 16 bytes moved per pass instead of the
// full element — followed by one gather of the elements into the
// destination (SortInto: a buffer of the caller's; Sort gathers into a
// fresh buffer and copies back), and counting passes whose byte is
// constant across all keys are skipped entirely, so narrow key distributions
// (a 14-bit vertex range, a 8-bit weight) pay only for the bytes that vary.
package radix

import (
	"fmt"
	"slices"
)

// KV is one sort item: the element's extracted key and its original index.
// Exported so callers can provide recycled scratch.
type KV struct {
	K uint64
	I uint32
}

// insertionMax is the equal-key run length up to which the comparator
// finish uses insertion sort (no allocation); longer runs fall back to
// slices.SortFunc.
const insertionMax = 32

// Sort sorts data by key (ties finished with less), allocating its own
// scratch: the into-kernel with a fresh destination, plus the copy back.
// Like SortInto it refuses 2^32 elements or more. Hot paths with recycled
// buffers use SortInto.
func Sort[T any](data []T, key func(T) uint64, less func(a, b T) bool) {
	n := len(data)
	if n < 2 {
		return
	}
	perm := make([]T, n)
	if SortInto(perm, data, key, less, make([]KV, n), make([]KV, n)) {
		copy(data, perm)
	}
}

// SortInto is the one radix kernel: it writes the elements of src into dst
// in sorted order (by key, ties finished with less), leaves src as it was,
// and reports whether the two orders differ. dst, pairs and tmp must each
// have length len(src), which must be below 2^32, and dst must not overlap
// src; the scratch contents are overwritten.
func SortInto[T any](dst, src []T, key func(T) uint64, less func(a, b T) bool, pairs, tmp []KV) bool {
	n := len(src)
	if uint64(n) >= 1<<32 {
		panic(fmt.Sprintf("radix: %d elements overflow the uint32 index of a (key, index) pair", n))
	}
	if len(dst) != n || len(pairs) != n || len(tmp) != n {
		panic("radix: scratch length mismatch")
	}
	if n < 2 {
		copy(dst, src)
		return false
	}
	// Extract keys, folding in an already-sorted check (the pattern pdqsort
	// detects; common for re-sorts of nearly-static data).
	k0 := key(src[0])
	pairs[0] = KV{K: k0}
	orAll, andAll := k0, k0
	prevK := k0
	sorted := true
	for i := 1; i < n; i++ {
		k := key(src[i])
		pairs[i] = KV{K: k, I: uint32(i)}
		orAll |= k
		andAll &= k
		if sorted && (k < prevK || (k == prevK && less(src[i], src[i-1]))) {
			sorted = false
		}
		prevK = k
	}
	if sorted {
		copy(dst, src)
		return false
	}
	if orAll == andAll {
		// Every key equal: the radix passes are no-ops; hand the whole
		// slice to the comparator.
		copy(dst, src)
		finishRun(dst, less)
		return true
	}
	// LSD counting passes over the bytes that vary. Each pass is stable, so
	// equal keys keep their original relative order throughout.
	from, to := pairs, tmp
	varying := orAll ^ andAll
	for shift := 0; shift < 64; shift += 8 {
		if (varying>>shift)&0xFF == 0 {
			continue
		}
		var cnt [256]int
		for _, p := range from {
			cnt[(p.K>>shift)&0xFF]++
		}
		pos := 0
		for b := 0; b < 256; b++ {
			c := cnt[b]
			cnt[b] = pos
			pos += c
		}
		for _, p := range from {
			b := (p.K >> shift) & 0xFF
			to[cnt[b]] = p
			cnt[b]++
		}
		from, to = to, from
	}
	// Gather the elements into key order — the one move of each element —
	// then finish equal-key runs with the comparator where they lie
	// (stability left them in original order, not sorted order).
	for j, p := range from {
		dst[j] = src[p.I]
	}
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && from[hi].K == from[lo].K {
			hi++
		}
		if hi-lo > 1 {
			finishRun(dst[lo:hi], less)
		}
		lo = hi
	}
	return true
}

// finishRun comparator-sorts one equal-key run: insertion sort for short
// runs, pdqsort beyond insertionMax.
func finishRun[T any](run []T, less func(a, b T) bool) {
	if len(run) <= insertionMax {
		for i := 1; i < len(run); i++ {
			for j := i; j > 0 && less(run[j], run[j-1]); j-- {
				run[j], run[j-1] = run[j-1], run[j]
			}
		}
		return
	}
	slices.SortFunc(run, CmpOf(less))
}

// CmpOf adapts a strict order to the slices.SortFunc contract — the shared
// comparator bridge for every comparison sort.
func CmpOf[T any](less func(a, b T) bool) func(a, b T) int {
	return func(a, b T) int {
		switch {
		case less(a, b):
			return -1
		case less(b, a):
			return 1
		}
		return 0
	}
}

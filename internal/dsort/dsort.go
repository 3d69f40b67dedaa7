// Package dsort provides the distributed sorting algorithms of §II-A and
// §VI-C: hypercube quicksort for small inputs (below 512 elements per PE on
// average, following the paper's rule) and a two-level sample sort in the
// spirit of AMS-sort for large inputs. Both leave the data globally sorted
// — PE i holds a contiguous chunk, chunks ordered by rank — and perfectly
// balanced (sizes differing by at most one).
//
// Sample sort delivers its data through alltoall.Auto, which picks the
// "two-level" grid delivery for small messages — what makes the sorter scale
// on large machines — and the direct exchange otherwise. Splitters are
// selected from a gathered random sample (the paper sorts the samples with
// the hypercube algorithm; gathering them gives identical splitters, a
// documented simplification).
//
// # Keys and local sorting
//
// The sorter is built around sortable integer keys (Order): the caller
// supplies a Key — a uint64 extraction that is order-consistent with the
// comparator, like graph.KeyLex/graph.KeyWeight — so every local sort runs
// as an LSD radix pass (internal/radix) instead of a comparison sort, and
// the p received runs are merged with a loser tree that caches each run's
// head key (O(log p) integer comparisons per element; the comparator only
// breaks key ties). The modeled compute charges remain the paper's
// comparison-sort model (n·log n), so the modeled clock is independent of
// the local algorithm.
//
// # Memory ownership
//
// Every local phase writes its result where the next phase reads it: the
// caller's data is sorted INTO the local slot, that slot cut at the
// splitters IS the exchange frame (alltoall.ExchangeFlat, under comm's one
// ownership rule: the sorter next writes it after Rebalance's first
// collective has returned, when every reader is done), the merge fills the
// merge slot, and Rebalance moves the share that stays on this PE with one
// copy and packs only the rest into its send frame. All of it, the returned chunk included, lives in the
// world-owned per-PE scratch arena (comm.Comm.Scratch), in slots keyed per
// element type, so steady-state sorts allocate nothing beyond the
// substrate's collective-internal floor. The flip side is a lifetime
// contract: the slice returned by Sort or Rebalance is valid only until the
// NEXT dsort collective with the same element type on the same world (and
// must not be that collective's input at p = 1, where it would be sorted
// onto itself); a result that has to outlive later sorts goes to a slot of
// the caller's through RebalanceInto, as gen.Finish's does.
package dsort

import (
	"math"
	"math/bits"
	"slices"
	"unsafe"

	"kamsta/internal/alltoall"
	"kamsta/internal/arena"
	"kamsta/internal/comm"
	"kamsta/internal/radix"
	"kamsta/internal/rng"
	"kamsta/internal/sizeof"
)

// Options configures Sort.
type Options struct {
	// Seed drives sampling and pivot selection.
	Seed uint64
}

// The sorter's fixed tuning constants.
const (
	// hypercubeBelow is the average per-PE element count below which Sort
	// uses hypercube quicksort on a power-of-two world (§VI-C: "fewer than
	// 512 elements per PE").
	hypercubeBelow = 512
	// splitterSamples is the number of splitter samples sample sort draws
	// per PE.
	splitterSamples = 16
)

// Key extracts a uint64 sort key from an element. It must be
// order-consistent with the Order's comparator: Key(a) < Key(b) implies
// less(a, b). Equal keys are finished by the comparator, so a key may
// encode only a prefix of the order.
type Key[T any] func(T) uint64

// Order bundles the comparator that defines the global sort order with the
// integer key the local phases sort by.
type Order[T any] struct {
	// Less is the strict weak order to sort by; for fully deterministic
	// splits it should be a total order.
	Less func(a, b T) bool
	// Key drives the radix local sorts and the merge. See Key for the
	// consistency contract.
	Key Key[T]
}

// ByKey builds an Order.
func ByKey[T any](less func(a, b T) bool, key Key[T]) Order[T] {
	return Order[T]{Less: less, Key: key}
}

// typeKeys is the per-element-type set of arena slot keys backing one
// instantiation of the sorter. Keys are process-wide; the storage behind
// them is per-PE (each arena owns its slots).
type typeKeys struct {
	local     arena.Key        // []T: sorted local data — the sample-sort exchange frame
	off       arena.Key        // []int32: that frame's bucket offsets
	samples   arena.Key        // []T: splitter sample staging
	all       arena.Key        // []T: gathered global sample
	split     arena.Key        // []T: the gathered sample, sorted
	merge     arena.Key        // []T: k-way merge output
	mergeTree arena.Key        // []int32: loser-tree nodes
	mergeKeys arena.Key        // []uint64: per-run cached head keys
	mergeRest arena.Key        // [][]T: per-run remaining elements
	out       arena.Key        // []T: Rebalance output (the returned chunk)
	rebSend   alltoall.SendKey // Rebalance's send frame: the foreign shares
	hcLocal   arena.Key        // []T: hypercube working set
	hcLow     arena.Key        // []T: partition low side
	hcHigh    arena.Key        // []T: partition high side
	hcSamples arena.Key        // []T: pivot sample staging
	hcMerged  arena.Key        // []T: the group's samples, merged and sorted
	hcMembers arena.Key        // []int: subcube member ranks
	rxPairs   arena.Key        // []radix.KV: radix (key, index) pairs
	rxTmp     arena.Key        // []radix.KV: radix ping-pong buffer
}

// keysByType holds each element type's typeKeys.
var keysByType arena.Registry

// keysFor returns the arena key set of element type T, allocating it on
// first use.
func keysFor[T any]() *typeKeys {
	return arena.ForType[T](&keysByType, func() *typeKeys {
		return &typeKeys{
			local: arena.NewKey(), off: arena.NewKey(), samples: arena.NewKey(),
			all: arena.NewKey(), split: arena.NewKey(), merge: arena.NewKey(),
			mergeTree: arena.NewKey(), mergeKeys: arena.NewKey(), mergeRest: arena.NewKey(),
			out: arena.NewKey(), rebSend: alltoall.NewSendKey(),
			hcLocal: arena.NewKey(), hcLow: arena.NewKey(), hcHigh: arena.NewKey(),
			hcSamples: arena.NewKey(), hcMerged: arena.NewKey(), hcMembers: arena.NewKey(),
			rxPairs: arena.NewKey(), rxTmp: arena.NewKey(),
		}
	})
}

// Sort globally sorts the union of all PEs' local data under ord and
// returns this PE's balanced, contiguous chunk: by hypercube quicksort when
// the world is a power of two holding fewer than hypercubeBelow elements per
// PE on average, by sample sort otherwise. The result is arena-backed:
// valid until the next dsort collective with the same element type on this
// world (see the package ownership notes); data itself is not mutated.
func Sort[T any](c *comm.Comm, data []T, ord Order[T], opt Options) []T {
	p := c.P()
	ks := keysFor[T]()
	if p == 1 {
		out := arena.Grab[T](c.Scratch(), ks.out, len(data))
		localSortInto(c, ks, out, data, ord)
		return out
	}
	total := comm.Allreduce(c, len(data), func(a, b int) int { return a + b })
	if total/p < hypercubeBelow && p&(p-1) == 0 {
		return hypercubeQuicksort(c, ks, data, ord, opt)
	}
	return sampleSort(c, ks, data, ord, opt)
}

// sortInto radix-sorts src into dst (same length, no overlap) without
// charging modeled time and without writing src.
func sortInto[T any](c *comm.Comm, ks *typeKeys, dst, src []T, ord Order[T]) {
	n, a := len(src), c.Scratch()
	radix.SortInto(dst, src, ord.Key, ord.Less,
		arena.Grab[radix.KV](a, ks.rxPairs, n), arena.Grab[radix.KV](a, ks.rxTmp, n))
}

// localSortInto is sortInto plus the modeled n·log n comparison charge — the
// paper's cost model for the local phase, not the radix sort's.
func localSortInto[T any](c *comm.Comm, ks *typeKeys, dst, src []T, ord Order[T]) {
	sortInto(c, ks, dst, src, ord)
	if n := len(src); n > 1 {
		c.ChargeCompute(n * Log2Ceil(n))
	}
}

// Log2Ceil is ⌈log2 n⌉, at least 1: the per-element factor of every modeled
// comparison-sort charge, here and in internal/core.
func Log2Ceil(n int) int {
	k := 0
	for v := 1; v < n; v <<= 1 {
		k++
	}
	if k == 0 {
		return 1
	}
	return k
}

// sampleSort: local sort → sample → gathered splitter selection → bucket
// partition → all-to-all delivery → loser-tree p-way merge → rebalance.
func sampleSort[T any](c *comm.Comm, ks *typeKeys, data []T, ord Order[T], opt Options) []T {
	p, rank := c.P(), c.Rank()
	a := c.Scratch()
	local := arena.Grab[T](a, ks.local, len(data))
	localSortInto(c, ks, local, data, ord)

	// Sample uniformly at random from the local data. The samples slot is
	// deposited to AllgatherConcat, which reads it only in the pre-release
	// combine — reusable as soon as the call returns.
	r := rng.New(opt.Seed).Split(uint64(rank))
	samples := arena.GrabAppend[T](a, ks.samples)
	for i := 0; i < splitterSamples && len(local) > 0; i++ {
		samples = append(samples, local[r.Intn(len(local))])
	}
	arena.Keep(a, ks.samples, samples)
	all := comm.AllgatherConcatInto(c, arena.GrabAppend[T](a, ks.all), samples)
	arena.Keep(a, ks.all, all)
	split := arena.Grab[T](a, ks.split, len(all))
	sortInto(c, ks, split, all, ord)
	c.ChargeCompute(len(all) * Log2Ceil(len(all)+1))

	// Cut the sorted local data at the p-1 sample quantiles. The buckets
	// lie back to back in local, so local and the offsets are the exchange
	// frame as they stand; the next write to either is the next Sort's,
	// after Rebalance's collectives.
	off := arena.Grab[int32](a, ks.off, p+1)
	lo := 0
	for b := 0; b < p; b++ {
		off[b] = int32(lo) // a wrap is caught by the exchange's length check
		if b < p-1 && len(split) > 0 {
			lo += lowerBound(local[lo:], split[(b+1)*len(split)/p], ord.Less)
		}
	}
	off[p] = int32(len(local))
	c.ChargeCompute(len(local))

	recv := alltoall.ExchangeFlat(c, alltoall.Auto, local, off)
	merged := kwayMerge(c, ks, recv, ord)
	c.ChargeCompute(len(merged) * Log2Ceil(p+1))
	return Rebalance(c, merged)
}

// kwayMerge merges the already-sorted received runs with a loser tree over
// each run's remaining elements: one pass from the winner's leaf to the root
// per element, comparing cached head keys and calling the comparator only
// where keys tie. What still ties goes to the lowest run index, so the
// output is the stable merge of the runs in rank order for any input, weak
// orders included.
//
// Runs that already follow one another — no non-empty run's head below the
// last element of the non-empty run before it, as when the input was
// globally sorted before the exchange — are copied in rank order instead:
// that is the sequence the tree would produce.
func kwayMerge[T any](c *comm.Comm, ks *typeKeys, runs [][]T, ord Order[T]) []T {
	a := c.Scratch()
	total, K := 0, 1
	inOrder := true
	var prev []T // the last non-empty run so far
	for _, r := range runs {
		total += len(r)
		if len(r) > 0 {
			inOrder = inOrder && (prev == nil || !ord.Less(r[0], prev[len(prev)-1]))
			prev = r
		}
	}
	out := arena.Grab[T](a, ks.merge, total)
	if inOrder {
		pos := 0
		for _, r := range runs {
			pos += copy(out[pos:], r)
		}
		return out
	}
	for K < len(runs) {
		K <<= 1
	}
	// Leaf i is run i, padded with empty runs up to the power of two K. A
	// run's cached key is its head's, or exhausted once it is empty, so an
	// empty run loses on the integer comparison.
	const exhausted = math.MaxUint64
	rest := arena.Grab[[]T](a, ks.mergeRest, K)
	keys := arena.Grab[uint64](a, ks.mergeKeys, K)
	continueAt := func(i int32, r []T) {
		rest[i], keys[i] = r, exhausted
		if len(r) > 0 {
			keys[i] = ord.Key(r[0])
		}
	}
	for i := len(runs); i < K; i++ {
		continueAt(int32(i), nil)
	}
	for i, r := range runs {
		continueAt(int32(i), r)
	}
	// before reports whether run x's head is emitted before run y's; the
	// merge loop compares the keys inline and calls it only where they tie.
	before := func(x, y int32) bool {
		if keys[x] != keys[y] {
			return keys[x] < keys[y]
		}
		rx, ry := rest[x], rest[y]
		switch {
		case len(rx) == 0 || len(ry) == 0: // a real key may equal exhausted
			return len(ry) == 0
		case x < y:
			return !ord.Less(ry[0], rx[0])
		}
		return ord.Less(rx[0], ry[0])
	}
	// Play the tournament once as a winner tree (tree[K+i] = leaf i), keep
	// the champion in tree[0], then turn each node top-down into the loser
	// of its match: the child that is not its winner.
	tree := arena.Grab[int32](a, ks.mergeTree, 2*K)
	for i := 0; i < K; i++ {
		tree[K+i] = int32(i)
	}
	for i := K - 1; i >= 1; i-- {
		tree[i] = tree[2*i]
		if before(tree[2*i+1], tree[2*i]) {
			tree[i] = tree[2*i+1]
		}
	}
	tree[0] = tree[1]
	for i := 1; i < K; i++ {
		tree[i] = tree[2*i] ^ tree[2*i+1] ^ tree[i]
	}
	for pos := range out {
		w := tree[0]
		out[pos] = rest[w][0]
		continueAt(w, rest[w][1:])
		for i := (K + int(w)) / 2; i >= 1; i /= 2 {
			l := tree[i]
			if kl, kw := keys[l], keys[w]; kl < kw || (kl == kw && before(l, w)) {
				tree[i], w = w, l
			}
		}
		tree[0] = w
	}
	return out
}

// hqsLoadProbe, when non-nil, observes the hypercube recursion's load after
// every level's pair exchange as (rank, level, localLen). Tests use it to
// assert that duplicate-heavy inputs stay balanced mid-recursion.
var hqsLoadProbe func(rank, level, n int)

// hypercubeQuicksort recursively halves the hypercube: in every dimension
// the group agrees on a pivot from gathered samples, partners exchange the
// halves that belong on the other side, and the recursion descends into the
// subcube. Terminates with a local sort and a global rebalance.
//
// Keys equal to the pivot alternate sides, first tie high: under a total
// order at most one element in the world compares equal to the pivot, so
// the exchange is byte-for-byte that of an all-ties-high partition, while
// under duplicate-heavy weak orders (all-equal keys are legal) each PE
// splits its tie class evenly instead of collapsing the whole input onto
// the high subcube.
func hypercubeQuicksort[T any](c *comm.Comm, ks *typeKeys, data []T, ord Order[T], opt Options) []T {
	p, rank := c.P(), c.Rank()
	a := c.Scratch()
	less := ord.Less
	local := arena.Grab[T](a, ks.hcLocal, len(data))
	copy(local, data)
	r := rng.New(opt.Seed ^ 0x9E37).Split(uint64(rank))

	groupSize := p
	base := 0 // first rank of my current subcube
	level := 0
	for groupSize > 1 {
		half := groupSize / 2
		members := arena.Grab[int](a, ks.hcMembers, groupSize)
		for i := range members {
			members[i] = base + i
		}
		// Pivot: median of a few samples per group member. The sample set
		// is a reference-typed GroupAllreduce deposit: its Items array is
		// written only here and next re-grabbed after the level's pair
		// exchange — one collective later — which satisfies the
		// immutable-until-next-collective contract comm places on deposited
		// values containing references.
		type sampleSet struct{ Items []T }
		items := arena.GrabAppend[T](a, ks.hcSamples)
		for i := 0; i < 3 && len(local) > 0; i++ {
			items = append(items, local[r.Intn(len(local))])
		}
		arena.Keep(a, ks.hcSamples, items)
		mySamples := sampleSet{Items: items}
		// The fold runs left to right over the members (GroupAllreduce), so
		// x is the first member's set on the first call and the merge so far
		// on every later one: the merge appends to its own slot, and only
		// while it is still empty does x need copying in.
		merged := arena.GrabAppend[T](a, ks.hcMerged)
		gathered := comm.GroupAllreduce(c, members, mySamples, func(x, y sampleSet) sampleSet {
			if len(merged) == 0 {
				merged = append(merged, x.Items...)
			}
			merged = append(merged, y.Items...)
			return sampleSet{Items: merged}
		})
		arena.Keep(a, ks.hcMerged, merged)
		slices.SortFunc(gathered.Items, radix.CmpOf(less))

		inLow := rank < base+half
		partner := rank + half
		if !inLow {
			partner = rank - half
		}
		var keep, give []T
		if len(gathered.Items) > 0 { // else the whole group is empty
			pivot := gathered.Items[len(gathered.Items)/2]
			// local is unsorted between rounds: partition by scan,
			// alternating pivot-equal keys (first tie high).
			lowPart := arena.GrabAppend[T](a, ks.hcLow)
			highPart := arena.GrabAppend[T](a, ks.hcHigh)
			tieHigh := true
			for _, x := range local {
				switch {
				case less(x, pivot):
					lowPart = append(lowPart, x)
				case less(pivot, x):
					highPart = append(highPart, x)
				case tieHigh:
					highPart = append(highPart, x)
					tieHigh = false
				default:
					lowPart = append(lowPart, x)
					tieHigh = true
				}
			}
			arena.Keep(a, ks.hcLow, lowPart)
			arena.Keep(a, ks.hcHigh, highPart)
			c.ChargeCompute(len(local))
			keep, give = lowPart, highPart
			if !inLow {
				keep, give = highPart, lowPart
			}
		}
		// give is deposited as it lies, and got, the partner's give, is
		// copied out before the next collective.
		got := comm.PairExchange(c, partner, give)
		local = arena.Grab[T](a, ks.hcLocal, len(keep)+len(got))
		copy(local, keep)
		copy(local[len(keep):], got)
		if hqsLoadProbe != nil {
			hqsLoadProbe(rank, level, len(local))
		}
		if !inLow {
			base += half
		}
		groupSize = half
		level++
	}
	sorted := arena.Grab[T](a, ks.local, len(local))
	localSortInto(c, ks, sorted, local, ord)
	return Rebalance(c, sorted)
}

// lowerBound returns the first index in s whose element is not below x —
// the splitter boundary binary search.
func lowerBound[T any](s []T, x T, less func(a, b T) bool) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if less(s[mid], x) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// rebalanceBound returns floor(j·total/p) — the first global position owned
// by PE j — via 128-bit intermediate arithmetic, so the boundaries stay
// exact even where j·total overflows int64.
func rebalanceBound(j, total, p int) int {
	hi, lo := bits.Mul64(uint64(j), uint64(total))
	q, _ := bits.Div64(hi, lo, uint64(p))
	return int(q)
}

// Rebalance redistributes globally ordered data (PE i's chunk entirely
// before PE i+1's) so every PE ends with ⌈total/p⌉ or ⌊total/p⌋ elements,
// preserving the global order. It is also the final step of REDISTRIBUTE
// (§IV-C). The result is arena-backed under the same lifetime contract as
// Sort; data may alias a previous dsort result.
func Rebalance[T any](c *comm.Comm, data []T) []T {
	return RebalanceInto(c, keysFor[T]().out, data)
}

// RebalanceInto is Rebalance writing its result into the caller's arena
// slot, which makes the result's lifetime the caller's: valid until slot is
// grabbed again. data may lie anywhere in that slot — the shape Sort →
// dedup in place → Rebalance has.
func RebalanceInto[T any](c *comm.Comm, slot arena.Key, data []T) []T {
	p, rank := c.P(), c.Rank()
	a := c.Scratch()
	if p == 1 {
		out := arena.Grab[T](a, slot, len(data))
		copy(out, data)
		return out
	}
	before := comm.ExScan(c, len(data), 0, sum)
	total := comm.Allreduce(c, len(data), sum)
	if total == 0 {
		return nil
	}
	// PE j owns global positions [bound(j), bound(j+1)) and data holds
	// [before, before+len(data)), so data[:cut(j)] lies before PE j's range.
	bound := func(j int) int { return rebalanceBound(j, total, p) }
	cut := func(j int) int { return min(max(bound(j)-before, 0), len(data)) }
	// Only what leaves this PE enters the frame, copied there, so data is
	// free once the exchange returns; the share it keeps never does — the
	// modeled charge excludes the self bucket anyway.
	send := alltoall.NewBuilder[T](c, keysFor[T]().rebSend)
	for j := 0; j < p; j++ {
		if j != rank {
			send.Append(j, data[cut(j):cut(j+1)])
		}
	}
	own := data[cut(rank):cut(rank+1)]
	recv := send.Exchange(alltoall.Direct)
	// Grabbed only after the frame holds what leaves, and the own share
	// moves before anything else is written: data may lie in this very slot,
	// so the copy may overlap itself (or, when the slot had to grow, read
	// the old backing) and the foreign shares land on what it has left.
	out := arena.Grab[T](a, slot, bound(rank+1)-bound(rank))
	at := min(max(before-bound(rank), 0), len(out)) // lower ranks fill out[:at]
	copy(out[at:], own)
	pos := 0
	for i, r := range recv {
		if i == rank { // r is empty: nothing was sent to self
			pos += len(own)
		}
		pos += copy(out[pos:], r)
	}
	return out
}

// boundary is BoundariesSorted's allgathered element: a PE's first and last
// element, if it has any.
type boundary[T any] struct {
	Has         bool
	First, Last T
}

// ModeledBytes is boundary's in-memory size with First and Last counted at
// T's modeled size (8 + 2·sizeof.Of[T] for an 8-aligned T).
func (*boundary[T]) ModeledBytes() int {
	var z T
	return int(unsafe.Sizeof(boundary[T]{})) + 2*(sizeof.Of[T]()-int(unsafe.Sizeof(z)))
}

// IsGloballySorted reports (on every PE) whether the distributed data is
// globally sorted under less: one local pass, then BoundariesSorted's two
// small collectives.
func IsGloballySorted[T any](c *comm.Comm, data []T, less func(a, b T) bool) bool {
	okLocal := true
	for i := 1; i < len(data); i++ {
		if less(data[i], data[i-1]) {
			okLocal = false
			break
		}
	}
	return BoundariesSorted(c, data, okLocal, less)
}

// BoundariesSorted is IsGloballySorted taking each PE's verdict on its own
// order from the caller, who made it in a pass of its own (gen.Build's
// verified path): one Allgather of each PE's first and last element checks
// the order across PEs, and one Allreduce combines every verdict.
func BoundariesSorted[T any](c *comm.Comm, data []T, okLocal bool, less func(a, b T) bool) bool {
	b := boundary[T]{Has: len(data) > 0}
	if b.Has {
		b.First, b.Last = data[0], data[len(data)-1]
	}
	all := comm.Allgather(c, b)
	okGlobal := okLocal
	var prev boundary[T] // the last non-empty PE's, Has false before it
	for i := range all {
		if !all[i].Has {
			continue
		}
		if prev.Has && less(all[i].First, prev.Last) {
			okGlobal = false
		}
		prev = all[i]
	}
	return comm.Allreduce(c, okGlobal, both)
}

// sum and both are the reductions of the generic functions above: a func
// literal there would carry the instantiation's dictionary, so each call
// would allocate it.
func sum(a, b int) int    { return a + b }
func both(a, b bool) bool { return a && b }

package comm

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"kamsta/internal/sizeof"
)

// Collectives. Because Go methods cannot take type parameters, the
// collectives are package-level generic functions taking the Comm as their
// first argument. Every PE of the world must call the same sequence of
// collectives with compatible arguments (SPMD); a divergence panics with a
// diagnostic rather than deadlocking.
//
// Modeled costs follow §II-A of the paper:
//
//	broadcast, (all)reduce, prefix sum:  α·log p + β·ℓ
//	allgather:                           α·log p + β·Σℓᵢ
//	direct personalized all-to-all:      α·p + β·ℓ   (ℓ = bottleneck volume)
//
// Indirect all-to-all strategies (grid, hypercube) live in
// internal/alltoall and self-account via RawAlltoall + ChargeComm.
//
// Reducing collectives (Allreduce, ExScan, Allgather, AllgatherConcat) fold
// their deposits ONCE, in the barrier's pre-release combine step, instead of
// once per PE; op and the deposited values must therefore be deterministic
// and rank-independent (the same requirement MPI places on reduction
// operators).
//
// Ownership: deposits only the pre-release combine reads (the reducing
// collectives) or plain values boxed into the board leave callers free to
// mutate inputs and outputs the moment a collective returns. Everything else
// another PE reads after release — Alltoall, RawAlltoall and PairExchange
// frames, a GroupAllreduce value with a slice field — is under ONE rule: the
// sender leaves it unchanged until its next collective has returned, and what
// a PE receives aliases the sender's memory, read-only until the receiver's
// next collective. Nothing is copied: a PE's next collective returns only
// after every PE has entered it, which each does only after its reads.

// Barrier synchronizes all PEs (and their modeled clocks).
func Barrier(c *Comm) {
	c.exchange(mkTag(opBarrier, 0), nil, nil, nil, nil)
	c.ChargeComm(log2Ceil(c.P()), 0)
	c.stats.Collectives++
}

// Allreduce combines every PE's value with the associative op and returns
// the result on all PEs. op must be deterministic and rank-independent.
func Allreduce[T any](c *Comm, x T, op func(a, b T) T) T {
	var out T
	c.exchange(mkTag(opAllreduce, 0), x, wireCodec[T](c), func(boards []deposit) any {
		acc := boards[0].Val.(T)
		for i := 1; i < len(boards); i++ {
			acc = op(acc, boards[i].Val.(T))
		}
		return acc
	}, func(res any, _ []deposit) {
		out = res.(T)
	})
	c.ChargeComm(log2Ceil(c.P()), sizeof.Of[T]())
	c.stats.Collectives++
	return out
}

// AllreduceVec combines equal-length vectors element-wise with op and
// returns the result on all PEs, in dst[:len(xs)] — dst grown when it is
// shorter, so the result is the caller's memory either way; dst may be xs.
// This is the workhorse of the replicated base case (§IV-D): an allreduce
// with vector length n′. The reduction runs as a hypercube butterfly so
// local work is O(ℓ·log p), while the modeled charge is the pipelined-tree
// bound α·log p + β·ℓ from §II-A.
//
// The butterfly is allocation-free: each PE ping-pongs between the result
// vector and one scratch vector. Depositing one for round r is safe because
// the owner only writes the OTHER buffer until it has passed the barrier of
// round r+1 — by which point every reader of round r is done (the same
// double-buffering argument the boards rely on). The result was last
// deposited in the final butterfly round, and the unfold superstep after it
// is the "one more barrier" that hands it back to the caller free to write.
// The scratch vector is the rank's world-owned one (World.arv), and the
// ping-pong starts on whichever of the two leaves the result in dst. Only
// the unfold's copy for a folded rank (p not a power of two) is allocated.
func AllreduceVec[T any](c *Comm, dst, xs []T, op func(a, b T) T) []T {
	p, rank := c.P(), c.Rank()
	n := len(xs)
	if cap(dst) < n {
		dst = make([]T, n)
	}
	acc := dst[:n]
	if p == 1 {
		copy(acc, xs)
	} else {
		arvCd := wireCodec[[]T](c)
		// Fold ranks beyond the largest power of two into the cube first.
		k := 1
		for k*2 <= p {
			k *= 2
		}
		var scratch []T
		if rank < k {
			scratch = arvVector[T](c, n)
			if bits.TrailingZeros(uint(k))%2 == 1 {
				// An odd number of butterfly rounds swaps the two an odd
				// number of times.
				acc, scratch = scratch, acc
			}
		}
		copy(acc, xs)
		// All ranks pass through the same exchanges to stay SPMD; ranks
		// without a contribution (or partner) deposit nil.
		foldTag := mkTag(opARVFold, 0)
		if rank >= k {
			// Extra rank contributes its vector; it will not touch acc
			// again until the unfold read, long after the fold window.
			c.exchange(foldTag, acc, arvCd, nil, nil)
		} else {
			c.exchange(foldTag, nil, arvCd, nil, func(_ any, boards []deposit) {
				if rank+k < p {
					other := boards[rank+k].Val.([]T)
					if len(other) != n {
						panic(fmt.Sprintf("comm: AllreduceVec length mismatch: %d vs %d", n, len(other)))
					}
					// In-place is fine: this PE's fold deposit was nil.
					for j := range acc {
						acc[j] = op(acc[j], other[j])
					}
				}
			})
		}
		bit := 0
		for d := 1; d < k; d <<= 1 {
			tag := mkTag(opARVBfly, bit)
			bit++
			if rank < k {
				partner := rank ^ d
				c.exchange(tag, acc, arvCd, nil, func(_ any, boards []deposit) {
					other := boards[partner].Val.([]T)
					if len(other) != n {
						panic(fmt.Sprintf("comm: AllreduceVec length mismatch: %d vs %d", n, len(other)))
					}
					for j := range scratch {
						scratch[j] = op(acc[j], other[j])
					}
				})
				acc, scratch = scratch, acc
			} else {
				c.exchange(tag, nil, arvCd, nil, nil)
			}
		}
		// Send the final vector back to the extra ranks.
		unfoldTag := mkTag(opARVUnfold, 0)
		if rank < k {
			var dep any
			if rank+k < p {
				// This deposit is read by the extra rank after the caller
				// regains acc, so it must be a staged copy.
				cp := make([]T, n)
				copy(cp, acc)
				dep = cp
			}
			c.exchange(unfoldTag, dep, arvCd, nil, nil)
		} else {
			c.exchange(unfoldTag, nil, arvCd, nil, func(_ any, boards []deposit) {
				src := boards[rank-k].Val.([]T)
				copy(acc, src)
			})
		}
	}
	c.ChargeComm(log2Ceil(p), n*sizeof.Of[T]())
	c.stats.Collectives++
	return acc
}

// arvVector returns this rank's AllreduceVec ping-pong vector, length n.
func arvVector[T any](c *Comm, n int) []T {
	v, _ := c.w.arv[c.rank].(*[]T)
	if v == nil {
		v = new([]T)
		c.w.arv[c.rank] = v
	}
	if cap(*v) < n {
		*v = make([]T, n)
	}
	return (*v)[:n]
}

// ExScan returns the exclusive prefix combination of x over ranks: rank r
// receives op(x₀, …, x_{r−1}), and rank 0 receives zero. op must be
// deterministic and rank-independent.
func ExScan[T any](c *Comm, x T, zero T, op func(a, b T) T) T {
	var out T
	c.exchange(mkTag(opExScan, 0), x, wireCodec[T](c), func(boards []deposit) any {
		prefix := make([]T, len(boards))
		prefix[0] = zero
		for i := 1; i < len(boards); i++ {
			prefix[i] = op(prefix[i-1], boards[i-1].Val.(T))
		}
		return prefix
	}, func(res any, _ []deposit) {
		out = res.([]T)[c.rank]
	})
	c.ChargeComm(log2Ceil(c.P()), sizeof.Of[T]())
	c.stats.Collectives++
	return out
}

// Allgather collects one value from every PE into a rank-indexed slice on
// all PEs.
func Allgather[T any](c *Comm, x T) []T {
	var out []T
	c.exchange(mkTag(opAllgather, 0), x, wireCodec[T](c), func(boards []deposit) any {
		vals := make([]T, len(boards))
		for i := range boards {
			vals[i] = boards[i].Val.(T)
		}
		return vals
	}, func(res any, _ []deposit) {
		src := res.([]T)
		out = make([]T, len(src))
		copy(out, src)
	})
	c.ChargeComm(log2Ceil(c.P()), c.P()*sizeof.Of[T]())
	c.stats.Collectives++
	return out
}

// AllgatherConcat concatenates every PE's slice in rank order on all PEs.
// The deposited slices are only read by the pre-release combine (while all
// depositors are still inside the barrier), so callers may mutate xs as
// soon as the call returns.
func AllgatherConcat[T any](c *Comm, xs []T) []T {
	return AllgatherConcatInto(c, nil, xs)
}

// AllgatherConcatInto is AllgatherConcat appending the concatenation into
// dst (arena-friendly: pass a recycled zero-length slice to keep the
// caller-side result allocation-free; the combine-side staging buffer is
// collective-internal). Modeled cost and wire behaviour are identical to
// AllgatherConcat.
func AllgatherConcatInto[T any](c *Comm, dst []T, xs []T) []T {
	out := dst
	c.exchange(mkTag(opAllgatherConcat, 0), xs, wireCodec[[]T](c), func(boards []deposit) any {
		total := 0
		for i := range boards {
			total += len(boards[i].Val.([]T))
		}
		cat := make([]T, 0, total)
		for i := range boards {
			cat = append(cat, boards[i].Val.([]T)...)
		}
		return cat
	}, func(res any, _ []deposit) {
		out = append(out, res.([]T)...)
	})
	c.ChargeComm(log2Ceil(c.P()), (len(out)-len(dst))*sizeof.Of[T]())
	c.stats.Collectives++
	return out
}

// a2aFrame is one PE's personalized all-to-all deposit: all p outgoing
// buckets back to back in one flat buffer, with Off[j]..Off[j+1] delimiting
// the slot for PE j. Each reader slices out exactly its own range instead of
// unboxing and scanning a full [][]T board deposit. It is deposited as a
// pointer, so publishing never boxes. The fields are exported only so the
// enc walker can carry the frame across a process boundary.
type a2aFrame[T any] struct {
	Data []T
	Off  []int32
}

// Alltoall performs a direct (one-level) personalized all-to-all exchange of
// one flat frame: data[off[i]:off[i+1]] is delivered to PE i, and the
// result's slot j holds what PE j sent here. Each PE is charged the §II-A
// direct cost α·(p−1) + β·ℓ with ℓ its bottleneck volume (max of elements
// sent and received, self excluded). Nothing is staged: data and off ARE the
// deposit, under the package's one ownership rule.
func Alltoall[T any](c *Comm, data []T, off []int32) [][]T {
	recv := rawAlltoallFlat(c, &a2aFrame[T]{Data: data, Off: off})
	p, r := c.P(), c.rank
	sent, got := int(off[p]-off[0]-(off[r+1]-off[r])), -len(recv[r])
	for _, b := range recv {
		got += len(b)
	}
	c.ChargeComm(p-1, sizeof.Of[T]()*max(sent, got))
	c.stats.Collectives++
	return recv
}

// RawAlltoall moves buckets like Alltoall but charges no modeled cost. It
// exists so routing strategies (internal/alltoall) can move data in several
// physical rounds while self-accounting the cost of each round with
// ChargeComm. The buckets are copied into this PE's staging frame for the
// epoch's parity, which the world keeps per rank and reuses: the copy is
// rewritten two supersteps later at the earliest, when every reader is done,
// so the buckets themselves may be mutated at once and only what is received
// is under the ownership rule.
func RawAlltoall[T any](c *Comm, sendTo [][]T) [][]T {
	p := c.P()
	if len(sendTo) != p {
		panic(fmt.Sprintf("comm: Alltoall with %d buckets on a %d-PE world", len(sendTo), p))
	}
	stage := &c.w.stages[c.rank][c.epoch&1]
	fr, _ := (*stage).(*a2aFrame[T])
	if fr == nil || len(fr.Off) != p+1 {
		fr = &a2aFrame[T]{Off: make([]int32, p+1)}
		*stage = fr
	}
	fr.Data = fr.Data[:0]
	for i, b := range sendTo {
		fr.Off[i] = int32(len(fr.Data)) // a wrap is caught by the kernel's length check
		fr.Data = append(fr.Data, b...)
	}
	fr.Off[p] = int32(len(fr.Data))
	return rawAlltoallFlat(c, fr)
}

// rawAlltoallFlat is the one exchange body: it deposits fr and slices every
// PE's frame at this rank's offsets, after refusing a frame its int32
// offsets cannot describe (receivers would otherwise get wrong bounds).
func rawAlltoallFlat[T any](c *Comm, fr *a2aFrame[T]) [][]T {
	p, n := c.P(), len(fr.Data)
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("comm: Alltoall frame of %d elements overflows its int32 offsets", n))
	}
	if len(fr.Off) != p+1 || fr.Off[0] < 0 || int(fr.Off[p]) > n || !slices.IsSorted(fr.Off) {
		panic(fmt.Sprintf("comm: Alltoall offsets %v: want %d non-decreasing ones within a frame of %d elements", fr.Off, p+1, n))
	}
	recv := make([][]T, p)
	c.exchange(mkTag(opAlltoall, 0), fr, wireCodec[*a2aFrame[T]](c), nil, func(_ any, boards []deposit) {
		r := c.rank
		for i := range boards {
			f := boards[i].Val.(*a2aFrame[T])
			lo, hi := f.Off[r], f.Off[r+1]
			if lo < hi {
				// Three-index slice: an append on the received bucket must
				// reallocate, never spill into the next PE's bucket.
				recv[i] = f.Data[lo:hi:hi]
			}
		}
	})
	return recv
}

// PairExchange swaps a payload with a partner PE. All PEs of the world must
// call it in the same superstep; a PE with partner < 0 or partner == rank
// participates with no transfer and receives nil. Partnerships must be
// symmetric. xs is deposited as it lies and the result is the partner's
// payload itself, both under the package's one ownership rule. Only the two
// partners' modeled clocks synchronize. Cost: α + β·max(sent, received) per
// PE.
func PairExchange[T any](c *Comm, partner int, xs []T) []T {
	active := partner >= 0 && partner != c.rank
	var dep any
	if active {
		dep = xs
	}
	var out []T
	c.exchangeSubset(mkTag(opPairExchange, 0), dep, wireCodec[[]T](c), func(boards []deposit) {
		if active {
			m := math.Max(boards[c.rank].Clock, boards[partner].Clock)
			c.clock = math.Max(c.clock, m)
			out = boards[partner].Val.([]T)
		}
	})
	c.stats.Collectives++
	if active {
		c.ChargeComm(1, sizeof.Of[T]()*max(len(xs), len(out)))
	}
	return out
}

// GroupAllreduce combines values over the listed member ranks only (a
// sub-communicator). All PEs of the world must call it in the same
// superstep; non-members pass members == nil and receive the zero value.
// Groups active in the same superstep must be disjoint. If T contains
// references (e.g. a slice field), the referenced data is under the package's
// one ownership rule.
func GroupAllreduce[T any](c *Comm, members []int, x T, op func(a, b T) T) T {
	var out T
	c.exchangeSubset(mkTag(opGroupAllreduce, 0), x, wireCodec[T](c), func(boards []deposit) {
		if len(members) == 0 {
			return
		}
		c.syncClocks(boards, members)
		out = boards[members[0]].Val.(T)
		for _, m := range members[1:] {
			out = op(out, boards[m].Val.(T))
		}
	})
	if len(members) > 0 {
		c.ChargeComm(log2Ceil(len(members)), sizeof.Of[T]())
	}
	c.stats.Collectives++
	return out
}

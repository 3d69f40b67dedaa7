package comm

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"kamsta/internal/arena"
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
// collectives) leave callers free to mutate inputs the moment a collective
// returns. Everything else another PE reads after release — Alltoall,
// RawAlltoall and PairExchange frames, a GroupAllreduce value with a slice
// field — is under ONE rule: the sender leaves it unchanged until its next
// collective has returned, and what a PE receives aliases the sender's
// memory, read-only until the receiver's next collective. Nothing is copied:
// a PE's next collective returns only after every PE has entered it, which
// each does only after its reads.
//
// Bookkeeping: every deposit is a pointer into the depositing rank's slots
// for the value type (slotsFor), so publishing never boxes, and a combine
// writes its result into the completing rank's slots. The results handed
// back that are not the caller's own memory — Allgather's list, all-to-all
// result headers — live in the calling rank's slots too, under the same
// rule: valid until the rank's next collective. A warm collective therefore
// allocates nothing; what still does is named in DESIGN §2.

// slots is one rank's home for the bookkeeping of its collectives over
// values of type T, kept in the rank's scratch arena (slotsFor). Deposits
// alternate by epoch parity, which is what lets a rank write its next
// deposit while slower PEs still read its last one.
type slots[T any] struct {
	dep  [2]T   // value deposits: Allreduce, ExScan, Allgather, GroupAllreduce
	deps [2][]T // slice deposits: AllgatherConcat, PairExchange, AllreduceVec

	op   func(a, b T) T // the reduction of the call in flight, for its combine
	zero T              // ExScan's identity, for its combine

	acc T   // a combine's value: Allreduce's result
	all []T // a combine's list: ExScan's prefixes, Allgather's values, AllgatherConcat's concatenation
	out []T // this rank's Allgather result

	vec    []T // AllreduceVec's ping-pong vector, never handed to the caller
	unfold []T // AllreduceVec's result as deposited for a folded rank

	recv  [][]T           // this rank's all-to-all result headers
	frame [2]a2aFrame[T]  // Alltoall deposits: the caller's frame as it lies
	stage [2]a2aFrame[T]  // RawAlltoall deposits: its own copy of the buckets
	fptr  [2]*a2aFrame[T] // the frame deposited at each parity, itself the deposit's pointee
}

// slotKeys holds the arena key of each value type's slots.
var slotKeys arena.Registry

// slotsFor returns this rank's slots for T, creating them on first use; a
// one-element arena slot never regrows, so they keep their contents from
// call to call. Only the rank's own goroutine touches them; other PEs read
// what they deposit and what their combines publish, under the package's
// ownership rule.
func slotsFor[T any](c *Comm) *slots[T] {
	k := arena.ForType[T](&slotKeys, arena.NewKey)
	return &arena.Grab[slots[T]](c.Scratch(), k, 1)[0]
}

// put makes x this rank's deposit for the current superstep.
func (s *slots[T]) put(c *Comm, x T) *T {
	d := &s.dep[c.epoch&1]
	*d = x
	return d
}

// putSlice makes xs this rank's slice deposit for the current superstep.
func (s *slots[T]) putSlice(c *Comm, xs []T) *[]T {
	d := &s.deps[c.epoch&1]
	*d = xs
	return d
}

// valOf reads rank i's deposit of a T.
func valOf[T any](board []deposit, i int) T { return *board[i].Val.(*T) }

// The reducing collectives' combine steps, each a view of the completing
// rank's slots: the result is written there and published as a pointer.
type (
	reduceStep[T any] slots[T]
	scanStep[T any]   slots[T]
	gatherStep[T any] slots[T]
	concatStep[T any] slots[T]
)

func (s *reduceStep[T]) combine(board []deposit) any {
	acc := valOf[T](board, 0)
	for i := 1; i < len(board); i++ {
		acc = s.op(acc, valOf[T](board, i))
	}
	s.acc = acc
	return &s.acc
}

func (s *scanStep[T]) combine(board []deposit) any {
	s.all = grown(s.all, len(board))
	s.all[0] = s.zero
	for i := 1; i < len(board); i++ {
		s.all[i] = s.op(s.all[i-1], valOf[T](board, i-1))
	}
	return &s.all
}

func (s *gatherStep[T]) combine(board []deposit) any {
	s.all = s.all[:0]
	for i := range board {
		s.all = append(s.all, valOf[T](board, i))
	}
	return &s.all
}

func (s *concatStep[T]) combine(board []deposit) any {
	total := 0
	for i := range board {
		total += len(valOf[[]T](board, i))
	}
	s.all = slices.Grow(s.all[:0], total)
	for i := range board {
		s.all = append(s.all, valOf[[]T](board, i)...)
	}
	return &s.all
}

// Barrier synchronizes all PEs (and their modeled clocks).
func Barrier(c *Comm) {
	c.exchange(mkTag(opBarrier, 0), nil, nil, nil)
	c.ChargeComm(log2Ceil(c.P()), 0)
	c.stats.Collectives++
}

// Allreduce combines every PE's value with the associative op and returns
// the result on all PEs. op must be deterministic and rank-independent.
func Allreduce[T any](c *Comm, x T, op func(a, b T) T) T {
	s := slotsFor[T](c)
	s.op = op
	_, res := c.exchange(mkTag(opAllreduce, 0), s.put(c, x), wireCodec[T](c), (*reduceStep[T])(s))
	s.op = nil
	c.ChargeComm(log2Ceil(c.P()), sizeof.Of[T]())
	c.stats.Collectives++
	return *res.(*T)
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
// The scratch vector is the rank's slots' vec, and the ping-pong starts on
// whichever of the two leaves the result in dst. A folded rank's copy (p not
// a power of two) is deposited from the slots' unfold vector.
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
		s := slotsFor[T](c)
		arvCd := wireCodec[[]T](c)
		// Fold ranks beyond the largest power of two into the cube first.
		k := 1
		for k*2 <= p {
			k *= 2
		}
		var scratch []T
		if rank < k {
			s.vec = grown(s.vec, n)
			scratch = s.vec
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
			c.exchange(foldTag, s.putSlice(c, acc), arvCd, nil)
		} else {
			board, _ := c.exchange(foldTag, nil, arvCd, nil)
			if rank+k < p {
				other := valOf[[]T](board, rank+k)
				if len(other) != n {
					panic(fmt.Sprintf("comm: AllreduceVec length mismatch: %d vs %d", n, len(other)))
				}
				// In-place is fine: this PE's fold deposit was nil.
				for j := range acc {
					acc[j] = op(acc[j], other[j])
				}
			}
		}
		bit := 0
		for d := 1; d < k; d <<= 1 {
			tag := mkTag(opARVBfly, bit)
			bit++
			if rank < k {
				board, _ := c.exchange(tag, s.putSlice(c, acc), arvCd, nil)
				other := valOf[[]T](board, rank^d)
				if len(other) != n {
					panic(fmt.Sprintf("comm: AllreduceVec length mismatch: %d vs %d", n, len(other)))
				}
				for j := range scratch {
					scratch[j] = op(acc[j], other[j])
				}
				acc, scratch = scratch, acc
			} else {
				c.exchange(tag, nil, arvCd, nil)
			}
		}
		// Send the final vector back to the extra ranks.
		unfoldTag := mkTag(opARVUnfold, 0)
		if rank < k {
			var dep any
			if rank+k < p {
				// This deposit is read by the extra rank after the caller
				// regains acc, so it must be a staged copy.
				s.unfold = append(s.unfold[:0], acc...)
				dep = s.putSlice(c, s.unfold)
			}
			c.exchange(unfoldTag, dep, arvCd, nil)
		} else {
			board, _ := c.exchange(unfoldTag, nil, arvCd, nil)
			copy(acc, valOf[[]T](board, rank-k))
		}
	}
	c.ChargeComm(log2Ceil(p), n*sizeof.Of[T]())
	c.stats.Collectives++
	return acc
}

// grown returns v resized to length n, reallocated only when it lacks the
// room.
func grown[T any](v []T, n int) []T {
	if cap(v) < n {
		return make([]T, n)
	}
	return v[:n]
}

// ExScan returns the exclusive prefix combination of x over ranks: rank r
// receives op(x₀, …, x_{r−1}), and rank 0 receives zero. op must be
// deterministic and rank-independent.
func ExScan[T any](c *Comm, x T, zero T, op func(a, b T) T) T {
	s := slotsFor[T](c)
	s.op, s.zero = op, zero
	_, res := c.exchange(mkTag(opExScan, 0), s.put(c, x), wireCodec[T](c), (*scanStep[T])(s))
	s.op = nil
	c.ChargeComm(log2Ceil(c.P()), sizeof.Of[T]())
	c.stats.Collectives++
	return (*res.(*[]T))[c.rank]
}

// Allgather collects one value from every PE into a rank-indexed slice on
// all PEs. The slice is this rank's slots' own: the caller may write it, and
// it stays valid until the rank's next collective.
func Allgather[T any](c *Comm, x T) []T {
	s := slotsFor[T](c)
	_, res := c.exchange(mkTag(opAllgather, 0), s.put(c, x), wireCodec[T](c), (*gatherStep[T])(s))
	s.out = append(s.out[:0], *res.(*[]T)...)
	c.ChargeComm(log2Ceil(c.P()), c.P()*sizeof.Of[T]())
	c.stats.Collectives++
	return s.out
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
// caller-side result allocation-free; the combine concatenates into the
// completing rank's slots). Modeled cost and wire behaviour are identical
// to AllgatherConcat.
func AllgatherConcatInto[T any](c *Comm, dst []T, xs []T) []T {
	s := slotsFor[T](c)
	_, res := c.exchange(mkTag(opAllgatherConcat, 0), s.putSlice(c, xs), wireCodec[[]T](c), (*concatStep[T])(s))
	s.deps[(c.epoch-1)&1] = nil // read by the combine only: let xs go
	out := append(dst, *res.(*[]T)...)
	c.ChargeComm(log2Ceil(c.P()), (len(out)-len(dst))*sizeof.Of[T]())
	c.stats.Collectives++
	return out
}

// a2aFrame is one PE's personalized all-to-all deposit: all p outgoing
// buckets back to back in one flat buffer, with Off[j]..Off[j+1] delimiting
// the slot for PE j. Each reader slices out exactly its own range instead of
// unboxing and scanning a full [][]T board deposit. The fields are exported
// only so the enc walker can carry the frame across a process boundary.
type a2aFrame[T any] struct {
	Data []T
	Off  []int32
}

// Alltoall performs a direct (one-level) personalized all-to-all exchange of
// one flat frame: data[off[i]:off[i+1]] is delivered to PE i, and the
// result's slot j holds what PE j sent here. Each PE is charged the §II-A
// direct cost α·(p−1) + β·ℓ with ℓ its bottleneck volume (max of elements
// sent and received, self excluded). Nothing is staged: data and off ARE the
// deposit, under the package's one ownership rule, and so are the result's
// headers, this rank's slots' own.
func Alltoall[T any](c *Comm, data []T, off []int32) [][]T {
	s := slotsFor[T](c)
	fr := &s.frame[c.epoch&1]
	fr.Data, fr.Off = data, off
	recv := rawAlltoallFlat(c, s, fr)
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
// epoch's parity, which its slots keep and reuse: the copy is rewritten two
// supersteps later at the earliest, when every reader is done, so the
// buckets themselves may be mutated at once and only what is received is
// under the ownership rule.
func RawAlltoall[T any](c *Comm, sendTo [][]T) [][]T {
	p := c.P()
	if len(sendTo) != p {
		panic(fmt.Sprintf("comm: Alltoall with %d buckets on a %d-PE world", len(sendTo), p))
	}
	s := slotsFor[T](c)
	fr := &s.stage[c.epoch&1]
	fr.Off = grown(fr.Off, p+1)
	fr.Data = fr.Data[:0]
	for i, b := range sendTo {
		fr.Off[i] = int32(len(fr.Data)) // a wrap is caught by the kernel's length check
		fr.Data = append(fr.Data, b...)
	}
	fr.Off[p] = int32(len(fr.Data))
	return rawAlltoallFlat(c, s, fr)
}

// rawAlltoallFlat is the one exchange body: it deposits fr and slices every
// PE's frame at this rank's offsets into the slots' result headers, after
// refusing a frame its int32 offsets cannot describe (receivers would
// otherwise get wrong bounds).
func rawAlltoallFlat[T any](c *Comm, s *slots[T], fr *a2aFrame[T]) [][]T {
	p, n := c.P(), len(fr.Data)
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("comm: Alltoall frame of %d elements overflows its int32 offsets", n))
	}
	if len(fr.Off) != p+1 || fr.Off[0] < 0 || int(fr.Off[p]) > n || !slices.IsSorted(fr.Off) {
		panic(fmt.Sprintf("comm: Alltoall offsets %v: want %d non-decreasing ones within a frame of %d elements", fr.Off, p+1, n))
	}
	dep := &s.fptr[c.epoch&1]
	*dep = fr
	board, _ := c.exchange(mkTag(opAlltoall, 0), dep, wireCodec[*a2aFrame[T]](c), nil)
	recv := grown(s.recv, p)
	s.recv = recv
	r := c.rank
	for i := range board {
		f := valOf[*a2aFrame[T]](board, i)
		lo, hi := f.Off[r], f.Off[r+1]
		recv[i] = nil
		if lo < hi {
			// Three-index slice: an append on the received bucket must
			// reallocate, never spill into the next PE's bucket.
			recv[i] = f.Data[lo:hi:hi]
		}
	}
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
		dep = slotsFor[T](c).putSlice(c, xs)
	}
	board := c.exchangeSubset(mkTag(opPairExchange, 0), dep, wireCodec[[]T](c))
	c.stats.Collectives++
	if !active {
		return nil
	}
	m := math.Max(board[c.rank].Clock, board[partner].Clock)
	c.clock = math.Max(c.clock, m)
	out := valOf[[]T](board, partner)
	c.ChargeComm(1, sizeof.Of[T]()*max(len(xs), len(out)))
	return out
}

// GroupAllreduce combines values over the listed member ranks only (a
// sub-communicator), folding them left to right in member order. All PEs of
// the world must call it in the same superstep; non-members pass members ==
// nil and receive the zero value. Groups active in the same superstep must
// be disjoint. If T contains references (e.g. a slice field), the
// referenced data is under the package's one ownership rule.
func GroupAllreduce[T any](c *Comm, members []int, x T, op func(a, b T) T) T {
	board := c.exchangeSubset(mkTag(opGroupAllreduce, 0), slotsFor[T](c).put(c, x), wireCodec[T](c))
	c.stats.Collectives++
	var out T
	if len(members) == 0 {
		return out
	}
	c.syncClocks(board, members)
	out = valOf[T](board, members[0])
	for _, m := range members[1:] {
		out = op(out, valOf[T](board, m))
	}
	c.ChargeComm(log2Ceil(len(members)), sizeof.Of[T]())
	return out
}

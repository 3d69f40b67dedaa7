// Package alltoall implements the sparse personalized all-to-all exchange
// strategies of the paper (§II-A, §VI-A). A direct exchange delivers every
// message in one hop at cost α·p + β·ℓ; its startup term α·p becomes
// prohibitive at scale when messages are small. The two-level grid strategy
// routes each message through one intermediate PE chosen so that both
// physical exchanges involve at most √p + 2 participants, reducing the
// startup term to O(α·√p) at the cost of doubling the communication volume.
// Auto picks direct or grid by the paper's average-message-size rule (500
// bytes on their system). These are the two schemes the paper evaluates
// (Fig. 2); its remark that the grid generalizes to d > 2 dimensions is not
// implemented because no exhibit exercises it.
//
// Every exchange sends one flat frame (ExchangeFlat); the program's call
// sites lay theirs out with a Builder in arena slots of their own.
package alltoall

import (
	"fmt"
	"math"
	"slices"

	"kamsta/internal/arena"
	"kamsta/internal/comm"
	"kamsta/internal/sizeof"
)

// Strategy selects a routing scheme for ExchangeFlat.
type Strategy int

const (
	// Auto chooses Direct for large average message sizes and Grid below
	// DefaultGridThreshold bytes per message, as in §VI-A. Auto is the
	// zero value so unset options default to it.
	Auto Strategy = iota
	// Direct delivers every message in one hop (one-level, MPI_Alltoallv).
	Direct
	// Grid routes through a √p × √p logical grid (two-level, §VI-A).
	Grid
)

// String returns the strategy name.
func (s Strategy) String() string {
	switch s {
	case Direct:
		return "direct"
	case Grid:
		return "grid"
	case Auto:
		return "auto"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// DefaultGridThreshold is the average bytes-per-message below which Auto
// prefers the two-level grid exchange (the paper uses 500 on SuperMUC-NG).
const DefaultGridThreshold = 500

// hop is a routed message fragment: a payload travelling from Src to Dst,
// possibly via intermediates.
type hop[T any] struct {
	Src, Dst int32
	Items    []T
}

// hopHeaderBytes is the modeled wire overhead of one hop header.
const hopHeaderBytes = 8

// ExchangeFlat performs a personalized all-to-all of one flat frame: bucket
// j is data[off[j]:off[j+1]], delivered to PE j, and the result's slot i
// holds what PE i sent here. All PEs must call it collectively with the same
// strategy. On either route nothing is copied — the direct route deposits
// the frame as it lies (comm.Alltoall) and the grid's hops reference it — so
// comm's one ownership rule holds from the caller's side: leave data and off
// unchanged until your next collective has returned, and read what you
// received only until your next collective.
func ExchangeFlat[T any](c *comm.Comm, s Strategy, data []T, off []int32) [][]T {
	if direct[T](c, s, off) {
		return comm.Alltoall(c, data, off)
	}
	return gridExchange(c, data, off)
}

// Exchange is ExchangeFlat for buckets that do not lie back to back: it packs
// send into a fresh frame first. Nothing in the program calls it; it keeps
// the signature the benchmark's exchange microcalls use.
func Exchange[T any](c *comm.Comm, s Strategy, send [][]T) [][]T {
	off := make([]int32, len(send)+1)
	for j, b := range send {
		off[j+1] = off[j] + int32(len(b))
	}
	return ExchangeFlat(c, s, slices.Concat(send...), off)
}

// SendKey names the arena slots one call site builds its frames in. Reserve
// one per call site at package init with NewSendKey, and always use it with
// the same element type.
type SendKey struct{ items, runs, frame, off arena.Key }

// NewSendKey reserves the slots of one call site.
func NewSendKey() SendKey {
	return SendKey{arena.NewKey(), arena.NewKey(), arena.NewKey(), arena.NewKey()}
}

// Builder lays out one PE's outgoing messages as the flat frame ExchangeFlat
// sends, in its call site's arena slots, so a warm exchange allocates no
// frame. Add and Append stage elements in call order; Exchange scatters them
// into their buckets with one counting pass or, when the destinations never
// fell, sends them as they lie. Under the ownership rule a call site builds
// its next frame only after one further collective.
type Builder[T any] struct {
	c         *comm.Comm
	k         SendKey
	items     []T
	runs      []run   // destination runs of items, in call order
	off       []int32 // off[d+1] counts bucket d until Exchange
	scattered bool    // some run's destination is below its predecessor's
}

// run is n consecutive staged elements for PE d.
type run struct{ d, n int32 }

// NewBuilder starts an empty frame in the slots of k.
func NewBuilder[T any](c *comm.Comm, k SendKey) Builder[T] {
	a := c.Scratch()
	return Builder[T]{c: c, k: k,
		items: arena.GrabAppend[T](a, k.items),
		runs:  arena.GrabAppend[run](a, k.runs),
		off:   arena.GrabZeroed[int32](a, k.off, c.P()+1),
	}
}

// Add stages x for PE d.
func (b *Builder[T]) Add(d int, x T) {
	b.note(d, 1)
	b.items = append(b.items, x)
}

// Append stages xs, in order, for PE d.
func (b *Builder[T]) Append(d int, xs []T) {
	b.note(d, len(xs))
	b.items = append(b.items, xs...)
}

// note records n staged elements for d.
func (b *Builder[T]) note(d, n int) {
	if n == 0 {
		return
	}
	b.off[d+1] += int32(n)
	k := len(b.runs) - 1
	if k >= 0 && b.runs[k].d == int32(d) {
		b.runs[k].n += int32(n)
		return
	}
	b.scattered = b.scattered || k >= 0 && b.runs[k].d > int32(d)
	b.runs = append(b.runs, run{int32(d), int32(n)})
}

// Exchange sends the frame with strategy s; the result and the rule are
// ExchangeFlat's.
func (b *Builder[T]) Exchange(s Strategy) [][]T {
	a := b.c.Scratch()
	arena.Keep(a, b.k.items, b.items)
	arena.Keep(a, b.k.runs, b.runs)
	off := b.off
	for d := 1; d < len(off); d++ {
		off[d] += off[d-1] // off[d] starts bucket d
	}
	frame := b.items
	if b.scattered {
		frame = arena.Grab[T](a, b.k.frame, len(b.items))
		pos := 0
		for _, r := range b.runs {
			pos += copy(frame[off[r.d]:], b.items[pos:pos+int(r.n)])
			off[r.d] += r.n
		}
		copy(off[1:], off) // off[d] ended bucket d
		off[0] = 0
	}
	return ExchangeFlat(b.c, s, frame, off)
}

// direct reports whether strategy s delivers the buckets off delimits in
// one hop. Auto makes that a global decision from the average number of
// payload bytes per (ordered) PE pair, mirroring §VI-A.
func direct[T any](c *comm.Comm, s Strategy, off []int32) bool {
	switch s {
	case Direct:
		return true
	case Grid:
		return false
	case Auto:
		p, r := c.P(), c.Rank()
		local := int(off[p]-off[0]-(off[r+1]-off[r])) * sizeof.Of[T]()
		total := comm.Allreduce(c, local, sum)
		pairs := p * (p - 1)
		return pairs == 0 || total/pairs >= DefaultGridThreshold
	}
	panic("alltoall: unknown strategy " + s.String())
}

// sum is direct's reduction: a func literal in a generic function would
// carry the instantiation's dictionary, so each call would allocate it.
func sum(a, b int) int { return a + b }

// gridGeom captures the logical grid of §VI-A: c = ⌊√p⌋ columns and
// r = ⌈p/c⌉ rows, PE i at (row i/c, column i mod c).
type gridGeom struct {
	p, c, r int
}

func newGridGeom(p int) gridGeom {
	c := int(math.Sqrt(float64(p)))
	for c*c > p {
		c--
	}
	if c < 1 {
		c = 1
	}
	r := (p + c - 1) / c
	return gridGeom{p: p, c: c, r: r}
}

func (g gridGeom) col(i int) int { return i % g.c }
func (g gridGeom) row(i int) int { return i / g.c }

// intermediate returns the relay PE for a message i → j: the PE in row(j)
// and column(i). When that PE does not exist because j lies in the
// incomplete last row, the paper's rule substitutes the PE in row col(j)
// and column col(i), and j is virtually appended to row col(j) for the
// second exchange.
func (g gridGeom) intermediate(i, j int) int {
	t := g.row(j)*g.c + g.col(i)
	if t >= g.p {
		t = g.col(j)*g.c + g.col(i)
	}
	return t
}

// colSize returns the number of PEs in column k.
func (g gridGeom) colSize(k int) int {
	n := g.p / g.c
	if k < g.p%g.c {
		n++
	}
	return n
}

// gridKeys are the arena slots of one element type's grid exchanges.
type gridKeys struct {
	next   arena.Key // []nextHop[T]: one phase's hops in sending order
	hops   arena.Key // []hop[T]: the same hops grouped by the PE they go to
	table  arena.Key // [][]hop[T]: one phase's send table, views into hops
	start  arena.Key // []int32: where each PE's group starts in hops
	result arena.Key // [][]T: the result headers
}

// gridKeysByType holds each element type's gridKeys.
var gridKeysByType arena.Registry

func gridKeysFor[T any]() *gridKeys {
	return arena.ForType[T](&gridKeysByType, func() *gridKeys {
		return &gridKeys{arena.NewKey(), arena.NewKey(), arena.NewKey(), arena.NewKey(), arena.NewKey()}
	})
}

// nextHop is a hop and the PE it goes to in this phase.
type nextHop[T any] struct {
	to int32
	h  hop[T]
}

// hopTable groups one phase's hops by the PE they go to, keeping their
// order within a group: the send table RawAlltoall takes, built with one
// counting pass in the slots of ks.
func hopTable[T any](c *comm.Comm, ks *gridKeys, next []nextHop[T]) [][]hop[T] {
	p, a := c.P(), c.Scratch()
	arena.Keep(a, ks.next, next)
	start := arena.GrabZeroed[int32](a, ks.start, p+1)
	for _, x := range next {
		start[x.to+1]++
	}
	for d := 1; d <= p; d++ {
		start[d] += start[d-1]
	}
	hops := arena.Grab[hop[T]](a, ks.hops, len(next))
	table := arena.Grab[[]hop[T]](a, ks.table, p)
	for d := range table {
		table[d] = hops[start[d]:start[d]:start[d+1]]
	}
	for _, x := range next {
		table[x.to] = append(table[x.to], x.h)
	}
	return table
}

// gridExchange implements the two-level indirect all-to-all. Phase 1 moves
// every message to the intermediate in the sender's column; phase 2 moves
// it to the final destination along the intermediate's row. Each phase is
// charged α·(√p-ish participants) + β·(phase volume); the total volume is
// twice that of a direct exchange, which is exactly the trade the paper
// makes. Only the hop headers travel through comm.RawAlltoall's staging: a
// hop's Items is the sender's bucket itself, and the receiver's result slot
// is that same slice. The send tables and the result headers live in arena
// slots of the element type (gridKeysFor), so a warm exchange allocates
// nothing.
func gridExchange[T any](c *comm.Comm, data []T, off []int32) [][]T {
	p, rank := c.P(), c.Rank()
	g := newGridGeom(p)
	ks, a := gridKeysFor[T](), c.Scratch()
	// route moves hops one physical round and charges it msgs startups plus
	// the larger of the bytes leaving and entering this PE.
	route := func(send [][]hop[T], msgs int) [][]hop[T] {
		bytes := func(hs [][]hop[T]) (n int) {
			for i := range hs {
				for _, h := range hs[i] {
					if i != rank {
						n += len(h.Items)*sizeof.Of[T]() + hopHeaderBytes
					}
				}
			}
			return n
		}
		recv := comm.RawAlltoall(c, send)
		c.ChargeComm(msgs, max(bytes(send), bytes(recv)))
		return recv
	}

	// Phase 1: sender → intermediate (within the sender's column).
	next := arena.GrabAppend[nextHop[T]](a, ks.next)
	for j := 0; j < p; j++ {
		if b := data[off[j]:off[j+1]:off[j+1]]; len(b) > 0 {
			next = append(next, nextHop[T]{int32(g.intermediate(rank, j)), hop[T]{Src: int32(rank), Dst: int32(j), Items: b}})
		}
	}
	recv := route(hopTable(c, ks, next), g.colSize(g.col(rank))-1)

	// Phase 2: intermediate → destination (within the intermediate's row,
	// plus virtually appended members of an incomplete last row). Every
	// source sends at most one hop here, so its Items is the result slot.
	// RawAlltoall copied the phase-1 table into its staging, so the slots
	// are free again.
	next = arena.GrabAppend[nextHop[T]](a, ks.next)
	for _, hs := range recv {
		for _, h := range hs {
			next = append(next, nextHop[T]{h.Dst, h})
		}
	}
	result := arena.GrabZeroed[[]T](a, ks.result, p)
	for _, hs := range route(hopTable(c, ks, next), g.c+1) {
		for _, h := range hs {
			result[h.Src] = h.Items
		}
	}
	return result
}

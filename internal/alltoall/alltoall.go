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
package alltoall

import (
	"fmt"
	"math"

	"kamsta/internal/comm"
	"kamsta/internal/sizeof"
)

// Strategy selects a routing scheme for Exchange.
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

// Exchange performs a personalized all-to-all: send[j] is delivered to PE j
// and the result's slot i holds what PE i sent here. All PEs must call it
// collectively with the same strategy. Received slices are owned by the
// caller.
func Exchange[T any](c *comm.Comm, s Strategy, send [][]T) [][]T {
	if len(send) != c.P() {
		panic(fmt.Sprintf("alltoall: %d buckets on a %d-PE world", len(send), c.P()))
	}
	if direct[T](c, s, func(j int) int { return len(send[j]) }) {
		return comm.Alltoall(c, send)
	}
	return gridExchange(c, send)
}

// ExchangeFlat is Exchange for buckets that already lie back to back: bucket
// j is data[off[j]:off[j+1]]. The direct route deposits data and off as they
// are (comm.AlltoallFlat) and the grid's hops reference data as they always
// did, so on either route the caller must leave data and off alone, and may
// only read what it received, until its next collective has returned.
func ExchangeFlat[T any](c *comm.Comm, s Strategy, data []T, off []int32) [][]T {
	if direct[T](c, s, func(j int) int { return int(off[j+1] - off[j]) }) {
		return comm.AlltoallFlat(c, data, off)
	}
	send := make([][]T, c.P())
	for j := range send {
		send[j] = data[off[j]:off[j+1]]
	}
	return gridExchange(c, send)
}

// direct reports whether strategy s delivers buckets of the given element
// counts in one hop. Auto makes that a global decision from the average
// number of payload bytes per (ordered) PE pair, mirroring §VI-A.
func direct[T any](c *comm.Comm, s Strategy, count func(j int) int) bool {
	switch s {
	case Direct:
		return true
	case Grid:
		return false
	case Auto:
		p, local := c.P(), 0
		for j := 0; j < p; j++ {
			if j != c.Rank() {
				local += count(j) * elemSize[T]()
			}
		}
		total := comm.Allreduce(c, local, func(a, b int) int { return a + b })
		pairs := p * (p - 1)
		return pairs == 0 || total/pairs >= DefaultGridThreshold
	}
	panic("alltoall: unknown strategy " + s.String())
}

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

// gridExchange implements the two-level indirect all-to-all. Phase 1 moves
// every message to the intermediate in the sender's column; phase 2 moves
// it to the final destination along the intermediate's row. Each phase is
// charged α·(√p-ish participants) + β·(phase volume); the total volume is
// twice that of a direct exchange, which is exactly the trade the paper
// makes.
func gridExchange[T any](c *comm.Comm, send [][]T) [][]T {
	p, rank := c.P(), c.Rank()
	g := newGridGeom(p)
	elem := elemSize[T]()

	// Phase 1: sender → intermediate (within the sender's column).
	send1 := make([][]hop[T], p)
	out1 := 0
	for j, b := range send {
		if len(b) == 0 {
			continue
		}
		t := g.intermediate(rank, j)
		send1[t] = append(send1[t], hop[T]{Src: int32(rank), Dst: int32(j), Items: b})
		if t != rank {
			out1 += len(b)*elem + hopHeaderBytes
		}
	}
	recv1 := comm.RawAlltoall(c, send1)
	in1 := 0
	for s := range recv1 {
		if s == rank {
			continue
		}
		for _, h := range recv1[s] {
			in1 += len(h.Items)*elem + hopHeaderBytes
		}
	}
	c.ChargeComm(g.colSize(g.col(rank))-1, max(out1, in1))

	// Phase 2: intermediate → destination (within the intermediate's row,
	// plus virtually appended members of an incomplete last row).
	send2 := make([][]hop[T], p)
	out2 := 0
	for s := range recv1 {
		for _, h := range recv1[s] {
			send2[h.Dst] = append(send2[h.Dst], h)
			if int(h.Dst) != rank {
				out2 += len(h.Items)*elem + hopHeaderBytes
			}
		}
	}
	recv2 := comm.RawAlltoall(c, send2)
	result := make([][]T, p)
	in2 := 0
	for s := range recv2 {
		for _, h := range recv2[s] {
			if s != rank {
				in2 += len(h.Items)*elem + hopHeaderBytes
			}
			result[h.Src] = append(result[h.Src], h.Items...)
		}
	}
	c.ChargeComm(g.c+1, max(out2, in2))
	return result
}

// elemSize is the shared compile-time element-size helper; kept as a local
// alias so call sites in this package stay terse.
func elemSize[T any]() int {
	return sizeof.Of[T]()
}

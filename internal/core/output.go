package core

import (
	"slices"
	"sort"

	"kamsta/internal/alltoall"
	"kamsta/internal/arena"
	"kamsta/internal/comm"
	"kamsta/internal/graph"
)

// inputCopy is this PE's original input chunk, read in place, plus the
// replicated ID offsets of all chunks, kept to output original MST
// endpoints (§VI-C). The chunk stays resident and unwritten for the whole
// job (DESIGN §8.2, kFinish), so it stands in for the paper's compressed
// copy; the model still charges that copy's two decode passes.
type inputCopy struct {
	chunk   graph.Chunk
	offsets []uint64 // offsets[i] = first global ID on PE i; len p+1
}

// makeInputCopy checks the local chunk's input format — lexicographically
// sorted, consecutive IDs — and gathers the global ID layout.
func makeInputCopy(c *comm.Comm, edges []graph.Edge) *inputCopy {
	chunk := graph.NewChunk(edges)
	counts := comm.Allgather(c, len(edges))
	offsets := make([]uint64, c.P()+1)
	for i, n := range counts {
		offsets[i+1] = offsets[i] + uint64(n)
	}
	// Account the paper's first decode pass now (it charges decoding twice
	// but not encoding); the second is charged in redistributeMST.
	c.ChargeCompute(len(edges))
	return &inputCopy{chunk: chunk, offsets: offsets}
}

// Arena keys of the job's forest.
var (
	kMST    = arena.NewKey() // []graph.Edge: the forest found, then this PE's share of it (Result.MSTEdges)
	kMSTIDs = arena.NewKey() // []uint64: the IDs REDISTRIBUTEMST routed here
)

// newForest returns the job's empty forest in slot kMST, which the
// algorithm appends to; redistributeMST keeps what it grew to.
func newForest(c *comm.Comm) []graph.Edge {
	return arena.GrabAppend[graph.Edge](c.Scratch(), kMST)
}

// redistributeMST implements REDISTRIBUTEMST: every identified MST edge is
// routed back to the home PE of its original input copy (by global edge
// ID), where the original endpoints are read from the input chunk. Returns
// the local share of the MSF with original endpoint labels, in
// lexicographic order: IDs are positions in the sorted input. Once the IDs
// are sent, mst's memory takes the share, which stays in slot kMST until
// the next job on this world.
func redistributeMST(c *comm.Comm, mst []graph.Edge, in *inputCopy, opt Options) []graph.Edge {
	a := c.Scratch()
	send := alltoall.NewBuilder[uint64](c, kMSTSend)
	for _, e := range mst {
		id := uint64(e.ID)
		send.Add(sort.Search(c.P(), func(i int) bool { return in.offsets[i+1] > id }), id)
	}
	recv := send.Exchange(opt.A2A)
	ids := arena.GrabAppend[uint64](a, kMSTIDs)
	for i := range recv {
		ids = append(ids, recv[i]...)
	}
	arena.Keep(a, kMSTIDs, ids)
	slices.Sort(ids)
	out := in.chunk.DecodeIDsInto(mst, ids)
	arena.Keep(a, kMST, out)
	// The paper's second decode pass of the compressed copy (§VI-C).
	c.ChargeCompute(in.chunk.Len())
	return out
}

package core

import (
	"slices"
	"sort"

	"kamsta/internal/alltoall"
	"kamsta/internal/comm"
	"kamsta/internal/graph"
)

// inputCopy is the compressed copy of this PE's original input chunk plus
// the replicated ID offsets of all chunks, kept to output original MST
// endpoints (§VI-C: stored 7-bit variable-length encoded because node
// memory is scarce; decoded once before and once after the computation,
// which we account in modeled time).
type inputCopy struct {
	comp    *graph.CompressedEdges
	offsets []uint64 // offsets[i] = first global ID on PE i; len p+1
}

// makeInputCopy compresses the local input chunk and gathers the global ID
// layout.
func makeInputCopy(c *comm.Comm, edges []graph.Edge) *inputCopy {
	firstID := uint64(0)
	if len(edges) > 0 {
		firstID = uint64(edges[0].ID)
	}
	comp := graph.CompressEdges(edges, firstID)
	counts := comm.Allgather(c, len(edges))
	offsets := make([]uint64, c.P()+1)
	for i, n := range counts {
		offsets[i+1] = offsets[i] + uint64(n)
	}
	// Account one decode pass now (the paper charges decoding twice but
	// not encoding); the second pass is charged in redistributeMST.
	c.ChargeCompute(len(edges))
	return &inputCopy{comp: comp, offsets: offsets}
}

// redistributeMST implements REDISTRIBUTEMST: every identified MST edge is
// routed back to the home PE of its original input copy (by global edge
// ID), where the original endpoints are recovered from the compressed
// input. Returns the local share of the MSF with original endpoint labels.
func redistributeMST(c *comm.Comm, mst []graph.Edge, in *inputCopy, opt Options) []graph.Edge {
	send := alltoall.NewBuilder[uint64](c, kMSTSend)
	for _, e := range mst {
		id := uint64(e.ID)
		send.Add(sort.Search(c.P(), func(i int) bool { return in.offsets[i+1] > id }), id)
	}
	recv := send.Exchange(opt.A2A)
	// One forward sweep over the compressed chunk: IDs are positions in the
	// sorted input, so decoding them in ascending order yields the local
	// share already in lexicographic order.
	var ids []uint64
	for i := range recv {
		ids = append(ids, recv[i]...)
	}
	slices.Sort(ids)
	out := in.comp.DecodeIDs(ids)
	// Second decode pass of the compressed copy (§VI-C accounting).
	c.ChargeCompute(in.comp.Len())
	return out
}

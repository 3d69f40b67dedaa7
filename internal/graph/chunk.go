package graph

import (
	"fmt"
	"slices"
)

// Chunk is one PE's original input chunk, read in place by global edge ID
// to output the original endpoints of MST edges (§VI-C). The paper keeps a
// varint-compressed copy for this; the chunk itself serves when it stays
// resident and unwritten for the whole job.
type Chunk struct {
	edges   []Edge
	firstID uint64 // global ID of edges[0]
}

// NewChunk checks the input format — edges sorted lexicographically, IDs
// consecutive from edges[0].ID — and wraps edges without copying them.
func NewChunk(edges []Edge) Chunk {
	c := Chunk{edges: edges}
	if len(edges) > 0 {
		c.firstID = uint64(edges[0].ID)
	}
	for i := range edges {
		if i > 0 && lessLex(&edges[i], &edges[i-1]) {
			panic("graph: input edges must be sorted lexicographically")
		}
		if want := c.firstID + uint64(i); uint64(edges[i].ID) != want {
			panic(fmt.Sprintf("graph: input edge %d has ID %d, want consecutive %d", i, edges[i].ID, want))
		}
	}
	return c
}

// Len reports the number of edges in the chunk.
func (c Chunk) Len() int { return len(c.edges) }

// FirstID is the global ID of the chunk's first edge.
func (c Chunk) FirstID() uint64 { return c.firstID }

// DecodeIDsInto returns the edges with the given global IDs, which must be
// ascending (repeats allowed), so the result is in input order. It is
// written into dst's backing when that has room, and into a new slice
// otherwise; dst must not overlap the chunk. It panics on an ID outside the
// chunk, or one whose edge no longer carries it (the chunk was overwritten).
func (c Chunk) DecodeIDsInto(dst []Edge, ids []uint64) []Edge {
	out := slices.Grow(dst[:0], len(ids))[:len(ids)]
	for k, id := range ids {
		if k > 0 && id < ids[k-1] {
			panic(fmt.Sprintf("graph: DecodeIDsInto: ID %d after %d, want ascending", id, ids[k-1]))
		}
		i := id - c.firstID // an ID below firstID wraps past len(edges)
		if i >= uint64(len(c.edges)) || uint64(c.edges[i].ID) != id {
			panic(fmt.Sprintf("graph: ID %d not found in the input chunk [%d,%d): was it overwritten?",
				id, c.firstID, c.firstID+uint64(len(c.edges))))
		}
		out[k] = c.edges[i]
	}
	return out
}

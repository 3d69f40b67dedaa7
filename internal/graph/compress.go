// Compressed storage of the original edge list, described in §VI-C of the
// paper: to output the original endpoints of MST
// edges without keeping a second full copy in scarce compute-node memory,
// each PE stores its input chunk with 7-bit variable-length encoding of the
// differences between consecutive vertices. A sparse block index grants
// random access by edge ID without decoding the whole chunk.
package graph

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// blockSize is the number of edges between index checkpoints; random access
// decodes at most blockSize-1 edges past a checkpoint.
const blockSize = 256

type checkpoint struct {
	offset int // byte offset into data
	prevU  VID
	prevV  VID
}

// CompressedEdges is an immutable, compressed, randomly accessible edge
// sequence. Edges must have been lexicographically sorted when encoded, so
// source deltas are non-negative; destination deltas are zigzag-encoded.
type CompressedEdges struct {
	data    []byte
	index   []checkpoint
	n       int
	firstID uint64
}

// zigzag encodes a signed delta as an unsigned varint-friendly value.
func zigzag(d int64) uint64 { return uint64((d << 1) ^ (d >> 63)) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// CompressEdges compresses a sorted edge slice. firstID is the global ID of
// edges[0]; the i-th stored edge is reproduced with ID firstID+i, so IDs
// must be consecutive (which holds for the input sequence by construction).
// A first pass checks both and sizes the data and the index exactly; the
// second writes them.
func CompressEdges(edges []Edge, firstID uint64) *CompressedEdges {
	size := 0
	var prevU, prevV VID
	for i, e := range edges {
		if i > 0 && LessLex(e, edges[i-1]) {
			panic("graph: edges must be sorted lexicographically")
		}
		if uint64(e.ID) != firstID+uint64(i) {
			panic(fmt.Sprintf("graph: edge %d has ID %d, want consecutive %d", i, e.ID, firstID+uint64(i)))
		}
		size += uvarintLen(e.U-prevU) + uvarintLen(zigzag(int64(e.V)-int64(prevV))) + uvarintLen(uint64(e.W))
		prevU, prevV = e.U, e.V
	}
	c := &CompressedEdges{
		data:    make([]byte, size),
		index:   make([]checkpoint, 0, (len(edges)+blockSize-1)/blockSize),
		n:       len(edges),
		firstID: firstID,
	}
	pos := 0
	prevU, prevV = 0, 0
	for i, e := range edges {
		if i%blockSize == 0 {
			c.index = append(c.index, checkpoint{offset: pos, prevU: prevU, prevV: prevV})
		}
		pos += binary.PutUvarint(c.data[pos:], e.U-prevU) // non-negative by sortedness
		pos += binary.PutUvarint(c.data[pos:], zigzag(int64(e.V)-int64(prevV)))
		pos += binary.PutUvarint(c.data[pos:], uint64(e.W))
		prevU, prevV = e.U, e.V
	}
	return c
}

// uvarintLen is the number of bytes binary.PutUvarint writes for x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// Len reports the number of stored edges.
func (c *CompressedEdges) Len() int { return c.n }

// DecodeIDs decodes the edges with the given global IDs, which must be
// ascending (repeats allowed) and lie in [firstID, firstID+Len()), in one
// forward sweep: it decodes through to the next wanted edge and jumps to a
// block checkpoint only when that lies ahead of the edge it would decode
// next — the sequential decode pass §VI-C describes and the model charges.
func (c *CompressedEdges) DecodeIDs(ids []uint64) []Edge {
	out := make([]Edge, 0, len(ids))
	next, pos := 0, 0 // position of the next edge to decode, its byte offset
	var prevU, prevV VID
	var e Edge // the last edge decoded
	for k, id := range ids {
		if id < c.firstID || id >= c.firstID+uint64(c.n) {
			panic(fmt.Sprintf("graph: ID %d outside chunk [%d,%d)", id, c.firstID, c.firstID+uint64(c.n)))
		}
		if k > 0 && id < ids[k-1] {
			panic(fmt.Sprintf("graph: DecodeIDs: ID %d after %d, want ascending", id, ids[k-1]))
		}
		i := int(id - c.firstID)
		if block := i - i%blockSize; k == 0 || block > next {
			cp := c.index[i/blockSize]
			next, pos, prevU, prevV = block, cp.offset, cp.prevU, cp.prevV
		}
		for ; next <= i; next++ {
			du, k1 := binary.Uvarint(c.data[pos:])
			dv, k2 := binary.Uvarint(c.data[pos+k1:])
			w, k3 := binary.Uvarint(c.data[pos+k1+k2:])
			pos += k1 + k2 + k3
			prevU += du
			prevV = VID(int64(prevV) + unzigzag(dv))
			e = Edge{U: prevU, V: prevV, W: Weight(w), TB: MakeTB(prevU, prevV), ID: uint32(c.firstID + uint64(next))}
		}
		out = append(out, e)
	}
	return out
}

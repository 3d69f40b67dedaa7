package graph

import (
	"bytes"
	"encoding/binary"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"kamsta/internal/rng"
)

func makeSortedEdges(n int, seed uint64) []Edge {
	r := rng.New(seed)
	edges := make([]Edge, n)
	for i := range edges {
		u := VID(r.Intn(1000) + 1)
		v := VID(r.Intn(1000) + 1)
		if v == u {
			v = u + 1
		}
		edges[i] = NewEdge(u, v, RandomWeight(seed, u, v))
	}
	sort.Slice(edges, func(i, j int) bool { return LessLex(edges[i], edges[j]) })
	for i := range edges {
		edges[i].ID = 100 + uint32(i)
	}
	return edges
}

// allIDs lists every ID c stores, ascending.
func allIDs(c *CompressedEdges) []uint64 {
	ids := make([]uint64, c.n)
	for i := range ids {
		ids[i] = c.firstID + uint64(i)
	}
	return ids
}

func TestRoundTripDecodeAll(t *testing.T) {
	for _, n := range []int{0, 1, 5, blockSize - 1, blockSize, blockSize + 1, 4*blockSize + 7} {
		edges := makeSortedEdges(n, uint64(n))
		c := CompressEdges(edges, 100)
		got := c.DecodeIDs(allIDs(c))
		if len(got) != n {
			t.Fatalf("n=%d: decoded %d edges", n, len(got))
		}
		for i := range edges {
			if got[i] != edges[i] {
				t.Fatalf("n=%d: edge %d: got %+v want %+v", n, i, got[i], edges[i])
			}
		}
	}
}

func TestRandomAccessAt(t *testing.T) {
	edges := makeSortedEdges(3*blockSize+17, 9)
	c := CompressEdges(edges, 100)
	for _, i := range []int{0, 1, blockSize - 1, blockSize, 2*blockSize + 5, len(edges) - 1} {
		if got := c.DecodeIDs([]uint64{100 + uint64(i)})[0]; got != edges[i] {
			t.Fatalf("position %d: got %+v want %+v", i, got, edges[i])
		}
	}
}

func TestByID(t *testing.T) {
	edges := makeSortedEdges(50, 3)
	c := CompressEdges(edges, 100)
	for i, e := range edges {
		if got := c.DecodeIDs([]uint64{100 + uint64(i)})[0]; got != e {
			t.Fatalf("ID %d mismatch", 100+i)
		}
	}
}

func TestByIDPanicsOutOfRange(t *testing.T) {
	c := CompressEdges(makeSortedEdges(10, 1), 100)
	for _, id := range []uint64{99, 110} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ID %d should panic", id)
				}
			}()
			c.DecodeIDs([]uint64{id})
		}()
	}
}

func TestEncodePanicsOnUnsorted(t *testing.T) {
	edges := []Edge{NewEdge(5, 1, 2), NewEdge(1, 2, 3)}
	edges[0].ID, edges[1].ID = 0, 1
	defer func() {
		if recover() == nil {
			t.Error("Encode should reject unsorted input")
		}
	}()
	CompressEdges(edges, 0)
}

func TestEncodePanicsOnNonConsecutiveIDs(t *testing.T) {
	edges := []Edge{NewEdge(1, 2, 3), NewEdge(1, 3, 4)}
	edges[0].ID, edges[1].ID = 0, 5
	defer func() {
		if recover() == nil {
			t.Error("Encode should reject non-consecutive IDs")
		}
	}()
	CompressEdges(edges, 0)
}

func TestCompressionSavesSpace(t *testing.T) {
	// Locality-friendly input (small deltas) should compress far below the
	// 32-byte in-memory representation.
	n := 10000
	edges := make([]Edge, n)
	for i := range edges {
		u := VID(i/4 + 1)
		v := u + VID(i%4) + 1
		edges[i] = NewEdge(u, v, Weight(i%254+1))
		edges[i].ID = uint32(i)
	}
	c := CompressEdges(edges, 0)
	raw := n * 32
	if len(c.data)*4 > raw {
		t.Fatalf("compressed %d bytes vs raw %d: expected at least 4x saving", len(c.data), raw)
	}
}

func TestZigzagRoundTrip(t *testing.T) {
	f := func(d int64) bool { return unzigzag(zigzag(d)) == d }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLenAndFirstID(t *testing.T) {
	c := CompressEdges(makeSortedEdges(33, 2), 100)
	if c.Len() != 33 || c.firstID != 100 {
		t.Fatalf("Len=%d firstID=%d", c.Len(), c.firstID)
	}
}

// TestCompressEdgesSizedExactly: the counting pass sizes data and index to
// exactly what the encoder writes, and the bytes are those of appending each
// edge's three varints in turn — the encoding is unchanged. The deltas span
// every varint length, one byte to ten.
func TestCompressEdgesSizedExactly(t *testing.T) {
	for _, x := range []uint64{0, 1, 127, 128, 1<<14 - 1, 1 << 14, 1<<63 - 1, 1 << 63, math.MaxUint64} {
		var buf [binary.MaxVarintLen64]byte
		if got, want := uvarintLen(x), binary.PutUvarint(buf[:], x); got != want {
			t.Errorf("uvarintLen(%d) = %d, want %d", x, got, want)
		}
	}
	wide := make([]Edge, 3*blockSize)
	for i := range wide {
		shift := uint(i % 64)
		wide[i] = Edge{U: VID(i) << (shift % 56), V: VID(1) << shift, W: Weight(i), ID: uint32(i)}
	}
	sort.Slice(wide, func(i, j int) bool { return LessLex(wide[i], wide[j]) })
	for i := range wide {
		wide[i].ID = uint32(i)
	}
	for _, edges := range [][]Edge{nil, makeSortedEdges(1, 1), makeSortedEdges(blockSize, 2), makeSortedEdges(5*blockSize+3, 3), wide} {
		var want []byte
		var prevU, prevV VID
		for _, e := range edges {
			want = binary.AppendUvarint(want, e.U-prevU)
			want = binary.AppendUvarint(want, zigzag(int64(e.V)-int64(prevV)))
			want = binary.AppendUvarint(want, uint64(e.W))
			prevU, prevV = e.U, e.V
		}
		firstID := uint64(0)
		if len(edges) > 0 {
			firstID = uint64(edges[0].ID)
		}
		c := CompressEdges(edges, firstID)
		if !bytes.Equal(c.data, want) {
			t.Errorf("%d edges: encoded bytes differ from the reference encoding", len(edges))
		}
		if cap(c.data) != len(c.data) || cap(c.index) != len(c.index) || len(c.index) != (len(edges)+blockSize-1)/blockSize {
			t.Errorf("%d edges: data %d/%d bytes, index %d/%d checkpoints: not sized exactly", len(edges), len(c.data), cap(c.data), len(c.index), cap(c.index))
		}
	}
}

func BenchmarkCompressEdges(b *testing.B) {
	edges := makeSortedEdges(100000, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CompressEdges(edges, 100)
	}
}

func BenchmarkDecodeAll(b *testing.B) {
	c := CompressEdges(makeSortedEdges(100000, 4), 100)
	ids := allIDs(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.DecodeIDs(ids)
	}
}

func BenchmarkRandomAccess(b *testing.B) {
	edges := makeSortedEdges(100000, 4)
	c := CompressEdges(edges, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.DecodeIDs([]uint64{100 + uint64(i%len(edges))})
	}
}

// TestDecodeIDsMatchesByID: the forward sweep reproduces the encoded edge
// for every ID of ascending subsets that are empty, sparse (crossing block
// boundaries, so checkpoints are skipped to), dense, hit the first and last
// edge or repeat an ID; descending and out-of-range IDs panic.
func TestDecodeIDsMatchesByID(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	for _, n := range []int{1, blockSize - 1, blockSize, blockSize + 1, 5*blockSize + 7} {
		edges := makeSortedEdges(n, uint64(n)+40)
		c := CompressEdges(edges, 100)
		first, last := uint64(100), uint64(100+n-1)
		all := allIDs(c)
		subsets := [][]uint64{nil, {first}, {last}, {first, last}, {last, last}, all}
		r := rng.New(uint64(n))
		for _, keepOneIn := range []int{2, 7, 300} {
			var ids []uint64
			for _, id := range all {
				if r.Intn(keepOneIn) == 0 {
					ids = append(ids, id)
				}
			}
			subsets = append(subsets, ids)
		}
		for _, ids := range subsets {
			got := c.DecodeIDs(ids)
			if len(got) != len(ids) {
				t.Fatalf("n=%d: %d IDs decoded to %d edges", n, len(ids), len(got))
			}
			for k, id := range ids {
				if want := edges[id-first]; got[k] != want {
					t.Fatalf("n=%d: ID %d: got %+v want %+v", n, id, got[k], want)
				}
			}
		}
		mustPanic("below range", func() { c.DecodeIDs([]uint64{first - 1}) })
		mustPanic("above range", func() { c.DecodeIDs([]uint64{first, last + 1}) })
		if n > 1 {
			mustPanic("descending", func() { c.DecodeIDs([]uint64{last, first}) })
		}
	}
	mustPanic("empty chunk", func() { CompressEdges(nil, 0).DecodeIDs([]uint64{0}) })
}

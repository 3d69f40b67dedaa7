package graph

import (
	"sort"
	"testing"

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

// allIDs lists every ID c holds, ascending.
func allIDs(c Chunk) []uint64 {
	ids := make([]uint64, c.Len())
	for i := range ids {
		ids[i] = c.FirstID() + uint64(i)
	}
	return ids
}

func TestRoundTripDecodeAll(t *testing.T) {
	for _, n := range []int{0, 1, 5, 255, 256, 257, 1031} {
		edges := makeSortedEdges(n, uint64(n))
		c := NewChunk(edges)
		got := c.DecodeIDsInto(nil, allIDs(c))
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
	edges := makeSortedEdges(785, 9)
	c := NewChunk(edges)
	for _, i := range []int{0, 1, 255, 256, 517, len(edges) - 1} {
		if got := c.DecodeIDsInto(nil, []uint64{100 + uint64(i)})[0]; got != edges[i] {
			t.Fatalf("position %d: got %+v want %+v", i, got, edges[i])
		}
	}
}

func TestByID(t *testing.T) {
	edges := makeSortedEdges(50, 3)
	c := NewChunk(edges)
	for i, e := range edges {
		if got := c.DecodeIDsInto(nil, []uint64{100 + uint64(i)})[0]; got != e {
			t.Fatalf("ID %d mismatch", 100+i)
		}
	}
}

func TestByIDPanicsOutOfRange(t *testing.T) {
	c := NewChunk(makeSortedEdges(10, 1))
	for _, id := range []uint64{99, 110} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ID %d should panic", id)
				}
			}()
			c.DecodeIDsInto(nil, []uint64{id})
		}()
	}
}

func TestEncodePanicsOnUnsorted(t *testing.T) {
	edges := []Edge{NewEdge(5, 1, 2), NewEdge(1, 2, 3)}
	edges[0].ID, edges[1].ID = 0, 1
	defer func() {
		if recover() == nil {
			t.Error("NewChunk should reject unsorted input")
		}
	}()
	NewChunk(edges)
}

func TestEncodePanicsOnNonConsecutiveIDs(t *testing.T) {
	edges := []Edge{NewEdge(1, 2, 3), NewEdge(1, 3, 4)}
	edges[0].ID, edges[1].ID = 0, 5
	defer func() {
		if recover() == nil {
			t.Error("NewChunk should reject non-consecutive IDs")
		}
	}()
	NewChunk(edges)
}

func TestLenAndFirstID(t *testing.T) {
	c := NewChunk(makeSortedEdges(33, 2))
	if c.Len() != 33 || c.FirstID() != 100 {
		t.Fatalf("Len=%d FirstID=%d", c.Len(), c.FirstID())
	}
	if c := NewChunk(nil); c.Len() != 0 || c.FirstID() != 0 {
		t.Fatalf("empty chunk: Len=%d FirstID=%d", c.Len(), c.FirstID())
	}
}

// TestDecodeIDsMatchesByID: DecodeIDsInto returns the input edge for every ID
// of ascending subsets that are empty, sparse, dense, hit the first and
// last edge or repeat an ID, into the destination's memory when it has
// room; descending and out-of-range IDs panic, and so does an ID whose edge
// was overwritten.
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
	for _, n := range []int{1, 255, 256, 257, 1287} {
		edges := makeSortedEdges(n, uint64(n)+40)
		c := NewChunk(edges)
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
		room := make([]Edge, 1, n+2) // holds every subset, {last, last} too
		for _, ids := range subsets {
			got := c.DecodeIDsInto(room, ids)
			if len(ids) > 0 && &got[0] != &room[0] {
				t.Fatalf("n=%d: %d IDs decoded into new memory, with room for %d", n, len(ids), cap(room))
			}
			if len(got) != len(ids) {
				t.Fatalf("n=%d: %d IDs decoded to %d edges", n, len(ids), len(got))
			}
			for k, id := range ids {
				if want := edges[id-first]; got[k] != want {
					t.Fatalf("n=%d: ID %d: got %+v want %+v", n, id, got[k], want)
				}
			}
		}
		mustPanic("below range", func() { c.DecodeIDsInto(nil, []uint64{first - 1}) })
		mustPanic("above range", func() { c.DecodeIDsInto(nil, []uint64{first, last + 1}) })
		if n > 1 {
			mustPanic("descending", func() { c.DecodeIDsInto(nil, []uint64{last, first}) })
		}
		edges[n-1].ID++
		mustPanic("overwritten", func() { c.DecodeIDsInto(nil, []uint64{last}) })
	}
	mustPanic("empty chunk", func() { NewChunk(nil).DecodeIDsInto(nil, []uint64{0}) })
}

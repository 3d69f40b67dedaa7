package localmst

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"kamsta/internal/arena"
	"kamsta/internal/comm"
	"kamsta/internal/dsort"
	"kamsta/internal/gen"
	"kamsta/internal/graph"
	"kamsta/internal/rng"
)

// pinned is the fingerprint of one Run result: everything downstream code
// and the modeled clock depend on.
type pinned struct {
	Work, Rounds int
	MST          int    // len(MSTEdges)
	MSTWeight    uint64 // ΣW of MSTEdges
	MSTHash      uint64 // FNV-1a of MSTEdges, every field, in order
	Rem          int    // len(Remaining)
	RemHash      uint64 // FNV-1a of Remaining, every field, in order
	LabelHash    uint64 // FNV-1a of Verts ‖ Roots
}

func hashEdges(edges []graph.Edge) uint64 {
	h := fnv.New64a()
	var b [36]byte
	for _, e := range edges {
		binary.LittleEndian.PutUint64(b[0:], e.U)
		binary.LittleEndian.PutUint64(b[8:], e.V)
		binary.LittleEndian.PutUint32(b[16:], e.W)
		binary.LittleEndian.PutUint64(b[20:], e.TB)
		binary.LittleEndian.PutUint64(b[28:], uint64(e.ID))
		h.Write(b[:])
	}
	return h.Sum64()
}

func fingerprint(r Result) pinned {
	h := fnv.New64a()
	var b [8]byte
	for _, vs := range [][]graph.VID{r.Verts, r.Roots} {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	return pinned{
		Work: r.Work, Rounds: r.Rounds,
		MST: len(r.MSTEdges), MSTWeight: totalWeight(r.MSTEdges), MSTHash: hashEdges(r.MSTEdges),
		Rem: len(r.Remaining), RemHash: hashEdges(r.Remaining),
		LabelHash: h.Sum64(),
	}
}

// pinnedInstance is one (edge chunk, locality predicate) input.
type pinnedInstance struct {
	name    string
	edges   []graph.Edge
	isLocal func(graph.VID) bool
}

// layoutInstances generates a family on one PE, re-cuts the sorted global
// sequence into six chunks that exercise every shape of a PE's vertex range
// — PE 0 ends inside a vertex, PE 1 lies wholly inside that vertex (empty
// contractible range), PE 2 holds the vertex's tail, one whole vertex and
// one edge of the next (single-vertex range), PE 3 has a shared first and
// last vertex, PE 4 is empty, PE 5 takes the rest — and pairs each chunk
// with the predicate core.localPreprocess derives from the real Layout.
func layoutInstances(t *testing.T, name string, spec gen.Spec) []pinnedInstance {
	var all []graph.Edge
	comm.NewWorld(1).Run(func(c *comm.Comm) {
		all, _ = gen.Build(c, spec, dsort.Options{})
	})
	start := func(i int) int { // first index of the source run containing i
		for i > 0 && all[i-1].U == all[i].U {
			i--
		}
		return i
	}
	end := func(i int) int { // one past the source run starting at i
		j := i
		for j < len(all) && all[j].U == all[i].U {
			j++
		}
		return j
	}
	x := start(len(all) / 3)
	for end(x)-x < 4 || end(end(end(x)))-end(end(x)) < 2 {
		x = end(x)
	}
	y := end(x)
	z := end(y)
	far := start(2*len(all)/3) + 1
	if end(far-1)-(far-1) < 2 {
		t.Fatalf("%s: degree-1 vertex at the far cut", name)
	}
	cuts := []int{0, x + 1, x + 3, z + 1, far, far, len(all)}
	chunks := make([][]graph.Edge, len(cuts)-1)
	for i := range chunks {
		chunks[i] = all[cuts[i]:cuts[i+1]]
	}
	var layout *graph.Layout
	comm.NewWorld(len(chunks)).Run(func(c *comm.Comm) {
		l := graph.BuildLayout(c, chunks[c.Rank()])
		if c.Rank() == 0 {
			layout = l
		}
	})
	var out []pinnedInstance
	for rank, chunk := range chunks {
		out = append(out, pinnedInstance{
			name:  fmt.Sprintf("%s/pe%d", name, rank),
			edges: chunk,
			isLocal: func(v graph.VID) bool {
				first, last := layout.SharedSpan(v)
				return first == last && first == rank
			},
		})
	}
	// The shapes the cuts were made for.
	local := func(in pinnedInstance) int {
		n, seen := 0, map[graph.VID]bool{}
		for _, e := range in.edges {
			if !seen[e.U] && in.isLocal(e.U) {
				n++
			}
			seen[e.U] = true
		}
		return n
	}
	if n := local(out[1]); n != 0 {
		t.Fatalf("%s: PE 1 should have an empty range, has %d local vertices", name, n)
	}
	if n := local(out[2]); n != 1 {
		t.Fatalf("%s: PE 2 should have a single-vertex range, has %d local vertices", name, n)
	}
	if in := out[3]; in.isLocal(in.edges[0].U) || in.isLocal(in.edges[len(in.edges)-1].U) {
		t.Fatalf("%s: PE 3's first and last vertex should be shared", name)
	}
	return out
}

// ownerModuloInstance is the predicate shape baselines/mndmst uses: vertices
// belong to eight contiguous owner blocks, and at stride 2 the PE leading
// blocks {2, 3} may contract exactly their vertices. The chunk is every
// edge with a source there.
func ownerModuloInstance() pinnedInstance {
	const n, blocks, stride, rank = 1 << 10, 8, 2, 2
	var all []graph.Edge
	comm.NewWorld(1).Run(func(c *comm.Comm) {
		all, _ = gen.Build(c, gen.Spec{Family: gen.GNM, N: n, M: 1 << 13, Seed: 5}, dsort.Options{})
	})
	isLocal := func(v graph.VID) bool {
		owner := int(v-1) * blocks / n
		return (owner/stride)*stride == rank
	}
	var mine []graph.Edge
	for _, e := range all {
		if isLocal(e.U) {
			mine = append(mine, e)
		}
	}
	return pinnedInstance{name: "gnm/owner-modulo", edges: mine, isLocal: isLocal}
}

// messyInstance has what generated input never has: labels spread over a
// span far wider than their count (the sort fallback of the id
// translation), self-loops, parallel copies with different weights, and a
// predicate with no range structure.
func messyInstance() pinnedInstance {
	edges := randomEdges(300, 2400, 21)
	r := rng.New(77)
	for i := 0; i < 200; i++ {
		e := edges[r.Intn(len(edges))]
		e.W = graph.Weight(r.Intn(254) + 1)
		edges = append(edges, e)
	}
	for i := 0; i < 20; i++ {
		v := graph.VID(r.Intn(300) + 1)
		edges = append(edges, graph.NewEdge(v, v, 7))
	}
	for i := range edges {
		e := &edges[i]
		e.U, e.V = e.U*7919, e.V*7919
		e.TB = graph.MakeTB(e.U, e.V)
		e.ID = uint32(i)
	}
	return pinnedInstance{name: "messy/mod3", edges: edges, isLocal: func(v graph.VID) bool { return v%3 != 0 }}
}

func pinnedInstances(t *testing.T) []pinnedInstance {
	ins := layoutInstances(t, "rgg2d", gen.Spec{Family: gen.RGG2D, N: 1 << 11, M: 1 << 14, Seed: 3})
	ins = append(ins, layoutInstances(t, "grid2d", gen.Spec{Family: gen.Grid2D, N: 1 << 12, Seed: 4})...)
	ins = append(ins, ownerModuloInstance(), messyInstance())
	return append(ins, pinnedInstance{name: "random/all-local", edges: randomEdges(1500, 9000, 17), isLocal: allLocal})
}

// pinnedWant was recorded on the commit before localmst moved to dense ids
// (PR 16's parent, db2de6d): one row per instance × Filter. The thread
// count does not change a result, so each row is asserted for 1 and 4. The
// gnm rows were re-recorded when GNM became a block-cell generator: its
// instance moved, Run did not.
var pinnedWant = map[string]pinned{
	"rgg2d/pe0/filter=false":        {Work: 12437, Rounds: 6, MST: 631, MSTWeight: 0x335b, MSTHash: 0xa868097474027958, Rem: 426, RemHash: 0xe5d4217585edf87e, LabelHash: 0xdd4858eb0638289a},
	"rgg2d/pe0/filter=true":         {Work: 8383, Rounds: 7, MST: 631, MSTWeight: 0x335b, MSTHash: 0xa868097474027958, Rem: 426, RemHash: 0xe5d4217585edf87e, LabelHash: 0xdd4858eb0638289a},
	"rgg2d/pe1/filter=false":        {Work: 2, Rounds: 1, MST: 0, MSTWeight: 0x0, MSTHash: 0xcbf29ce484222325, Rem: 2, RemHash: 0x21f944a4ae7789b9, LabelHash: 0xcbf29ce484222325},
	"rgg2d/pe1/filter=true":         {Work: 2, Rounds: 1, MST: 0, MSTWeight: 0x0, MSTHash: 0xcbf29ce484222325, Rem: 2, RemHash: 0x21f944a4ae7789b9, LabelHash: 0xcbf29ce484222325},
	"rgg2d/pe2/filter=false":        {Work: 30, Rounds: 1, MST: 0, MSTWeight: 0x0, MSTHash: 0xcbf29ce484222325, Rem: 30, RemHash: 0x950956d6b5dafa55, LabelHash: 0xdc38afe50d78af69},
	"rgg2d/pe2/filter=true":         {Work: 30, Rounds: 1, MST: 0, MSTWeight: 0x0, MSTHash: 0xcbf29ce484222325, Rem: 30, RemHash: 0x950956d6b5dafa55, LabelHash: 0xdc38afe50d78af69},
	"rgg2d/pe3/filter=false":        {Work: 12868, Rounds: 5, MST: 614, MSTWeight: 0x34b4, MSTHash: 0x5185fa5d42422297, Rem: 842, RemHash: 0x21e4be25c85ecaa4, LabelHash: 0x3600af829b7e483d},
	"rgg2d/pe3/filter=true":         {Work: 9717, Rounds: 6, MST: 614, MSTWeight: 0x34b4, MSTHash: 0x5185fa5d42422297, Rem: 842, RemHash: 0x21e4be25c85ecaa4, LabelHash: 0x3600af829b7e483d},
	"rgg2d/pe4/filter=false":        {Work: 0, Rounds: 1, MST: 0, MSTWeight: 0x0, MSTHash: 0xcbf29ce484222325, Rem: 0, RemHash: 0xcbf29ce484222325, LabelHash: 0xcbf29ce484222325},
	"rgg2d/pe4/filter=true":         {Work: 0, Rounds: 1, MST: 0, MSTWeight: 0x0, MSTHash: 0xcbf29ce484222325, Rem: 0, RemHash: 0xcbf29ce484222325, LabelHash: 0xcbf29ce484222325},
	"rgg2d/pe5/filter=false":        {Work: 12389, Rounds: 6, MST: 671, MSTWeight: 0x3a69, MSTHash: 0x4000ee122894955a, Rem: 386, RemHash: 0x9e809e3f828a7175, LabelHash: 0x74e0bcf33df40902},
	"rgg2d/pe5/filter=true":         {Work: 8808, Rounds: 7, MST: 671, MSTWeight: 0x3a69, MSTHash: 0x4000ee122894955a, Rem: 386, RemHash: 0x9e809e3f828a7175, LabelHash: 0x74e0bcf33df40902},
	"grid2d/pe0/filter=false":       {Work: 8229, Rounds: 6, MST: 1346, MSTWeight: 0x15bb2, MSTHash: 0xf7b6d6cd157ec4a4, Rem: 142, RemHash: 0x61ae278ea15f8423, LabelHash: 0x8f8d1f452a582d9a},
	"grid2d/pe0/filter=true":        {Work: 5426, Rounds: 9, MST: 1346, MSTWeight: 0x15bb2, MSTHash: 0x95dc96c2e63ab289, Rem: 142, RemHash: 0x61ae278ea15f8423, LabelHash: 0x8f8d1f452a582d9a},
	"grid2d/pe1/filter=false":       {Work: 2, Rounds: 1, MST: 0, MSTWeight: 0x0, MSTHash: 0xcbf29ce484222325, Rem: 2, RemHash: 0x8014769fad466275, LabelHash: 0xcbf29ce484222325},
	"grid2d/pe1/filter=true":        {Work: 2, Rounds: 1, MST: 0, MSTWeight: 0x0, MSTHash: 0xcbf29ce484222325, Rem: 2, RemHash: 0x8014769fad466275, LabelHash: 0xcbf29ce484222325},
	"grid2d/pe2/filter=false":       {Work: 6, Rounds: 1, MST: 0, MSTWeight: 0x0, MSTHash: 0xcbf29ce484222325, Rem: 6, RemHash: 0x1b82c827e5c1f743, LabelHash: 0xe63e744a0b3bee7d},
	"grid2d/pe2/filter=true":        {Work: 6, Rounds: 1, MST: 0, MSTWeight: 0x0, MSTHash: 0xcbf29ce484222325, Rem: 6, RemHash: 0x1b82c827e5c1f743, LabelHash: 0xe63e744a0b3bee7d},
	"grid2d/pe3/filter=false":       {Work: 8312, Rounds: 6, MST: 1303, MSTWeight: 0x16692, MSTHash: 0x3c029e0ec5403500, Rem: 307, RemHash: 0xde7be511fbb22773, LabelHash: 0x28871d7322424cb4},
	"grid2d/pe3/filter=true":        {Work: 6139, Rounds: 9, MST: 1303, MSTWeight: 0x16692, MSTHash: 0xde7ee8c97c911df2, Rem: 307, RemHash: 0xde7be511fbb22773, LabelHash: 0x28871d7322424cb4},
	"grid2d/pe4/filter=false":       {Work: 0, Rounds: 1, MST: 0, MSTWeight: 0x0, MSTHash: 0xcbf29ce484222325, Rem: 0, RemHash: 0xcbf29ce484222325, LabelHash: 0xcbf29ce484222325},
	"grid2d/pe4/filter=true":        {Work: 0, Rounds: 1, MST: 0, MSTWeight: 0x0, MSTHash: 0xcbf29ce484222325, Rem: 0, RemHash: 0xcbf29ce484222325, LabelHash: 0xcbf29ce484222325},
	"grid2d/pe5/filter=false":       {Work: 8213, Rounds: 6, MST: 1344, MSTWeight: 0x16882, MSTHash: 0x39cd777e4832dd12, Rem: 150, RemHash: 0xe4829788a4abcced, LabelHash: 0x99e6f7d62473156b},
	"grid2d/pe5/filter=true":        {Work: 5802, Rounds: 9, MST: 1344, MSTWeight: 0x16882, MSTHash: 0x64c77c0e608c17dd, Rem: 150, RemHash: 0xe4829788a4abcced, LabelHash: 0x99e6f7d62473156b},
	"gnm/owner-modulo/filter=false": {Work: 4780, Rounds: 3, MST: 54, MSTWeight: 0x3fa, MSTHash: 0x9d947427279db7e0, Rem: 3921, RemHash: 0x35c0e3b6232feb32, LabelHash: 0x9d1dfd28183e4dc0},
	"gnm/owner-modulo/filter=true":  {Work: 6368, Rounds: 4, MST: 54, MSTWeight: 0x3fa, MSTHash: 0x9d947427279db7e0, Rem: 3921, RemHash: 0x35c0e3b6232feb32, LabelHash: 0x9d1dfd28183e4dc0},
	"messy/mod3/filter=false":       {Work: 3570, Rounds: 3, MST: 105, MSTWeight: 0x862, MSTHash: 0xf8d5d4e1973341b7, Rem: 2156, RemHash: 0x55b5766e4e535e2c, LabelHash: 0x6675389dcd85e5fa},
	"messy/mod3/filter=true":        {Work: 4353, Rounds: 4, MST: 105, MSTWeight: 0x862, MSTHash: 0xf8d5d4e1973341b7, Rem: 2156, RemHash: 0x55b5766e4e535e2c, LabelHash: 0x6675389dcd85e5fa},
	"random/all-local/filter=false": {Work: 19817, Rounds: 6, MST: 1499, MSTWeight: 0x949e, MSTHash: 0xd1b30cb8c813033f, Rem: 0, RemHash: 0xcbf29ce484222325, LabelHash: 0xe82b12b8c2d669c6},
	"random/all-local/filter=true":  {Work: 10286, Rounds: 8, MST: 1499, MSTWeight: 0x949e, MSTHash: 0x783e88fcc2a1d2ca, Rem: 0, RemHash: 0xcbf29ce484222325, LabelHash: 0xe82b12b8c2d669c6},
}

// TestRunResultsPinned holds Run to the results of the representation it
// replaced: Work and Rounds feed the modeled clock, MSTEdges (in order) and
// Remaining feed everything downstream of preprocessing.
func TestRunResultsPinned(t *testing.T) {
	seen := 0
	for _, in := range pinnedInstances(t) {
		for _, filter := range []bool{false, true} {
			key := fmt.Sprintf("%s/filter=%v", in.name, filter)
			want, ok := pinnedWant[key]
			seen++
			got := fingerprint(Run(in.edges, in.isLocal, Config{Filter: filter, FilterThreshold: 200}))
			if !ok {
				t.Errorf("no pinned row; recorded:\n\t%q: %#v,", key, got)
			} else if got != want {
				t.Errorf("%s:\n got %+v\nwant %+v", key, got, want)
			}
		}
	}
	if seen != len(pinnedWant) {
		t.Errorf("%d rows exercised, %d pinned", seen, len(pinnedWant))
	}
}

// TestRunSteadyStateAllocs: on a warm arena a Run allocates nothing, however
// many edges and rounds it has — every buffer, the Result's slices included,
// is recycled, and its state stays on the stack.
func TestRunSteadyStateAllocs(t *testing.T) {
	isLocal := func(v graph.VID) bool { return v%5 != 0 }
	for _, filter := range []bool{false, true} {
		for _, m := range []int{2000, 40000} {
			edges := randomEdges(m/4, m, 31)
			cfg := Config{Scratch: arena.New(), Filter: filter, FilterThreshold: 500}
			Run(edges, isLocal, cfg) // warm the arena
			if n := testing.AllocsPerRun(5, func() { Run(edges, isLocal, cfg) }); n != 0 {
				t.Errorf("filter=%v: %v allocations per warm Run at %d edges, want 0", filter, n, m)
			}
		}
	}
}

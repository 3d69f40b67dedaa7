package graph

import (
	"sort"
	"testing"

	"kamsta/internal/comm"
	"kamsta/internal/rng"
)

// makeGlobalEdges builds a sorted symmetric edge sequence for a small
// random graph on n vertices (labels 1..n).
func makeGlobalEdges(n, m int, seed uint64) []Edge {
	r := rng.New(seed)
	seen := map[uint64]bool{}
	var edges []Edge
	for len(seen) < m {
		u := VID(r.Intn(n) + 1)
		v := VID(r.Intn(n) + 1)
		if u == v {
			continue
		}
		tb := MakeTB(u, v)
		if seen[tb] {
			continue
		}
		seen[tb] = true
		w := RandomWeight(seed, u, v)
		edges = append(edges, NewEdge(u, v, w), NewEdge(v, u, w))
	}
	sortEdges(edges)
	for i := range edges {
		edges[i].ID = uint32(i)
	}
	return edges
}

func sortEdges(edges []Edge) {
	// insertion of sort.Slice here keeps the test independent of dsort
	for i := 1; i < len(edges); i++ {
		for j := i; j > 0 && LessLex(edges[j], edges[j-1]); j-- {
			edges[j], edges[j-1] = edges[j-1], edges[j]
		}
	}
}

// partitions splits the edges into p chunks according to a cut pattern:
// 0 = balanced, 1 = skewed to front, 2 = with empty PEs in the middle.
func partition(edges []Edge, p, pattern int) [][]Edge {
	out := make([][]Edge, p)
	m := len(edges)
	switch pattern {
	case 0:
		chunk := (m + p - 1) / p
		for i := 0; i < p; i++ {
			lo, hi := i*chunk, (i+1)*chunk
			if lo > m {
				lo = m
			}
			if hi > m {
				hi = m
			}
			out[i] = edges[lo:hi]
		}
	case 1: // first PE gets half, rest share
		if p == 1 {
			out[0] = edges
			break
		}
		half := m / 2
		out[0] = edges[:half]
		rest := edges[half:]
		chunk := (len(rest) + p - 2) / maxi(p-1, 1)
		for i := 1; i < p; i++ {
			lo, hi := (i-1)*chunk, i*chunk
			if lo > len(rest) {
				lo = len(rest)
			}
			if hi > len(rest) {
				hi = len(rest)
			}
			out[i] = rest[lo:hi]
		}
	case 2: // even PEs empty
		nonEmpty := (p + 1) / 2
		chunk := (m + nonEmpty - 1) / nonEmpty
		k := 0
		for i := 0; i < p; i++ {
			if i%2 == 0 && i != 0 {
				continue
			}
			lo, hi := k*chunk, (k+1)*chunk
			if lo > m {
				lo = m
			}
			if hi > m {
				hi = m
			}
			out[i] = edges[lo:hi]
			k++
		}
	}
	return out
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// bruteHome returns the index of the chunk where v's source range starts.
func bruteHome(chunks [][]Edge, v VID) int {
	for i, ch := range chunks {
		for _, e := range ch {
			if e.U == v {
				return i
			}
		}
	}
	return -1
}

func bruteShared(chunks [][]Edge, v VID) bool {
	n := 0
	for _, ch := range chunks {
		for _, e := range ch {
			if e.U == v {
				n++
				break
			}
		}
	}
	return n > 1
}

func bruteOwner(chunks [][]Edge, want Edge) int {
	for i, ch := range chunks {
		for _, e := range ch {
			if e == want {
				return i
			}
		}
	}
	return -1
}

func TestLayoutAgainstBruteForce(t *testing.T) {
	edges := makeGlobalEdges(30, 60, 17)
	for _, p := range []int{1, 2, 3, 5, 8} {
		for pattern := 0; pattern <= 2; pattern++ {
			chunks := partition(edges, p, pattern)
			w := comm.NewWorld(p)
			w.Run(func(c *comm.Comm) {
				l := BuildLayout(c, chunks[c.Rank()])
				for i := range l.P {
					if n := l.Count(i); n != len(chunks[i]) {
						t.Errorf("p=%d pat=%d: Counts[%d]=%d want %d", p, pattern, i, n, len(chunks[i]))
						return
					}
				}
				if c.Rank() != 0 {
					return // checks below are deterministic and replicated
				}
				for v := VID(1); v <= 30; v++ {
					wantHome := bruteHome(chunks, v)
					if wantHome < 0 {
						continue // vertex has no edges
					}
					if got := l.HomePE(v); got != wantHome {
						t.Errorf("p=%d pat=%d: HomePE(%d)=%d want %d", p, pattern, v, got, wantHome)
					}
					if got := l.IsShared(v); got != bruteShared(chunks, v) {
						t.Errorf("p=%d pat=%d: IsShared(%d)=%v want %v", p, pattern, v, got, !got)
					}
				}
				for _, e := range edges {
					// e is the reverse copy of its own reverse.
					rev := Edge{U: e.V, V: e.U, W: e.W, TB: e.TB}
					want := bruteOwner(chunks, e)
					if got := l.OwnerOfReverse(rev); got != want {
						t.Errorf("p=%d pat=%d: owner of (%d,%d)=%d want %d", p, pattern, e.U, e.V, got, want)
					}
				}
			})
		}
	}
}

func TestSharedSpanCoversAllHolders(t *testing.T) {
	edges := makeGlobalEdges(10, 25, 3)
	p := 6
	chunks := partition(edges, p, 0)
	w := comm.NewWorld(p)
	w.Run(func(c *comm.Comm) {
		l := BuildLayout(c, chunks[c.Rank()])
		if c.Rank() != 0 {
			return
		}
		for v := VID(1); v <= 10; v++ {
			if bruteHome(chunks, v) < 0 {
				continue
			}
			first, last := l.SharedSpan(v)
			for i := 0; i < p; i++ {
				holds := false
				for _, e := range chunks[i] {
					if e.U == v {
						holds = true
						break
					}
				}
				inSpan := i >= first && i <= last && l.Count(i) > 0
				if holds != inSpan {
					t.Errorf("v=%d PE=%d: holds=%v but span=[%d,%d]", v, i, holds, first, last)
				}
			}
		}
	})
}

func TestIsSharedOn(t *testing.T) {
	// Construct a vertex spanning PEs 1..2 explicitly.
	all := []Edge{
		{U: 1, V: 2, W: 1, TB: MakeTB(1, 2)},
		{U: 2, V: 1, W: 1, TB: MakeTB(1, 2)},
		{U: 2, V: 3, W: 2, TB: MakeTB(2, 3)},
		{U: 3, V: 2, W: 2, TB: MakeTB(2, 3)},
	}
	chunks := [][]Edge{all[:1], all[1:2], all[2:]}
	w := comm.NewWorld(3)
	w.Run(func(c *comm.Comm) {
		l := BuildLayout(c, chunks[c.Rank()])
		if c.Rank() == 0 {
			if !l.IsShared(2) {
				t.Error("vertex 2 spans PEs 1 and 2, should be shared")
			}
			if l.IsShared(1) || l.IsShared(3) {
				t.Error("vertices 1 and 3 are not shared")
			}
			if !l.IsSharedOn(2, 1) || !l.IsSharedOn(2, 2) {
				t.Error("IsSharedOn should be true on both holders")
			}
			if l.IsSharedOn(2, 0) {
				t.Error("IsSharedOn must be false on a PE outside the span")
			}
		}
	})
}

func TestGlobalVertexCount(t *testing.T) {
	edges := makeGlobalEdges(25, 50, 9)
	distinct := map[VID]bool{}
	for _, e := range edges {
		distinct[e.U] = true
	}
	for _, p := range []int{1, 2, 4, 7} {
		for pattern := 0; pattern <= 2; pattern++ {
			chunks := partition(edges, p, pattern)
			w := comm.NewWorld(p)
			w.Run(func(c *comm.Comm) {
				l := BuildLayout(c, chunks[c.Rank()])
				got := GlobalVertexCount(c, l, chunks[c.Rank()])
				if got != len(distinct) {
					t.Errorf("p=%d pat=%d rank=%d: GlobalVertexCount=%d want %d", p, pattern, c.Rank(), got, len(distinct))
				}
				if again := GlobalVertexCount(c, l, chunks[c.Rank()]); again != got {
					t.Errorf("p=%d pat=%d rank=%d: the remembered count gives %d, the first %d", p, pattern, c.Rank(), again, got)
				}
			})
		}
	}
}

// TestDedupSortedAcrossBoundaries: DedupSorted keeps the first edge of every
// (U, V) run of the global sequence, whatever the chunks cut — a run split
// over several PEs, a PE holding nothing but the continuation of one — and
// on a duplicate-free chunk it returns the chunk itself.
func TestDedupSortedAcrossBoundaries(t *testing.T) {
	r := rng.New(5)
	var seq, want []Edge
	for _, e := range makeGlobalEdges(40, 120, 3) {
		want = append(want, e)
		for k := r.Intn(7) - 2; k > 0; k-- { // runs of 1 to 5
			e.W++
			seq = append(seq, e)
		}
		seq = append(seq, want[len(want)-1])
	}
	sort.Slice(seq, func(i, j int) bool { return LessLex(seq[i], seq[j]) })
	for _, p := range []int{1, 3, 8} {
		for cut := 0; cut < 4; cut++ {
			// Chunk boundaries at seeded positions; some chunks are empty or
			// lie inside one run.
			bounds := []int{0}
			for i := 1; i < p; i++ {
				bounds = append(bounds, bounds[i-1]+r.Intn(2*len(seq)/p+1))
			}
			bounds = append(bounds, len(seq))
			if p == 3 && cut == 0 {
				// The middle PE holds the inside of the first run of 5.
				a := 0
				for seq[a].U != seq[a+4].U || seq[a].V != seq[a+4].V {
					a++
				}
				bounds = []int{0, a + 1, a + 4, len(seq)}
			}
			chunks := make([][]Edge, p)
			for i := range chunks {
				lo, hi := min(bounds[i], len(seq)), min(max(bounds[i+1], bounds[i]), len(seq))
				chunks[i] = append([]Edge(nil), seq[lo:hi]...)
			}
			got := make([][]Edge, p)
			comm.NewWorld(p).Run(func(c *comm.Comm) { got[c.Rank()] = DedupSorted(c, chunks[c.Rank()]) })
			var all []Edge
			for _, g := range got {
				all = append(all, g...)
			}
			if len(all) != len(want) {
				t.Fatalf("p=%d cut %d: %d edges kept, want %d", p, cut, len(all), len(want))
			}
			for i := range all {
				if all[i] != want[i] {
					t.Fatalf("p=%d cut %d: edge %d is %v, want %v", p, cut, i, all[i], want[i])
				}
			}
		}
		chunks := partition(want, p, 0)
		comm.NewWorld(p).Run(func(c *comm.Comm) {
			in := chunks[c.Rank()]
			if out := DedupSorted(c, in); len(out) != len(in) || len(in) > 0 && &out[0] != &in[0] {
				t.Errorf("p=%d rank %d: a duplicate-free chunk of %d came back as %d edges elsewhere", p, c.Rank(), len(in), len(out))
			}
		})
	}
}

func TestLayoutAllEmpty(t *testing.T) {
	w := comm.NewWorld(3)
	w.Run(func(c *comm.Comm) {
		l := BuildLayout(c, nil)
		for i := range l.P {
			if n := l.Count(i); n != 0 {
				t.Errorf("empty layout has %d edges on PE %d", n, i)
			}
		}
	})
}

// randomDistribution is a random sorted, symmetric edge sequence cut into p
// chunks: parallel copies (a second weight class between the same
// endpoints), a hub whose range tends to span several PEs, and random cuts,
// repeats allowed, so equal cuts leave PEs empty. cuts[i]..cuts[i+1] is PE i.
func randomDistribution(r *rng.RNG, trial int) (edges []Edge, cuts []int) {
	n := 6 + r.Intn(30)
	base := makeGlobalEdges(n, n+r.Intn(n*(n-1)/2-n), uint64(trial))
	for _, e := range base {
		if e.U < e.V && (e.U == 1 || r.Intn(4) == 0) { // a parallel class, and vertex 1 a hub
			w := e.W + 256*Weight(1+r.Intn(3))
			edges = append(edges, Edge{U: e.U, V: e.V, W: w, TB: e.TB}, Edge{U: e.V, V: e.U, W: w, TB: e.TB})
		}
	}
	edges = append(edges, base...)
	sort.Slice(edges, func(i, j int) bool { return LessLex(edges[i], edges[j]) })
	for i := range edges {
		edges[i].ID = uint32(i)
	}
	p := 2 + r.Intn(11)
	cuts = make([]int, p+1)
	cuts[p] = len(edges)
	for i := 1; i < p; i++ {
		cuts[i] = r.Intn(len(edges) + 1)
	}
	sort.Ints(cuts)
	return edges, cuts
}

// layoutOf assembles the replicated layout of a cut distribution.
func layoutOf(edges []Edge, cuts []int) *Layout {
	all := make([]entry, len(cuts)-1)
	for i := range all {
		if chunk := edges[cuts[i]:cuts[i+1]]; len(chunk) > 0 {
			all[i] = entry{First: chunk[0], Last: chunk[len(chunk)-1], Count: len(chunk)}
		}
	}
	return assembleLayout(all)
}

// TestReverseOwnerCursor walks every PE's source runs as EXCHANGELABELS does —
// OwnerOfReverse for a run's first edge, NextOwnerOfReverse from there on —
// and requires the cursor to name, edge by edge, the PE OwnerOfReverse names
// and the PE that really holds the reverse copy.
func TestReverseOwnerCursor(t *testing.T) {
	r := rng.New(25)
	sawEmpty, sawWide, sawParallel, sawMove := false, false, false, false
	for trial := 0; trial < 300; trial++ {
		edges, cuts := randomDistribution(r, trial)
		l := layoutOf(edges, cuts)
		holder := map[Edge]int{} // edge without its ID → the PE holding it
		for pe := 0; pe+1 < len(cuts); pe++ {
			sawEmpty = sawEmpty || cuts[pe] == cuts[pe+1]
			for _, e := range edges[cuts[pe]:cuts[pe+1]] {
				e.ID = 0
				holder[e] = pe
			}
		}
		for pe := 0; pe+1 < len(cuts); pe++ {
			chunk := edges[cuts[pe]:cuts[pe+1]]
			owner := -1
			for i, e := range chunk {
				if i == 0 || e.U != chunk[i-1].U {
					owner = l.OwnerOfReverse(e)
					first, last := l.SharedSpan(e.U)
					sawWide = sawWide || last-first >= 2
				} else {
					prev := owner
					owner = l.NextOwnerOfReverse(owner, e)
					sawMove = sawMove || owner != prev
					sawParallel = sawParallel || e.V == chunk[i-1].V
				}
				want, ok := holder[Edge{U: e.V, V: e.U, W: e.W, TB: e.TB}]
				if !ok {
					t.Fatalf("trial %d: edge %v has no reverse copy", trial, e)
				}
				if got := l.OwnerOfReverse(e); owner != got || owner != want {
					t.Fatalf("trial %d: PE %d edge %d %v: cursor %d, OwnerOfReverse %d, holder %d (cuts %v)",
						trial, pe, i, e, owner, got, want, cuts)
				}
			}
		}
	}
	if !sawEmpty || !sawWide || !sawParallel || !sawMove {
		t.Fatalf("shapes not covered: empty PE %v, span ≥ 3 %v, parallel copies %v, cursor moved %v", sawEmpty, sawWide, sawParallel, sawMove)
	}
}

// locateRef is the layout search as a sort.Search closure over First: the
// first non-empty PE holding an edge >= probe, or P when none.
func locateRef(l *Layout, probe Edge) int {
	i := sort.Search(l.P, func(i int) bool {
		n := l.pes[i+1].next
		return n >= l.P || LessLex(probe, l.First(n))
	})
	if i = l.pes[min(i, l.P)].next; i < l.P && LessLex(l.Last(i), probe) {
		i = l.pes[i+1].next
	}
	return i
}

// TestLocateMatchesReference holds the closure-free locate to the reference
// on every edge, every source's HomePE probe, every reverse probe, both
// sentinels, and a probe just past each PE's last edge — in the value gap
// before the next non-empty PE's first edge, whose answer is that next PE.
func TestLocateMatchesReference(t *testing.T) {
	r := rng.New(26)
	gaps := 0
	for trial := 0; trial < 300; trial++ {
		edges, cuts := randomDistribution(r, trial)
		l := layoutOf(edges, cuts)
		probes := []Edge{{}, MaxEdge()}
		for _, e := range edges {
			probes = append(probes, e, Edge{U: e.U}, Edge{U: e.V, V: e.U, W: e.W, TB: e.TB})
		}
		for i := 0; i < l.P; i++ {
			if l.Count(i) > 0 {
				past := l.Last(i)
				past.ID++
				probes = append(probes, past)
				if n := l.pes[i+1].next; n < l.P && LessLex(past, l.First(n)) && locateRef(l, past) == n {
					gaps++
				}
			}
		}
		for _, probe := range probes {
			want := min(locateRef(l, probe), l.P-1)
			if got := l.locate(&probe); got != want {
				t.Fatalf("trial %d: locate(%v) = %d, the reference %d (cuts %v)", trial, probe, got, want, cuts)
			}
		}
	}
	if gaps == 0 {
		t.Fatal("no probe fell in the gap between two non-empty PEs")
	}
}

// Package unionfind implements a disjoint-set forest with union by rank and
// path halving. It is the workhorse of the sequential Kruskal and
// Filter-Kruskal baselines and of every correctness check that asks whether
// a distributed result spans the same components as the ground truth.
package unionfind

// UF is a disjoint-set forest over the elements 0..n-1.
type UF struct {
	parent []int32
	rank   []uint8
	count  int // number of disjoint sets
}

// New returns a forest of n singleton sets.
func New(n int) *UF {
	u := &UF{
		parent: make([]int32, n),
		rank:   make([]uint8, n),
		count:  n,
	}
	for i := range u.parent {
		u.parent[i] = int32(i)
	}
	return u
}

// Len reports the number of elements.
func (u *UF) Len() int { return len(u.parent) }

// Count reports the current number of disjoint sets.
func (u *UF) Count() int { return u.count }

// Find returns the representative of x's set, halving the path on the way.
func (u *UF) Find(x int) int {
	p := u.parent
	for p[x] != int32(x) {
		p[x] = p[p[x]] // path halving
		x = int(p[x])
	}
	return x
}

// Union merges the sets of a and b and reports whether they were previously
// distinct.
func (u *UF) Union(a, b int) bool {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return false
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = int32(ra)
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
	u.count--
	return true
}

// Same reports whether a and b are in the same set.
func (u *UF) Same(a, b int) bool {
	return u.Find(a) == u.Find(b)
}

// Reset restores all elements to singleton sets.
func (u *UF) Reset() {
	for i := range u.parent {
		u.parent[i] = int32(i)
		u.rank[i] = 0
	}
	u.count = len(u.parent)
}

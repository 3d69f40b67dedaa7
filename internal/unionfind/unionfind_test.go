package unionfind

import (
	"testing"
	"testing/quick"
)

func TestSingletons(t *testing.T) {
	u := New(5)
	if u.Count() != 5 {
		t.Fatalf("Count=%d want 5", u.Count())
	}
	for i := 0; i < 5; i++ {
		if u.Find(i) != i {
			t.Fatalf("Find(%d)=%d before any union", i, u.Find(i))
		}
	}
}

func TestUnionBasics(t *testing.T) {
	u := New(4)
	if !u.Union(0, 1) {
		t.Fatal("first union should merge")
	}
	if u.Union(0, 1) {
		t.Fatal("second union of same pair should be a no-op")
	}
	if !u.Same(0, 1) || u.Same(0, 2) {
		t.Fatal("Same gives wrong answer after union")
	}
	if u.Count() != 3 {
		t.Fatalf("Count=%d want 3", u.Count())
	}
}

func TestTransitivity(t *testing.T) {
	u := New(10)
	u.Union(0, 1)
	u.Union(1, 2)
	u.Union(3, 4)
	if !u.Same(0, 2) {
		t.Fatal("union should be transitive")
	}
	if u.Same(0, 3) {
		t.Fatal("separate chains must stay separate")
	}
	u.Union(2, 3)
	if !u.Same(0, 4) {
		t.Fatal("merged chains should be connected")
	}
}

func TestChainCollapse(t *testing.T) {
	const n = 10000
	u := New(n)
	for i := 0; i < n-1; i++ {
		u.Union(i, i+1)
	}
	if u.Count() != 1 {
		t.Fatalf("Count=%d want 1", u.Count())
	}
	root := u.Find(0)
	for i := 0; i < n; i += 97 {
		if u.Find(i) != root {
			t.Fatalf("element %d has different root", i)
		}
	}
}

func TestReset(t *testing.T) {
	u := New(6)
	u.Union(0, 5)
	u.Union(1, 2)
	u.Reset()
	if u.Count() != 6 {
		t.Fatalf("Count=%d after Reset, want 6", u.Count())
	}
	if u.Same(0, 5) {
		t.Fatal("Reset should separate all elements")
	}
}

func TestCountInvariant(t *testing.T) {
	// Property: count always equals the number of distinct roots.
	f := func(pairs []struct{ A, B uint8 }) bool {
		u := New(256)
		for _, p := range pairs {
			u.Union(int(p.A), int(p.B))
		}
		roots := map[int]bool{}
		for i := 0; i < 256; i++ {
			roots[u.Find(i)] = true
		}
		return len(roots) == u.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFindIdempotent(t *testing.T) {
	f := func(pairs []struct{ A, B uint8 }, probe uint8) bool {
		u := New(256)
		for _, p := range pairs {
			u.Union(int(p.A), int(p.B))
		}
		r := u.Find(int(probe))
		return u.Find(r) == r && u.Find(int(probe)) == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkUnionFind(b *testing.B) {
	const n = 1 << 16
	for i := 0; i < b.N; i++ {
		u := New(n)
		for j := 0; j < n-1; j++ {
			u.Union(j, j+1)
		}
		_ = u.Find(0)
	}
}

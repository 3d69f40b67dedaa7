package radix

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

func intKey(v int) uint64   { return uint64(v) }
func intLess(a, b int) bool { return a < b }
func checkInts(t *testing.T, got, want []int) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestSortInts(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 17, 256, 4096} {
		data := make([]int, n)
		for i := range data {
			data[i] = r.Intn(1 << 20)
		}
		want := slices.Clone(data)
		sort.Ints(want)
		Sort(data, intKey, intLess)
		checkInts(t, data, want)
	}
}

func TestSortAllEqualKeys(t *testing.T) {
	data := make([]int, 500)
	for i := range data {
		data[i] = 7
	}
	Sort(data, intKey, intLess)
	for _, v := range data {
		if v != 7 {
			t.Fatalf("corrupted: %d", v)
		}
	}
}

// TestPrefixKeyFinishedByComparator exercises the order-consistency
// contract: the key encodes only the high field, the comparator breaks the
// rest.
func TestPrefixKeyFinishedByComparator(t *testing.T) {
	type kv struct{ Hi, Lo int }
	r := rand.New(rand.NewSource(2))
	data := make([]kv, 3000)
	for i := range data {
		data[i] = kv{Hi: r.Intn(8), Lo: r.Intn(1 << 16)} // long equal-key runs
	}
	less := func(a, b kv) bool {
		if a.Hi != b.Hi {
			return a.Hi < b.Hi
		}
		return a.Lo < b.Lo
	}
	want := slices.Clone(data)
	slices.SortFunc(want, CmpOf(less))
	Sort(data, func(x kv) uint64 { return uint64(x.Hi) }, less)
	if !slices.Equal(data, want) {
		t.Fatal("prefix-key sort differs from comparator sort")
	}
}

func TestSortFullWidthKeys(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	data := make([]uint64, 5000)
	for i := range data {
		data[i] = r.Uint64() // all 8 bytes vary
	}
	want := slices.Clone(data)
	slices.Sort(want)
	Sort(data, func(v uint64) uint64 { return v }, func(a, b uint64) bool { return a < b })
	if !slices.Equal(data, want) {
		t.Fatal("full-width key sort differs")
	}
}

func TestSortIntoReusesScratch(t *testing.T) {
	pairs := make([]KV, 100)
	tmp := make([]KV, 100)
	dst := make([]int, 100)
	r := rand.New(rand.NewSource(4))
	for round := 0; round < 5; round++ {
		data := make([]int, 100)
		for i := range data {
			data[i] = r.Intn(1000)
		}
		want := slices.Clone(data)
		sort.Ints(want)
		SortInto(dst, data, intKey, intLess, pairs, tmp)
		checkInts(t, dst, want)
	}
}

func TestSortIntoLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on scratch length mismatch")
		}
	}()
	SortInto(make([]int, 3), []int{3, 1, 2}, intKey, intLess, make([]KV, 2), make([]KV, 3))
}

func TestSortStableWithinEqualKeysBeforeFinish(t *testing.T) {
	// A comparator that declares ties (weak order): equal-key elements must
	// come out in SOME deterministic order and the multiset must survive.
	type rec struct{ K, Tag int }
	data := make([]rec, 200)
	for i := range data {
		data[i] = rec{K: i % 3, Tag: i}
	}
	Sort(data, func(x rec) uint64 { return uint64(x.K) }, func(a, b rec) bool { return a.K < b.K })
	seen := map[int]bool{}
	for i := 1; i < len(data); i++ {
		if data[i].K < data[i-1].K {
			t.Fatal("keys out of order")
		}
	}
	for _, x := range data {
		if seen[x.Tag] {
			t.Fatal("element duplicated")
		}
		seen[x.Tag] = true
	}
	if len(seen) != 200 {
		t.Fatal("element lost")
	}
}

// TestSortInto holds the into-kernel to a stable comparison sort of a copy:
// dst distinct from src, src unchanged, through the early exits (already
// sorted, all keys equal, n < 2) and the gather, on total orders and on the
// PR 5 duplicate-key shapes (a weak order whose key is all of it, so ties
// are only required to survive as a multiset).
func TestSortInto(t *testing.T) {
	type rec struct{ K, Tag int }
	key := func(x rec) uint64 { return uint64(x.K) }
	total := func(a, b rec) bool { return a.K < b.K || (a.K == b.K && a.Tag < b.Tag) }
	weak := func(a, b rec) bool { return a.K < b.K }
	r := rand.New(rand.NewSource(5))
	gen := func(n int, k func(i int) int) []rec {
		out := make([]rec, n)
		for i := range out {
			out[i] = rec{K: k(i), Tag: r.Intn(1 << 30)}
		}
		return out
	}
	cases := map[string]struct {
		src  []rec
		less func(a, b rec) bool
	}{
		"empty":           {nil, total},
		"one":             {gen(1, func(int) int { return 3 }), total},
		"two-swapped":     {[]rec{{2, 0}, {1, 0}}, total},
		"random":          {gen(3000, func(int) int { return r.Intn(1 << 18) }), total},
		"long-key-runs":   {gen(3000, func(int) int { return r.Intn(4) }), total},
		"already-sorted":  {gen(500, func(i int) int { return 2 * i }), total},
		"all-equal-keys":  {gen(500, func(int) int { return 7 }), total},
		"dup-all-equal":   {gen(800, func(int) int { return 7 }), weak},
		"dup-two-classes": {gen(800, func(i int) int { return []int{3, 200}[i%2] }), weak},
	}
	for name, tc := range cases {
		n := len(tc.src)
		before := slices.Clone(tc.src)
		dst := make([]rec, n)
		SortInto(dst, tc.src, key, tc.less, make([]KV, n), make([]KV, n))
		if !slices.Equal(tc.src, before) {
			t.Errorf("%s: SortInto wrote its source", name)
		}
		want := slices.Clone(before)
		slices.SortStableFunc(want, CmpOf(total))
		if !slices.IsSortedFunc(dst, CmpOf(tc.less)) {
			t.Errorf("%s: destination not sorted", name)
		}
		slices.SortStableFunc(dst, CmpOf(total)) // a no-op under the total order
		if !slices.Equal(dst, want) {
			t.Errorf("%s: destination is not the sorted source", name)
		}
	}
}

// TestSortIntoRefusesUint32Overflow: 2^32 zero-size elements cost nothing
// to make and must be refused before an index wraps, not sorted wrongly.
func TestSortIntoRefusesUint32Overflow(t *testing.T) {
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "overflow the uint32 index") {
			t.Fatalf("SortInto of 2^32 elements: recovered %q", msg)
		}
	}()
	big := make([]struct{}, 1<<32)
	SortInto(big, big, func(struct{}) uint64 { return 0 }, func(a, b struct{}) bool { return false }, nil, nil)
}

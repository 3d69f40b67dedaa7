package core

import (
	"os"
	"regexp"
	"strconv"
	"testing"

	"kamsta/internal/arena"
	"kamsta/internal/comm"
	"kamsta/internal/graph"
	"kamsta/internal/par"
)

// designNumbers returns the integers DESIGN.md quotes in pattern's groups.
func designNumbers(t *testing.T, what, pattern string) []int {
	t.Helper()
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(pattern).FindSubmatch(raw)
	if m == nil {
		t.Fatalf("DESIGN.md no longer quotes the %s (pattern %q)", what, pattern)
	}
	out := make([]int, len(m)-1)
	for i, g := range m[1:] {
		if out[i], err = strconv.Atoi(string(g)); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestDesignQuotesResourceConstants compares the constants DESIGN.md §8
// quotes for the per-rank resources with what the code does: the vertex
// index's window (bound by its entries, and by its lookups, and at FILTER's
// call site), the arena's growth rule and par's grain.
func TestDesignQuotesResourceConstants(t *testing.T) {
	w := designNumbers(t, "index window",
		"at most `(\\d+)·max\\(n, q\\)\\+(\\d+)` for a table of `n`\\s+vertices serving `q` lookups \\(`directWindow`")
	verts := []graph.VID{1, 2, 3, 0}
	for _, lookups := range []int{0, 100} {
		widest := w[0]*max(len(verts), lookups) + w[1]
		for span, want := range map[int]int{widest: widest, widest + 1: 0} {
			verts[3] = verts[0] + graph.VID(span) - 1
			if got := directWindow(verts, lookups); got != want {
				t.Errorf("directWindow over a span of %d for %d vertices and %d lookups = %d, DESIGN.md's %d·max(n, q)+%d says %d",
					span, len(verts), lookups, got, w[0], w[1], want)
			}
		}
	}

	// The same rule at FILTER's call site, label space against endpoint
	// slots: the bitmap slot is grabbed exactly when the rule admits it.
	f := designNumbers(t, "filter window", "at most `(\\d+)s\\+(\\d+)` for the `s`\\s+endpoint slots of the segment \\(`filterSegment`")
	seg := []graph.Edge{{U: 1, V: 2, W: 1}, {U: 2, V: 1, W: 1}, {U: 2, V: 3, W: 2}, {U: 3, V: 2, W: 2}}
	widestSpace := uint64(f[0]*2*len(seg) + f[1])
	for n, want := range map[uint64]bool{widestSpace: true, widestSpace + 1: false} {
		comm.NewWorld(1).Run(func(c *comm.Comm) {
			filterSegment(c, segment{edges: seg}, newDistArray(c, n-1), Options{}.withDefaults())
			if got := cap(arena.GrabAppend[uint64](c.Scratch(), kLabelBits)) > 0; got != want {
				t.Errorf("filterSegment over a label space of %d for %d slots: bitmap %v, DESIGN.md's %ds+%d says %v", n, 2*len(seg), got, f[0], f[1], want)
			}
		})
	}

	g := designNumbers(t, "arena growth", "must grow gets `n\\+n/(\\d+)\\+(\\d+)`")
	a, k := arena.New(), arena.NewKey()
	arena.Grab[byte](a, k, 10)
	if got, want := cap(arena.Grab[byte](a, k, 100)), 100+100/g[0]+g[1]; got != want {
		t.Errorf("a slot grown to 100 has capacity %d, DESIGN.md's n+n/%d+%d says %d", got, g[0], g[1], want)
	}
	if got := cap(arena.Grab[byte](arena.New(), k, 100)); got != 100 {
		t.Errorf("an empty slot sized for 100 has capacity %d, DESIGN.md says exactly n", got)
	}

	grain := designNumbers(t, "par grain", "below 2·(\\d+) iterations \\(the par grain of (\\d+) per worker\\)")
	if grain[0] != grain[1] {
		t.Fatalf("DESIGN.md quotes two par grains, %d and %d", grain[0], grain[1])
	}
	blocks := func(n int) int {
		calls := make(chan struct{}, 2)
		par.NewPool(2).For(n, func(lo, hi int) { calls <- struct{}{} })
		return len(calls)
	}
	if below, at := blocks(2*grain[0]-1), blocks(2*grain[0]); below != 1 || at != 2 {
		t.Errorf("a 2-thread For ran %d block(s) over %d iterations and %d over %d; DESIGN.md's grain %d says 1 and 2",
			below, 2*grain[0]-1, at, 2*grain[0], grain[0])
	}
}

// TestDesignQuotesTuningConstants compares the fixed tuning constants DESIGN.md
// §4 quotes for core with the code (the two dsort numbers of the same bullet
// are TestDesignQuotesSorterConstants's, where the constants are visible).
func TestDesignQuotesTuningConstants(t *testing.T) {
	n := designNumbers(t, "tuning constants",
		"the (\\d+) %\\s+local-edge cut-off for preprocessing \\(`core\\.minLocalEdgeFrac`, §VI-B\\),\\s+the average-degree-(\\d+) sparse stop and the (\\d+)-sample pivot\\s+\\(`core\\.sparseDegree`, `core\\.pivotSamples`")
	if float64(n[0])/100 != minLocalEdgeFrac {
		t.Errorf("DESIGN.md says preprocessing is skipped below %d %% local edges, the code %v", n[0], minLocalEdgeFrac)
	}
	if n[1] != sparseDegree {
		t.Errorf("DESIGN.md says the recursion stops at average degree %d, the code %d", n[1], sparseDegree)
	}
	if n[2] != pivotSamples {
		t.Errorf("DESIGN.md says the pivot is the median of %d samples per PE, the code %d", n[2], pivotSamples)
	}
}
